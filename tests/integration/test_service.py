"""End-to-end serving tier: serve, learn in the background, steer, evict.

The acceptance scenario from the serving-tier issue: start a ``GaloService``
in-process with an empty knowledge base, submit a mixed stream containing a
known-regressed (badly mis-estimated) query, and assert that

(a) concurrent requests complete with results identical to serial
    ``Database.execute_sql``;
(b) the regressed query is learned in the background and a later identical
    request is steered by the new template (and runs faster);
(c) knowledge-base eviction under a size cap keeps indexed matching equal to
    brute-force matching.
"""

import asyncio

import pytest

pytestmark = pytest.mark.slow

from repro.core.galo import Galo
from repro.core.learning.engine import LearningConfig
from repro.core.matching.segmenter import segment_plan
from repro.core.transform.sparql_gen import sparql_for_subplan
from repro.service import GaloService, ServiceConfig


#: A hung event loop must fail the test, not wedge the suite.
GUARD_SECONDS = 300


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


#: The known-regressed statement: the optimizer badly over-estimates the
#: date-dimension join (sales cluster in the last year), and offline probing
#: shows learning reliably finds a >40 % better plan for it.
REGRESSED = (
    "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
    "GROUP BY i_category"
)

MIX = [
    (
        "well_estimated",
        "SELECT o_state, COUNT(*) FROM outlet WHERE o_state = 'CA' GROUP BY o_state",
    ),
    ("regressed", REGRESSED),
    (
        "jewelry",
        "SELECT i_category, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    ),
    (
        "four_way",
        "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
        "AND i_category = 'Music' AND o_state = 'CA' GROUP BY i_category, o_state",
    ),
]


def sorted_rows(rows):
    """Order-insensitive row normalization.

    Float aggregates are rounded: a steered plan may sum in a different
    order than the baseline plan, and float addition is not associative.
    """
    def normalize(value):
        return round(value, 6) if isinstance(value, float) else value

    return sorted(
        tuple(sorted((key, normalize(value)) for key, value in row.items()))
        for row in rows
    )


def make_service(db, **config_overrides):
    galo = Galo(
        db,
        learning_config=LearningConfig(
            max_joins=3, random_plans_per_subquery=4, max_variants=2
        ),
    )
    # The q-error threshold is 4.0: the well-estimated single-table query
    # peaks at ~3.16 (the GRPBY sqrt heuristic), the mis-estimated joins at
    # 10-30.
    return galo, GaloService(galo, ServiceConfig(**config_overrides))


class TestEndToEndService:
    def test_serve_learn_steer_evict(self, serving_db):
        db = serving_db
        galo, service = make_service(db)
        serial = {name: db.execute_sql(sql).rows for name, sql in MIX}

        async def scenario():
            async with service:
                # -- (a) a concurrent mixed stream (each statement 3x) -------
                first_wave = []
                async for response in service.stream(MIX * 3):
                    first_wave.append(response)

                # Let the background learner drain, then resubmit the
                # regressed statement: it must now be steered.
                await service.drain()
                steered_response = await service.submit(REGRESSED, query_name="again")
                return first_wave, steered_response

        first_wave, steered_response = run(scenario())

        # (a) every concurrent request completed, rows identical to serial
        # execution (modulo row order once a steered plan kicked in).
        assert len(first_wave) == len(MIX) * 3
        assert all(response.ok for response in first_wave)
        for response in first_wave:
            expected = serial[response.query_name]
            if response.steered:
                assert sorted_rows(response.rows) == sorted_rows(expected)
            else:
                assert response.rows == expected

        # (b) the regressed query was learned in the background...
        assert service.metrics.count("learning_completed") >= 1
        assert galo.template_count >= 1
        learned_for_regressed = [
            template
            for template in galo.knowledge_base.all_templates()
            if template.source_workload == "online"
        ]
        assert learned_for_regressed, "background learning must store templates"
        # ...and a later identical request is steered by the new template,
        # with identical rows and a faster (simulated) runtime.
        assert steered_response.ok and steered_response.steered
        assert steered_response.matched_template_ids
        assert sorted_rows(steered_response.rows) == sorted_rows(serial["regressed"])
        baseline_elapsed = db.execute_sql(REGRESSED).elapsed_ms
        assert steered_response.elapsed_ms < baseline_elapsed

        # The well-estimated statement must never have been enqueued.
        assert not service.ledger.get(MIX[0][1]).enqueued

        # -- (c) eviction under a size cap keeps indexed == brute force ------
        kb = galo.knowledge_base
        while galo.template_count < 3:  # ensure the cap actually evicts
            galo.learn_query(MIX[2][1], query_name="fill", workload_name="fill")
        evicted = galo.enforce_kb_capacity(2)
        assert evicted and galo.template_count == 2
        for name, sql in MIX:
            for segment in segment_plan(db.explain(sql), max_joins=3):
                generated = sparql_for_subplan(segment, catalog=db.catalog)
                indexed = kb.match(generated, subplan_root=segment, use_index=True)
                brute = kb.match_brute_force(generated, subplan_root=segment)
                assert [m.template.template_id for m in indexed] == [
                    m.template.template_id for m in brute
                ]

    def test_learning_disabled_never_learns(self, serving_db):
        galo, service = make_service(serving_db, learning_enabled=False)

        async def scenario():
            async with service:
                responses = [
                    await service.submit(sql, query_name=name) for name, sql in MIX
                ]
                return responses

        responses = run(scenario())
        assert all(response.ok for response in responses)
        assert galo.template_count == 0
        assert service.metrics.count("learning_enqueued") == 0

    def test_service_with_kb_capacity_bounds_template_count(self, serving_db):
        galo, service = make_service(serving_db, kb_capacity=1)

        async def scenario():
            async with service:
                async for _ in service.stream(MIX * 2):
                    pass
                await service.drain()

        run(scenario())
        assert galo.template_count <= 1
        if service.metrics.count("templates_learned") > 1:
            assert service.metrics.count("templates_evicted") >= 1
