"""Steering-guard integration: differential identity and quarantine durability.

Two acceptance scenarios from the robustness issue:

(a) **Differential**: serving with the guard enabled but zero observed
    regressions is bit-identical to serving with the guard disabled -- rows
    (including dict key order), simulated ``elapsed_ms``, steering decisions,
    matched template ids and every shared counter.  The guard may only add
    its own counters, never perturb the serving path.
(b) **Durability**: quarantine state written into a knowledge-base checkpoint
    survives a hot-reload: a serving ``GaloService`` that hot-swaps in such a
    checkpoint stops steering but for its probes.
"""

import asyncio

import pytest

pytestmark = pytest.mark.slow

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.service import GaloService, ServiceConfig, serve_workload
from repro.service.guard import GUARD_COUNTERS
from tests.conftest import MINI_QUERIES, build_mini_database

GUARD_SECONDS = 300

SALES_ROWS = 2000


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


def seed_template_checkpoint(db, directory):
    """Checkpoint a KB with one template per query segment of the workload.

    Template ids are uuid-generated at abstraction time, so differential
    comparisons must *load* the same checkpoint on both sides rather than
    abstracting twice.
    """
    kb = KnowledgeBase()
    count = 0
    for name, sql in MINI_QUERIES:
        for segment in segment_plan(db.explain(sql), max_joins=3):
            count += 1
            abstract_template_from_plan(
                kb,
                segment,
                name=f"diff{count}",
                source_workload="integration",
                source_query=name,
                widen=2.0,
                improvement=0.2,
                catalog=db.catalog,
            )
    assert kb.save(directory) == 1


def seeded_galo(db, directory):
    """A Galo over ``db`` serving the checkpoint at ``directory``."""
    galo = Galo(db)
    galo.load_knowledge_base(directory)
    return galo


def response_key(response):
    """Everything deterministic about one response, dict key order included."""
    return (
        response.query_name,
        response.status,
        tuple(tuple(row.items()) for row in response.rows),
        response.elapsed_ms,
        response.steered,
        tuple(response.matched_template_ids),
        response.max_q_error,
    )


#: Counter/gauge names only the guard emits (stripped before comparing
#: snapshots); wall-clock latency stats are excluded for the same reason.
GUARD_ONLY = set(GUARD_COUNTERS)


def comparable_counters(snapshot):
    return {
        name: value
        for name, value in snapshot.items()
        if name not in GUARD_ONLY and not name.startswith("latency_")
    }


class TestDifferentialIdentity:
    def test_guard_on_without_regressions_is_bit_identical(
        self, serving_db, tmp_path
    ):
        requests = MINI_QUERIES * 3
        config = dict(learning_enabled=False)
        seed_template_checkpoint(serving_db, str(tmp_path))

        # Both deployments share the one database and its execution memo:
        # each starts from an empty memo, or the second replays outcomes the
        # first kept and its prepared_replays differ.
        serving_db.workload_memo().reset()
        galo_off = seeded_galo(serving_db, str(tmp_path))
        responses_off, snapshot_off = serve_workload(
            galo_off, requests, ServiceConfig(guard_enabled=False, **config)
        )
        serving_db.workload_memo().reset()
        galo_on = seeded_galo(serving_db, str(tmp_path))
        responses_on, snapshot_on = serve_workload(
            galo_on, requests, ServiceConfig(guard_enabled=True, **config)
        )

        # Responses arrive in completion order (scheduling-dependent); the
        # multisets must match exactly.
        assert sorted(map(response_key, responses_on)) == sorted(
            map(response_key, responses_off)
        )
        # The comparison covers steered plans, not a trivially-empty match.
        assert sum(r.steered for r in responses_on) > 0
        # Zero regressions observed: nothing was quarantined, nothing lost.
        assert snapshot_on["steering_losses"] == 0
        assert snapshot_on["quarantine_blocks"] == 0
        assert galo_on.quarantined_template_ids() == []
        # Every counter both deployments share is identical -- the prepared
        # lane's hits, misses and replays included, since one serving thread
        # makes them deterministic; the guard only ever adds its own.
        assert comparable_counters(snapshot_on) == comparable_counters(snapshot_off)

    def test_quarantined_template_stops_steering_single_process(
        self, serving_db, tmp_path
    ):
        """Graceful degradation: quarantine -> optimizer plan, same rows."""
        requests = MINI_QUERIES
        config = ServiceConfig(
            learning_enabled=False, guard_probe_interval=1000
        )
        seed_template_checkpoint(serving_db, str(tmp_path))
        galo = seeded_galo(serving_db, str(tmp_path))
        steered_first, _ = serve_workload(galo, requests, config)
        assert sum(r.steered for r in steered_first) > 0

        for template_id in list(galo.knowledge_base.templates):
            galo.quarantine_template(template_id)
        degraded, snapshot = serve_workload(galo, requests, config)
        assert all(not r.steered for r in degraded)
        assert snapshot["quarantine_blocks"] > 0
        # Fallback plans still produce the same result sets.
        by_name = {r.query_name: r for r in steered_first}
        for response in degraded:
            assert response.ok
            assert len(response.rows) == len(by_name[response.query_name].rows)


def seed_quarantined_checkpoint(directory):
    """Checkpoint v1: templates for the mini workload, every one quarantined."""
    database = build_mini_database(sales_rows=SALES_ROWS)
    kb = KnowledgeBase()
    count = 0
    for name, sql in MINI_QUERIES:
        for segment in segment_plan(database.explain(sql), max_joins=3):
            count += 1
            abstract_template_from_plan(
                kb,
                segment,
                name=f"seed{count}",
                source_workload="integration",
                source_query=name,
                widen=2.0,
                improvement=0.2,
                catalog=database.catalog,
            )
    for template_id in list(kb.templates):
        kb.record_steering_outcome(template_id, win=False)
        kb.quarantine_template(template_id)
    assert kb.save(directory) == 1
    return sorted(kb.templates)


class TestQuarantineAdoptedInProcess:
    def test_adopted_quarantine_stops_steering(self, tmp_path):
        """A serving ``GaloService`` hot-swaps in a checkpoint whose templates
        are all quarantined: its matches block, and only probe ticks steer."""
        kb_dir = str(tmp_path)
        quarantined = seed_quarantined_checkpoint(kb_dir)
        galo = Galo(build_mini_database(sales_rows=SALES_ROWS))
        service = GaloService(
            galo, ServiceConfig(learning_enabled=False, tracing_enabled=True)
        )
        requests = MINI_QUERIES * 4

        async def scenario():
            async with service:
                before = [await service.submit(sql, query_name=name) for name, sql in requests]
                version = galo.maybe_reload_knowledge_base(kb_dir, force=True)
                after = [await service.submit(sql, query_name=name) for name, sql in requests]
            return before, version, after

        before, version, after = run(scenario())
        assert version == 1
        assert galo.quarantined_template_ids() == quarantined
        assert all(r.ok and not r.steered for r in before)
        assert all(r.ok for r in after)
        snapshot = service.metrics.snapshot()
        assert snapshot["quarantine_blocks"] > 0
        assert snapshot["quarantine_probes"] > 0
        for response in after:
            trace = service.trace_store.get(trace_id=response.trace_id)
            (root,) = [s for s in trace["spans"] if s["span_id"] == trace["root_span_id"]]
            probed = set(root["attributes"].get("probed", ()))
            # A steered request ran only templates whose probe tick fired.
            assert not response.steered or set(response.matched_template_ids) <= probed
        assert 0 < sum(r.steered for r in after) <= snapshot["quarantine_probes"]
