"""Property test: the prepared lane under arbitrary interleavings of churn.

Hypothesis draws a sequence of rounds, each "serve statement i, apply one of
{add / evict / update a template, RUNSTATS, load rows, checkpoint +
hot-reload, nothing}, serve statement i again", over one system whose state
carries from round to round.  Every served decision must equal the uncached
``steer()`` oracle *at that point* -- plans, guidelines, executed rows and
simulated runtime -- and must move the knowledge base's usage clock and hit
counts by exactly what the oracle moves them.  This is the net under the
serving tier's one cache of verdicts: whatever order invalidating events
arrive in, a stale verdict is never served.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.knowledge_base import abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from tests.prepared_support import (
    MAX_JOINS,
    WORKLOAD,
    build_system,
    decision_key,
)

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

statement = st.integers(0, len(WORKLOAD) - 1)
pick = st.integers(0, 63)

mutations = st.one_of(
    st.tuples(st.just("nothing")),
    st.tuples(st.just("add"), pick, st.sampled_from([0.0, 0.5, 5.0])),
    st.tuples(st.just("evict"), pick),
    st.tuples(st.just("update_improvement"), pick, st.sampled_from([0.0, 0.5, 5.0])),
    st.tuples(st.just("update_guideline"), pick, pick),
    st.tuples(st.just("runstats"), st.sampled_from(["SALES", "ITEM", "DATE_DIM"])),
    st.tuples(st.just("load_rows"), st.integers(1, 8)),
    st.tuples(st.just("reload")),
)

#: One round: serve a statement, mutate (aimed at the templates that statement
#: just matched, so the mutation can actually change its verdict), serve it
#: again.  ``mask`` stands in for the guard: bit p keeps the p-th raw match.
rounds = st.lists(
    st.tuples(statement, st.sampled_from([7, 7, 0, 1, 2, 5]), mutations),
    min_size=2,
    max_size=6,
)


def usage_delta(knowledge_base, call):
    """``call()``'s effect on the usage clock and every template's hit count."""
    tick = knowledge_base._usage_tick
    hits = {
        template_id: knowledge_base.template_usage(template_id).hits
        for template_id in knowledge_base.templates
    }
    result = call()
    return result, (
        knowledge_base._usage_tick - tick,
        {
            template_id: knowledge_base.template_usage(template_id).hits - before
            for template_id, before in hits.items()
            if knowledge_base.template_usage(template_id).hits != before
        },
    )


def serve_and_compare(galo, index, mask):
    """One request through the lane and through the oracle; both must agree.

    The same screening runs on both sides, so the lane's per-allowed-set
    plans are exercised.  Returns the lane's decision.
    """
    name, sql = WORKLOAD[index]
    engine = galo.matching_engine
    kb = galo.knowledge_base

    def match_filter(matches):
        return [match for p, match in enumerate(matches) if mask >> p & 1]

    served, lane_usage = usage_delta(
        kb, lambda: engine.steer_prepared(sql, query_name=name, match_filter=match_filter)
    )
    oracle, oracle_usage = usage_delta(
        kb, lambda: engine.steer(sql, query_name=name, match_filter=match_filter)
    )
    assert decision_key(galo.database, served) == decision_key(galo.database, oracle), (
        f"{name}: lane ({served.prepared}) differs from steer()"
    )
    assert lane_usage == oracle_usage, f"{name}: usage replay ({served.prepared})"
    return served


def apply(galo, mutation, index, touched, directory):
    """Apply one mutation; ``touched`` are the ids statement ``index`` matched."""
    kind = mutation[0]
    kb = galo.knowledge_base
    database = galo.database
    targets = touched or sorted(kb.templates)

    def target(position):
        return targets[position % len(targets)] if targets else None

    if kind == "add":
        segments = segment_plan(database.explain(WORKLOAD[index][1]), max_joins=MAX_JOINS)
        if segments:
            abstract_template_from_plan(
                kb,
                segments[mutation[1] % len(segments)],
                name=f"drawn-{kb.generation}",
                improvement=mutation[2],
                catalog=database.catalog,
            )
    elif kind == "evict" and targets:
        kb.evict_template(target(mutation[1]))
    elif kind == "update_improvement" and targets:
        kb.update_template(target(mutation[1]), improvement=mutation[2])
    elif kind == "update_guideline" and targets:
        donors = sorted(kb.templates)
        donor = kb.template(donors[mutation[2] % len(donors)])
        kb.update_template(target(mutation[1]), guideline_xml=donor.guideline_xml)
    elif kind == "runstats":
        database.runstats(mutation[1])
    elif kind == "load_rows":
        data = database.catalog.table_data("SALES")
        database.load_rows("SALES", list(data.rows(range(mutation[1]))))
    elif kind == "reload":
        galo.save_knowledge_base(directory)
        galo.maybe_reload_knowledge_base(directory, force=True)


def stamp_of(galo):
    kb = galo.knowledge_base
    return galo.database.stats_epoch, kb, kb.generation


def same_stamp(before, after):
    return before[0] == after[0] and before[1] is after[1] and before[2] == after[2]


@SETTINGS
@given(rounds=rounds)
def test_every_served_decision_equals_the_uncached_oracle(rounds):
    galo = build_system(sales_rows=300)
    prepared = set()

    def serve(index, mask):
        decision = serve_and_compare(galo, index, mask)
        # No spurious invalidation: the lane hits exactly when this statement
        # was served since the stamp last moved (capacity is never reached).
        assert (decision.prepared == "hit") == (index in prepared)
        prepared.add(index)
        return decision

    with tempfile.TemporaryDirectory() as directory:
        for index, mask, mutation in rounds:
            serve(index, mask)
            entry, _ = galo.matching_engine.prepared.lookup(
                WORKLOAD[index][1], *stamp_of(galo)
            )
            touched = sorted({tid for batch in entry.usage_batches for tid in batch})
            stamp = stamp_of(galo)
            apply(galo, mutation, index, touched, directory)
            if not same_stamp(stamp, stamp_of(galo)):
                prepared.clear()
            serve(index, mask)
