"""The prepared-statement lane against its uncached reference.

``MatchingEngine.steer_prepared`` serves a repeated statement from one
stamped entry; ``MatchingEngine.steer`` recomputes everything.  The lane is
only correct if the two are indistinguishable -- same decision, same executed
result, same knowledge-base usage bookkeeping, same guard behaviour -- on
first and repeated calls and across every event that changes the verdict.
"""

import asyncio
import copy
import json
import pickle
import sys
import threading
import time

import pytest

from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.prepared import PreparedStatements
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import join_tree_root
from repro.engine.executor.executor import Executor
from repro.engine.executor.memo import FrozenRow, PlanOutcome
from repro.engine.executor.vectorized import Batch, VectorizedExecutor, subtree_key
from repro.engine.executor.vectorized import plan_key as outcome_key
from repro.obs import Span
from repro.service import GaloService, ServiceConfig
from repro.service import feedback as feedback_module
from repro.service.guard import SteeringGuard
from repro.service.metrics import ServiceMetrics
from tests.naive_optimizer import plan_rows
from tests.prepared_support import (
    MAX_JOINS,
    ROW_MUTATIONS,
    WORKLOAD,
    assert_lane_equals_oracle,
    build_system,
    plan_key,
    plan_snapshot,
    reinsert_sales,
    usage_snapshot,
)
from tests.unit.test_vectorized_executor import assert_identical

GUARD_SECONDS = 120

ALL_HITS = ["hit"] * len(WORKLOAD)
ALL_STALE = ["stale"] * len(WORKLOAD)


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


def current_entry(galo, sql):
    """The lane's entry for ``sql`` under the current stamp (None if stale)."""
    kb = galo.knowledge_base
    entry, _ = galo.matching_engine.prepared.lookup(
        sql, galo.database.stats_epoch, kb, kb.generation
    )
    return entry


def served_plans(galo, sql):
    """The plans ``sql``'s current entry hands out (one per allowed set)."""
    entry = current_entry(galo, sql)
    return [steered or entry.baseline for _, steered in entry.plans.values()]


def kept_outcomes(galo, sql):
    """The memo's outcomes for the plans ``sql``'s current entry hands out."""
    memo = galo.database.workload_memo()
    keys = {outcome_key(plan) for plan in served_plans(galo, sql)}
    return [memo.peek(key) for key in keys if memo.peek(key) is not None]


class TestEqualsUncachedSteer:
    def test_first_and_repeated_calls(self):
        galo = build_system()
        assert assert_lane_equals_oracle(galo) == ["miss"] * len(WORKLOAD)
        assert assert_lane_equals_oracle(galo) == ALL_HITS
        assert assert_lane_equals_oracle(galo) == ALL_HITS

    def test_workload_is_not_trivial(self):
        """The seeded KB steers, changes a plan, and leaves one statement alone."""
        galo = build_system()
        decisions = [
            galo.matching_engine.steer_prepared(sql, query_name=name)
            for name, sql in WORKLOAD
        ]
        assert any(d.steered and plan_key(d.qgm)[1:] != plan_key(d.baseline_qgm)[1:]
                   for d in decisions)
        assert any(not d.matches for d in decisions)
        assert any(
            len(batch) > 1
            for _, sql in WORKLOAD
            for batch in current_entry(galo, sql).usage_batches
        )

    def test_query_names_follow_the_request(self):
        galo = build_system()
        name, sql = WORKLOAD[1]
        galo.matching_engine.steer_prepared(sql, query_name=name)
        renamed = galo.matching_engine.steer_prepared(sql, query_name="other")
        assert renamed.prepared == "hit"
        assert renamed.baseline_qgm.query_name == "other"
        assert renamed.qgm.query_name == "other (steered)"

    def test_clearing_the_lane_reaches_the_miss_path(self):
        galo = build_system()
        assert_lane_equals_oracle(galo)
        galo.matching_engine.prepared.clear()
        assert len(galo.matching_engine.prepared) == 0
        assert assert_lane_equals_oracle(galo) == ["miss"] * len(WORKLOAD)


class TestBindOncePerRequest:
    """A request's statement is parsed and bound once, however many of its
    plans miss the explain cache: the steered re-plan is handed the bound
    query the baseline plan was built from."""

    @staticmethod
    def binds_of(galo, call):
        """``bind_sql`` calls per workload statement, explain cache emptied first."""
        optimizer = galo.database.optimizer
        bind_sql = optimizer.bind_sql
        counts = []
        for name, sql in WORKLOAD:
            galo.database.runstats("ITEM")  # cached plans go
            seen = []
            optimizer.bind_sql = lambda text: seen.append(text) or bind_sql(text)
            try:
                decision = call(sql, query_name=name)
            finally:
                del optimizer.bind_sql
            counts.append((decision.steered, len(seen)))
        return counts

    def test_steer_and_the_prepared_miss_path(self):
        galo = build_system()
        engine = galo.matching_engine
        for call in (engine.steer, engine.steer_prepared):
            counts = self.binds_of(galo, call)
            assert any(steered for steered, _ in counts)
            assert [binds for _, binds in counts] == [1] * len(WORKLOAD)

    def test_a_cached_baseline_lends_its_bound_query_to_the_steered_miss(self):
        galo = build_system()
        engine, database = galo.matching_engine, galo.database
        name, sql = next(
            (name, sql) for name, sql in WORKLOAD if engine.steer(sql, query_name=name).steered
        )
        database.runstats("ITEM")
        baseline = database.explain(sql, query_name=name)
        assert baseline.query is database.explain(sql).query is not None  # a hit
        optimizer = database.optimizer
        optimizer.bind_sql = lambda text: pytest.fail("bound again")
        try:
            decision = engine.steer(sql, query_name=name)
        finally:
            del optimizer.bind_sql
        assert decision.steered and decision.qgm.query is baseline.query

    def test_explain_of_text_alone_still_binds(self):
        galo = build_system()
        name, sql = WORKLOAD[0]
        galo.database.runstats("ITEM")
        assert plan_rows(galo.database.explain(sql)) == plan_rows(
            galo.database.explain(sql, bound=galo.database.bind(sql))
        )


class TestInvalidation:
    """Every event that can change a verdict makes the next lookup stale."""

    def warmed(self):
        galo = build_system()
        assert_lane_equals_oracle(galo)
        return galo

    def check(self, galo):
        assert assert_lane_equals_oracle(galo) == ALL_STALE
        assert assert_lane_equals_oracle(galo) == ALL_HITS

    def test_add_template(self):
        galo = self.warmed()
        name, sql = WORKLOAD[0]
        segment = segment_plan(galo.database.explain(sql), max_joins=MAX_JOINS)[-1]
        added = abstract_template_from_plan(
            galo.knowledge_base, segment, name="late", improvement=0.95,
            catalog=galo.database.catalog,
        )
        self.check(galo)
        served = galo.matching_engine.steer_prepared(sql, query_name=name)
        assert served.matched_template_ids == [added.template_id]

    def test_evict_template(self):
        galo = self.warmed()
        name, sql = WORKLOAD[0]
        before = galo.matching_engine.steer_prepared(sql, query_name=name)
        assert galo.evict_template(before.matched_template_ids[0])
        self.check(galo)
        after = galo.matching_engine.steer_prepared(sql, query_name=name)
        assert before.matched_template_ids[0] not in after.matched_template_ids

    def test_update_template_improvement(self):
        """Re-ranking a twin above its sibling changes which one steers."""
        galo = self.warmed()
        sql, runner_up = next(
            (sql, template_id)
            for _, sql in WORKLOAD
            for batch in current_entry(galo, sql).usage_batches
            for template_id in batch
            if len(batch) > 1
            and template_id
            not in galo.matching_engine.steer_prepared(sql).matched_template_ids
        )
        galo.knowledge_base.update_template(runner_up, improvement=0.99)
        self.check(galo)
        assert runner_up in galo.matching_engine.steer_prepared(sql).matched_template_ids

    def test_update_template_guideline(self):
        galo = self.warmed()
        name, sql = WORKLOAD[0]
        before = galo.matching_engine.steer_prepared(sql, query_name=name)
        twin = next(t for t in galo.knowledge_base.all_templates()
                    if t.name.endswith("-twin"))
        galo.knowledge_base.update_template(
            before.matched_template_ids[0], guideline_xml=twin.guideline_xml
        )
        self.check(galo)

    def test_runstats(self):
        galo = self.warmed()
        galo.database.runstats("SALES")
        self.check(galo)

    def test_load_rows(self):
        galo = self.warmed()
        reinsert_sales(galo.database)
        self.check(galo)

    def test_empty_load_invalidates_nothing(self):
        """A batch that adds no row moves no epoch: prepared entries stay
        current and the workload memo keeps its entries."""
        galo = self.warmed()
        database = galo.database
        memo = database.workload_memo()
        database.execute_plan(database.explain(WORKLOAD[0][1]), memo=memo)
        statistics = database.catalog.statistics("SALES")
        epochs = (database.storage_epoch, database.stats_epoch)
        resets, hits = memo.resets, memo.hits
        assert database.load_rows("SALES", []) == 0
        assert database.load_rows("SALES", iter(())) == 0
        assert (database.storage_epoch, database.stats_epoch) == epochs
        assert database.catalog.statistics("SALES") is statistics
        assert assert_lane_equals_oracle(galo) == ALL_HITS
        assert database.workload_memo() is memo and memo.resets == resets
        database.execute_plan(database.explain(WORKLOAD[0][1]), memo=memo)
        assert memo.hits > hits

    def test_adopt_knowledge_base(self):
        galo = self.warmed()
        replacement = KnowledgeBase()
        galo.adopt_knowledge_base(replacement)
        self.check(galo)
        assert not galo.matching_engine.steer_prepared(WORKLOAD[0][1]).matches

    def test_hot_reload(self, tmp_path):
        galo = self.warmed()
        galo.save_knowledge_base(str(tmp_path))
        old = galo.knowledge_base
        assert galo.maybe_reload_knowledge_base(str(tmp_path), force=True) == 1
        assert galo.knowledge_base is not old
        self.check(galo)

    def test_rebuild_index_advances_the_generation(self):
        galo = self.warmed()
        generation = galo.knowledge_base.generation
        galo.knowledge_base.rebuild_index()
        assert galo.knowledge_base.generation == generation + 1
        self.check(galo)

    def test_guard_transitions_do_not_invalidate(self):
        """Quarantine is screened per request, not baked into the entry."""
        galo = self.warmed()
        template_id = galo.matching_engine.steer_prepared(
            WORKLOAD[0][1]
        ).matched_template_ids[0]
        galo.quarantine_template(template_id)
        galo.rearm_template(template_id)
        assert assert_lane_equals_oracle(galo) == ALL_HITS


class TestUsageReplay:
    def test_usage_and_eviction_order_equal_a_steer_served_run(self, tmp_path):
        """Replayed ticks are indistinguishable from recomputed ones."""
        build_system().save_knowledge_base(str(tmp_path))
        requests = [WORKLOAD[i % len(WORKLOAD)] for i in (0, 1, 1, 2, 0, 3, 4, 2, 2, 1, 0, 3)]

        def serve_through(method_name):
            galo = build_system(knowledge_base=KnowledgeBase.load(str(tmp_path)))
            method = getattr(galo.matching_engine, method_name)
            snapshots = []
            for name, sql in requests:
                method(sql, query_name=name)
                snapshots.append(usage_snapshot(galo.knowledge_base))
            return snapshots, galo

        lane, lane_galo = serve_through("steer_prepared")
        oracle, oracle_galo = serve_through("steer")
        assert lane == oracle
        assert any(hits for hits, _ in lane[-1][0].values())
        # Capacity enforcement reads those ticks: both runs evict the same ids.
        assert lane_galo.enforce_kb_capacity(3) == oracle_galo.enforce_kb_capacity(3)

    def test_match_stats_count_only_sparql_work_performed(self):
        galo = build_system()
        name, sql = WORKLOAD[2]
        galo.matching_engine.steer_prepared(sql, query_name=name)
        performed = dict(galo.knowledge_base.match_stats)
        galo.matching_engine.steer_prepared(sql, query_name=name)
        assert galo.knowledge_base.match_stats == performed

    def test_replay_skips_templates_no_longer_registered(self):
        galo = build_system()
        kb = galo.knowledge_base
        kept, gone = sorted(kb.templates)[:2]
        kb.evict_template(gone)
        kb.replay_usage([(kept, gone)])
        assert kb.template_usage(kept).hits == 1
        assert gone not in kb._usage


class TestGuardPerRequest:
    def test_quarantined_template_blocked_on_hits_and_probed_on_the_interval(self):
        interval = 3
        galo = build_system()
        engine = galo.matching_engine
        kb = galo.knowledge_base
        guard = SteeringGuard(probe_interval=interval, metrics=ServiceMetrics())
        name, sql = WORKLOAD[0]
        free = engine.steer_prepared(sql, query_name=name)
        assert free.steered
        (template_id,) = free.matched_template_ids
        kb.quarantine_template(template_id)

        screens = []

        def match_filter(matches):
            screens.append(guard.screen(kb, matches))
            return screens[-1].allowed

        outcomes = []
        for _ in range(2 * interval):
            decision = engine.steer_prepared(sql, query_name=name, match_filter=match_filter)
            assert decision.prepared == "hit"
            outcomes.append((decision.steered, decision.matched_template_ids))
        blocked, probed = (False, []), (True, [template_id])
        assert outcomes == [blocked, blocked, probed] * 2
        assert [bool(screen.probed) for screen in screens] == [False, False, True] * 2
        assert kb.guard_record(template_id).probe_counter == 2 * interval
        # A blocked request ran the plan steer() gives it, not the steered one.
        blocked_decision = engine.steer_prepared(
            sql, query_name=name, match_filter=lambda matches: []
        )
        assert plan_key(blocked_decision.qgm) == plan_key(blocked_decision.baseline_qgm)
        assert blocked_decision.guideline_document.is_empty

    def test_each_allowed_set_gets_its_own_plan(self):
        galo = build_system()
        # q_join4: three nested segments, but only the largest is claimed.
        for name, sql in WORKLOAD:
            raw = galo.matching_engine.steer_prepared(sql, query_name=name).matches
            for keep in range(len(raw) + 1):
                allowed = {m.template.template_id for m in raw[:keep]}

                def match_filter(matches, _allowed=allowed):
                    return [m for m in matches if m.template.template_id in _allowed]

                assert_lane_equals_oracle(galo, [(name, sql)], match_filter=match_filter)


class TestMastersAndCapacity:
    def test_executing_a_returned_plan_never_mutates_the_master(self):
        galo = build_system()
        engine = galo.matching_engine
        name, sql = WORKLOAD[1]
        first = engine.steer_prepared(sql, query_name=name)
        entry = current_entry(galo, sql)
        (steered_master,) = [plan for _, plan in entry.plans.values()]

        masters_before = plan_snapshot(entry.baseline), plan_snapshot(steered_master)
        for decision in (first, engine.steer_prepared(sql, query_name=name)):
            # Views of the masters: their own names over the same nodes.
            assert decision.qgm is not steered_master
            assert decision.qgm.root is steered_master.root
            assert decision.baseline_qgm.root is entry.baseline.root
            galo.database.execute_plan(decision.qgm)
            galo.database.execute_plan(decision.baseline_qgm)
        assert (plan_snapshot(entry.baseline), plan_snapshot(steered_master)) == masters_before

    def test_capacity_bound_holds_after_300_distinct_statements(self):
        galo = build_system()
        engine = galo.matching_engine
        for price in range(300):
            engine.steer_prepared(
                f"SELECT i_category FROM item WHERE i_price > {price}"
            )
            assert len(engine.prepared) <= PreparedStatements.CAPACITY
        assert len(engine.prepared) == PreparedStatements.CAPACITY
        # LRU: the most recent statement is still prepared, the first is not.
        assert engine.steer_prepared(
            "SELECT i_category FROM item WHERE i_price > 299"
        ).prepared == "hit"
        assert engine.steer_prepared(
            "SELECT i_category FROM item WHERE i_price > 0"
        ).prepared == "miss"


class TestConcurrentMutation:
    def test_readers_never_see_a_verdict_older_than_the_generation_they_read(self):
        """Two threads hammer one statement while a writer adds and evicts.

        The writer installs templates of strictly increasing benefit over the
        statement's segment (each becomes the best match) and evicts the one
        before, so "which template steers" is monotone in the KB generation.
        A reader that took generation g before asking and got a *replayed*
        verdict must see the template that was best at g or a later one:
        anything older means an entry outlived the mutation that replaced it.

        Computed verdicts are not held to that: ``KnowledgeBase.match`` reads
        without the write lock, so one that overlaps two mutations can mix
        their states (candidates listed before an add, evaluated after the
        following evict) -- exactly as the uncached ``steer()`` can.  Such a
        verdict answers the request that computed it and is then dropped:
        ``steer_prepared`` re-reads the stamp after matching and publishes
        only if nothing moved (the interleaving is pinned single-threaded in
        ``test_a_verdict_computed_across_a_mutation_is_not_published``), so
        no later reader can be handed it; the hit-side assertion checks that.

        After each round the writer waits (up to the test's deadline) for a
        reader to report a replayed verdict at the generation it just left,
        so hits are checked at every generation instead of only where the
        scheduler happened to fit two requests between two mutations.
        """
        galo = build_system()
        engine = galo.matching_engine
        kb = galo.knowledge_base
        name, sql = WORKLOAD[0]
        segment = segment_plan(galo.database.explain(sql), max_joins=MAX_JOINS)[-1]
        rounds = 40
        base = kb.generation
        # Operation i (1-based) leaves generation base + i: add(1), then
        # add(k), evict(k - 1) for k = 2..rounds.
        best_at = {base: 0, base + 1: 1}
        for k in range(2, rounds + 1):
            best_at[base + 2 * k - 2] = k
            best_at[base + 2 * k - 1] = k
        failures = []
        done = threading.Event()
        hit_at_current_generation = threading.Event()
        deadline = time.monotonic() + GUARD_SECONDS

        def writer():
            try:
                previous = None
                for k in range(1, rounds + 1):
                    added = abstract_template_from_plan(
                        kb, segment, name=f"rank-{k:03d}", improvement=10.0 + k,
                        catalog=galo.database.catalog,
                    )
                    if previous is not None:
                        kb.evict_template(previous.template_id)
                    previous = added
                    hit_at_current_generation.clear()
                    hit_at_current_generation.wait(
                        timeout=max(0.0, deadline - time.monotonic())
                    )
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(repr(exc))
            finally:
                done.set()

        served = []

        def reader():
            try:
                while not done.is_set():
                    generation = kb.generation
                    decision = engine.steer_prepared(sql, query_name=name)
                    ranks = [
                        int(match.template.name.split("-")[1])
                        for match in decision.matches
                        if match.template.name.startswith("rank-")
                    ]
                    rank = max(ranks, default=0)
                    served.append(decision.prepared)
                    if decision.prepared == "hit":
                        if rank < best_at[generation]:
                            failures.append(
                                f"generation {generation}: served rank {rank}, "
                                f"best was {best_at[generation]} ({decision.prepared})"
                            )
                        if generation == kb.generation:
                            hit_at_current_generation.set()
            except Exception as exc:  # pragma: no cover - reported below
                failures.append(repr(exc))

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(2)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(switch_interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:5]
        assert kb.generation == base + 2 * rounds - 1
        assert "hit" in served and set(served) <= {"hit", "miss", "stale"}
        # Quiescent again: the lane agrees with the oracle on the final KB.
        final = engine.steer_prepared(sql, query_name=name)
        assert [m.template.name for m in final.matches] == [f"rank-{rounds:03d}"]
        assert_lane_equals_oracle(galo)


    def test_a_verdict_computed_across_a_mutation_is_not_published(self):
        """The flake above, single-threaded: reader A reads generation g, at
        which ``rank-001`` is the best match; between A's candidate listing
        and its evaluation the KB gains ``rank-002`` and loses ``rank-001``,
        so A computes a verdict steered by neither.  A is answered with it
        (uncached ``steer()`` would compute the same), but a second reader
        that also read g must not be served it as a hit."""
        galo = build_system()
        engine = galo.matching_engine
        kb = galo.knowledge_base
        name, sql = WORKLOAD[0]
        segment = segment_plan(galo.database.explain(sql), max_joins=MAX_JOINS)[-1]

        def add_rank(k):
            return abstract_template_from_plan(
                kb, segment, name=f"rank-{k:03d}", improvement=10.0 + k,
                catalog=galo.database.catalog,
            )

        first = add_rank(1)
        generation = kb.generation
        candidates = kb.index.candidates
        mutated = []

        def candidates_then_mutate(profile):
            listed = candidates(profile)
            if first.template_id in listed and not mutated:
                mutated.append(add_rank(2))
                kb.evict_template(first.template_id)
            return listed

        kb.index.candidates = candidates_then_mutate
        try:
            decision = engine.steer_prepared(sql, query_name=name)
        finally:
            del kb.index.candidates
        assert mutated and kb.generation == generation + 2
        assert decision.prepared == "miss"
        assert not any(
            match.template.name.startswith("rank-") for match in decision.matches
        )
        _, outcome = engine.prepared.lookup(
            sql, galo.database.stats_epoch, kb, generation
        )
        assert outcome != "hit"
        # Quiescent: the next request recomputes at the current generation.
        assert [m.template.name for m in engine.steer_prepared(sql).matches] == [
            "rank-002"
        ]
        assert_lane_equals_oracle(galo)


    def test_a_plan_optimized_across_runstats_is_not_put_back(self):
        """``Database.explain`` optimizes, then caches.  RUNSTATS going by in
        between clears the cache first; the plan computed from the statistics
        it replaced must not be put back behind it, where every later
        ``explain`` -- and the next prepared-lane miss -- would take it as
        the baseline.  The caller still gets what it computed."""
        galo = build_system()
        database = galo.database
        name, sql = WORKLOAD[0]
        # Seeding the knowledge base explained the statement: start uncached.
        database.runstats("ITEM")
        optimize = database.optimizer.optimize
        moved = []

        def optimize_then_refresh_statistics(*args, **kwargs):
            qgm = optimize(*args, **kwargs)
            if not moved:
                moved.append(database.stats_epoch)
                reinsert_sales(database, count=400)
                database.runstats("SALES")
            return qgm

        database.optimizer.optimize = optimize_then_refresh_statistics
        try:
            stale = database.explain(sql, query_name=name)
        finally:
            del database.optimizer.optimize
        assert moved and database.stats_epoch > moved[0]
        hits = database.explain_cache_hits
        served = database.explain(sql, query_name=name)
        fresh = database.optimizer.optimize(database.bind(sql), query_name=name)
        # Nothing computed before the invalidation answers after it.
        assert database.explain_cache_hits == hits
        assert plan_rows(served) == plan_rows(fresh) != plan_rows(stale)
        assert database.explain(sql).total_cost == fresh.total_cost
        assert database.explain_cache_hits == hits + 1
        assert_lane_equals_oracle(galo)

    def test_a_steered_plan_built_across_runstats_stays_with_its_stale_entry(self):
        """``steer_prepared`` stores the steered master into the entry it
        computed (``entry.plans.setdefault``) without looking at the stamp
        again.  It need not: a master built while the statistics moved lands
        in an entry stamped before the move, which ``lookup`` never returns
        under the stamp that follows."""
        galo = build_system()
        engine, database, kb = galo.matching_engine, galo.database, galo.knowledge_base
        name, sql = next(
            (name, sql) for name, sql in WORKLOAD if engine.steer(sql, query_name=name).steered
        )
        explain = database.explain
        moved = []

        def explain_then_refresh_statistics(sql, guidelines=None, **kwargs):
            qgm = explain(sql, guidelines=guidelines, **kwargs)
            if guidelines is not None and not moved:
                moved.append(database.stats_epoch)
                reinsert_sales(database, count=400)
                database.runstats("SALES")
            return qgm

        database.explain = explain_then_refresh_statistics
        try:
            decision = engine.steer_prepared(sql, query_name=name)
        finally:
            del database.explain
        assert decision.steered and moved and database.stats_epoch > moved[0]
        # The entry was published before the steered plan was built, and holds it.
        published, outcome = engine.prepared.lookup(sql, moved[0], kb, kb.generation)
        assert outcome == "hit" and any(master for _, master in published.plans.values())
        assert engine.prepared.lookup(sql, database.stats_epoch, kb, kb.generation) == (
            None, "stale",
        )
        again = engine.steer_prepared(sql, query_name=name)
        assert again.prepared == "stale"
        assert current_entry(galo, sql) is not published
        assert_lane_equals_oracle(galo)


class TestServiceObservability:
    def serve(self, galo, requests, tracing=True):
        service = GaloService(
            galo,
            ServiceConfig(learning_enabled=False, tracing_enabled=tracing),
        )

        async def scenario():
            async with service:
                return [
                    await service.submit(sql, query_name=name) for name, sql in requests
                ]

        return run(scenario()), service

    def test_counters_gauge_and_request_span(self):
        galo = build_system()
        responses, service = self.serve(galo, WORKLOAD * 3)
        assert all(response.ok for response in responses)
        snapshot = service.metrics.snapshot()
        assert snapshot["prepared_misses"] == len(WORKLOAD)
        assert snapshot["prepared_hits"] == 2 * len(WORKLOAD)
        assert snapshot["prepared_invalidations"] == 0
        page = service.render_metrics()
        assert f"galo_prepared_entries {len(WORKLOAD)}\n" in page
        assert "# TYPE galo_prepared_hits counter" in page
        assert "# TYPE galo_prepared_entries gauge" in page
        for name in ("prepared_hits", "prepared_misses", "prepared_invalidations",
                     "prepared_entries"):
            assert name in ServiceMetrics.PROMETHEUS_HELP
        # The request timeline says whether the verdict was replayed.
        assert "prepared=miss" in service.explain_request(responses[0].request_id)
        replayed = service.explain_request(responses[-1].request_id)
        assert "prepared=hit" in replayed
        for stage in ("plan", "match", "execute", "feedback"):
            assert stage in replayed
        assert service.stage_timings.get("match").count == len(responses)

    def test_replays_are_counted(self):
        """Per serial round: the miss and the hit that keeps the outcome
        replay nothing; every later hit replays."""
        galo = build_system()
        service = GaloService(
            galo, ServiceConfig(learning_enabled=False, tracing_enabled=False)
        )

        async def scenario():
            counts = []
            async with service:
                for _ in range(4):
                    before = service.metrics.snapshot()["prepared_replays"]
                    for name, sql in WORKLOAD:
                        assert (await service.submit(sql, query_name=name)).ok
                    counts.append(service.metrics.snapshot()["prepared_replays"] - before)
            return counts

        assert run(scenario()) == [0, 0, len(WORKLOAD), len(WORKLOAD)]
        assert "prepared_replays" in ServiceMetrics.PROMETHEUS_HELP
        assert "# TYPE galo_prepared_replays counter" in service.render_metrics()

    def test_memo_outcomes_are_exported_and_move_no_memo_counter(self):
        """``/metrics`` exports the memo's outcome count and bytes; looking
        outcomes up and replaying them leaves the subtree hit/miss counters
        (the bench's ``memo_hit_ratio``) where they were."""
        galo = build_system()
        _, service = self.serve(galo, WORKLOAD * 2, tracing=False)
        memo = galo.database.workload_memo()
        stats = memo.stats()
        assert stats["outcomes"] == len(WORKLOAD)
        assert 0 < stats["outcome_bytes"] <= stats["entry_bytes"]
        page = service.render_metrics()
        assert f"galo_memo_outcomes {len(WORKLOAD)}\n" in page
        assert f"galo_memo_outcome_bytes {stats['outcome_bytes']}\n" in page
        counters = (memo.hits, memo.misses)
        _, replaying = self.serve(galo, WORKLOAD * 2, tracing=False)
        assert replaying.metrics.snapshot()["prepared_replays"] == 2 * len(WORKLOAD)
        assert (memo.hits, memo.misses) == counters

    def test_response_rows_are_built_inside_the_execute_span(self, monkeypatch):
        """Building a response's rows is part of its request: ``to_rows``
        (executed requests) and the replay's copy (replayed ones) both
        finish while that request's ``execute`` span is still open."""
        execute_spans = []
        child = Span.child

        def recording_child(self, name, start=None):
            span = child(self, name, start)
            if name == "execute":
                execute_spans.append(span)
            return span

        seen = []

        def spying(kind, method):
            def spy(*args, **kwargs):
                out = method(*args, **kwargs)
                span = execute_spans[-1]
                seen.append((kind, span.end_time is None))
                return out
            return spy

        monkeypatch.setattr(Span, "child", recording_child)
        monkeypatch.setattr(Batch, "to_rows", spying("to_rows", Batch.to_rows))
        monkeypatch.setattr(PlanOutcome, "replay", spying("replay", PlanOutcome.replay))
        galo = build_system()
        responses, _ = self.serve(galo, WORKLOAD * 3)
        assert all(response.ok for response in responses)
        assert len(execute_spans) == len(responses)
        # Miss and keeping hit execute; the third round replays.
        assert sorted(seen) == sorted(
            [("to_rows", True)] * (2 * len(WORKLOAD)) + [("replay", True)] * len(WORKLOAD)
        )

    def test_stale_entries_count_as_invalidations(self):
        galo = build_system()
        _, service = self.serve(galo, WORKLOAD, tracing=False)
        galo.database.runstats("SALES")
        # A second service on the same Galo shares the engine's lane.
        responses, second = self.serve(galo, WORKLOAD * 2, tracing=False)
        snapshot = second.metrics.snapshot()
        assert snapshot["prepared_invalidations"] == len(WORKLOAD)
        assert snapshot["prepared_misses"] == len(WORKLOAD)
        assert snapshot["prepared_hits"] == len(WORKLOAD)

    def test_replayed_responses_equal_the_computed_ones(self):
        """A statement's hit returns exactly what its miss returned."""
        galo = build_system()
        responses, _ = self.serve(galo, WORKLOAD * 2, tracing=False)
        first, second = responses[: len(WORKLOAD)], responses[len(WORKLOAD):]
        for cold, warm in zip(first, second):
            assert [tuple(r.items()) for r in cold.rows] == [
                tuple(r.items()) for r in warm.rows
            ]
            assert cold.elapsed_ms == warm.elapsed_ms
            assert cold.matched_template_ids == warm.matched_template_ids
            assert cold.steered == warm.steered


def serve_serially(galo, requests, **config):
    """Serve ``requests`` one after another on a fresh service over ``galo``
    (the prepared lane lives on the engine, so it persists across calls)."""
    config.setdefault("learning_enabled", False)
    service = GaloService(galo, ServiceConfig(**config))

    async def scenario():
        async with service:
            return [await service.submit(sql, query_name=name) for name, sql in requests]

    return run(scenario())


def count_executions(monkeypatch):
    """Count entries into ``VectorizedExecutor.execute`` from now on."""
    calls = []
    execute = VectorizedExecutor.execute

    def counting(self, *args, **kwargs):
        calls.append(1)
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(VectorizedExecutor, "execute", counting)
    return calls


def response_key(response):
    return (
        [tuple(row.items()) for row in response.rows],
        response.elapsed_ms,
        response.steered,
        list(response.matched_template_ids),
        response.max_q_error,
    )


def oracle_key(galo, response):
    """What a fresh ``steer()`` (restricted to the templates the response
    used) executed on the row engine answers for ``response``'s statement."""
    used = set(response.matched_template_ids)
    decision = galo.matching_engine.steer(
        response.sql,
        match_filter=lambda matches: [
            match for match in matches if match.template.template_id in used
        ],
    )
    database = galo.database
    result = Executor(database.catalog, database.config).execute(decision.qgm)
    return (
        [tuple(row.items()) for row in result.rows],
        result.elapsed_ms,
        decision.steered,
        decision.matched_template_ids,
        result.max_q_error(decision.qgm),
    )


def assert_responses_equal_oracle(galo, responses):
    for response in responses:
        assert response.ok, response.error
        assert response_key(response) == oracle_key(galo, response), response.query_name


def typed_items(row):
    return [(key, value, type(value)) for key, value in row.items()]


def warm_to_replay(galo):
    """Serve the workload three times: the miss, the hit that executes and
    stores its outcome, and a hit that replays it."""
    for _ in range(3):
        serve_serially(galo, WORKLOAD)


class TestExecutionReplay:
    """A hit replays the execution its entry keeps for its plan."""

    def test_the_second_hit_on_replays_without_entering_the_executor(self, monkeypatch):
        galo = build_system()
        calls = count_executions(monkeypatch)
        executed = []
        for _ in range(4):
            before = len(calls)
            responses = serve_serially(galo, WORKLOAD)
            executed.append(len(calls) - before)
            assert_responses_equal_oracle(galo, responses)
        # Miss (stores nothing), hit (executes and stores), then replays.
        assert executed == [len(WORKLOAD), len(WORKLOAD), 0, 0]
        for _, sql in WORKLOAD:
            assert len(kept_outcomes(galo, sql)) == 1

    def test_a_statement_served_once_keeps_no_outcome(self):
        galo = build_system()
        serve_serially(galo, WORKLOAD)
        assert all(not kept_outcomes(galo, sql) for _, sql in WORKLOAD)
        assert galo.database.workload_memo().stats()["outcomes"] == 0

    def test_replayed_rows_belong_to_their_response(self):
        """A replay's row list is its response's own; the rows in it are the
        outcome's, shared and read-only, so changing them raises and a later
        replay still answers the oracle."""
        galo = build_system()
        warm_to_replay(galo)
        name, sql = WORKLOAD[1]
        first, second = serve_serially(galo, [(name, sql)] * 2)
        assert first.rows and first.rows == second.rows
        assert first.rows is not second.rows
        expected = response_key(second)
        for mutate in ROW_MUTATIONS:
            with pytest.raises(TypeError):
                mutate(first.rows[0])
        assert response_key(first) == expected
        first.rows.append({"extra": 1})
        second.rows.pop()
        (third,) = serve_serially(galo, [(name, sql)])
        assert response_key(third) == expected
        assert_responses_equal_oracle(galo, [third])

    def test_replays_and_the_outcome_share_their_rows(self):
        galo = build_system()
        warm_to_replay(galo)
        name, sql = WORKLOAD[1]
        first, second = serve_serially(galo, [(name, sql)] * 2)
        (outcome,) = kept_outcomes(galo, sql)
        assert first.rows and len(first.rows) == len(outcome.rows)
        assert all(
            a is b is kept for a, b, kept in zip(first.rows, second.rows, outcome.rows)
        )
        assert all(type(row) is FrozenRow for row in outcome.rows)

    def test_the_keeping_requests_rows_are_plain_dicts(self):
        galo = build_system()
        serve_serially(galo, WORKLOAD)
        keeping = serve_serially(galo, WORKLOAD)
        assert any(response.rows for response in keeping)
        for response in keeping:
            (outcome,) = kept_outcomes(galo, response.sql)
            assert all(type(row) is dict for row in response.rows)
            assert not any(
                row is kept for row, kept in zip(response.rows, outcome.rows)
            )

    def test_the_keeping_requests_rows_belong_to_its_caller(self):
        """The hit that executes and keeps the outcome hands its rows to its
        caller; changing them must not reach what later hits replay."""
        galo = build_system()
        serve_serially(galo, WORKLOAD)
        keeping = serve_serially(galo, WORKLOAD)
        for response in keeping:
            assert len(kept_outcomes(galo, response.sql)) == 1
            if response.rows:
                response.rows[0].clear()
                response.rows.pop()
            response.rows.append({"extra": 1})
        assert_responses_equal_oracle(galo, serve_serially(galo, WORKLOAD))

    def test_replay_of_the_widest_statement_is_identical_to_the_oracle(self):
        """Rows, key order, value types, metrics and actuals of a replay
        equal the row engine's.  Every value is an immutable scalar, which is
        what makes a shared read-only row safe to hand out."""
        galo = build_system()
        database = galo.database
        row_engine = Executor(database.catalog, database.config)
        oracles = {
            sql: row_engine.execute(galo.matching_engine.steer(sql, query_name=name).qgm)
            for name, sql in WORKLOAD
        }

        def width(statement):
            rows = oracles[statement[1]].rows
            return (len(rows[0]) if rows else 0, len(rows))

        name, sql = max(WORKLOAD, key=width)
        oracle = oracles[sql]
        assert oracle.rows and len(oracle.rows[0]) >= 3
        *_, replayed = serve_serially(galo, [(name, sql)] * 3)
        (outcome,) = kept_outcomes(galo, sql)
        assert_identical(oracle, outcome.replay(), context=name)
        assert [typed_items(row) for row in replayed.rows] == [
            typed_items(row) for row in oracle.rows
        ]
        values = [value for row in replayed.rows for value in row.values()]
        assert {type(value) for value in values} <= {int, float, str, type(None)}

    def test_replays_leave_the_stored_outcome_unchanged(self, monkeypatch):
        """Learning and the guard on: feedback and the guard ledger read a
        replayed result's shared metrics and actuals, and must write nothing
        into them."""
        monkeypatch.setattr(feedback_module, "Q_ERROR_THRESHOLD", 1e9)
        galo = build_system()
        config = dict(learning_enabled=True, guard_enabled=True)
        serve_serially(galo, WORKLOAD * 2, **config)
        outcomes = [outcome for _, sql in WORKLOAD for outcome in kept_outcomes(galo, sql)]
        assert len(outcomes) == len(WORKLOAD)
        snapshot = [
            (
                copy.deepcopy(outcome.metrics),
                dict(outcome.metrics.actual_cardinalities),
                outcome.elapsed_ms,
                outcome.q_error,
            )
            for outcome in outcomes
        ]
        calls = count_executions(monkeypatch)
        responses = serve_serially(galo, WORKLOAD * 3, **config)
        assert not calls
        assert_responses_equal_oracle(galo, responses)
        assert [
            (
                outcome.metrics,
                outcome.metrics.actual_cardinalities,
                outcome.elapsed_ms,
                outcome.q_error,
            )
            for outcome in outcomes
        ] == snapshot

    def test_each_plan_keeps_its_own_outcome(self):
        """A guard probe or block changes the plan a hit runs; the memo keeps
        an outcome per plan, so the blocked statement's baseline plan keeps
        its own beside the steered one."""
        galo = build_system()
        engine = galo.matching_engine
        name, sql = next(
            (name, sql) for name, sql in WORKLOAD if engine.steer(sql).steered
        )
        warm_to_replay(galo)
        galo.quarantine_template(engine.steer_prepared(sql).matched_template_ids[0])
        responses = serve_serially(
            galo, [(name, sql)] * 3, guard_probe_interval=1_000_000
        )
        assert_responses_equal_oracle(galo, responses)
        assert not any(response.steered for response in responses)
        assert len(kept_outcomes(galo, sql)) == 2


class TestFrozenRow:
    """A kept row is a dict to every reader: equality, key order, JSON, its
    size, and a round trip through pickle or ``deepcopy``; ``dict(row)`` is
    a mutable copy."""

    @pytest.fixture(scope="class")
    def kept_rows(self):
        galo = build_system()
        warm_to_replay(galo)
        rows = [
            row
            for _, sql in WORKLOAD
            for outcome in kept_outcomes(galo, sql)
            for row in outcome.rows[:3]
        ]
        assert rows and all(type(row) is FrozenRow for row in rows)
        return rows

    def test_round_trips_through_pickle_deepcopy_and_json(self, kept_rows):
        for row in kept_rows:
            plain = dict(row)
            for again in (pickle.loads(pickle.dumps(row)), copy.deepcopy(row)):
                assert type(again) is FrozenRow and again is not row
                assert typed_items(again) == typed_items(row)
            assert json.dumps(row) == json.dumps(plain)
            assert json.loads(json.dumps(row)) == row

    def test_is_the_size_of_its_dict(self, kept_rows):
        for row in kept_rows:
            assert sys.getsizeof(row) == sys.getsizeof(dict(row))
            assert sys.getsizeof(row) == sys.getsizeof(dict(row).copy())

    def test_a_copy_is_a_mutable_dict_and_the_row_is_not(self, kept_rows):
        row = kept_rows[0]
        before = typed_items(row)
        mine = dict(row)
        mine["extra"] = 1
        mine.pop(next(iter(row)))
        for mutate in ROW_MUTATIONS:
            with pytest.raises(TypeError):
                mutate(row)
        assert typed_items(row) == before
        assert type(row.copy()) is dict and row.copy() == row


def served_key(galo, sql):
    """The plan key of the one plan ``sql``'s current entry hands out."""
    (plan,) = served_plans(galo, sql)
    return outcome_key(plan)


class TestOutcomeStaleness:
    """A data load makes the next request execute.  Every other stamp change
    re-matches each statement and executes only the plans it changed: a
    plan's outcome lives in the memo, valid for the storage epoch."""

    @staticmethod
    def hot_reload(galo, tmp_path):
        galo.save_knowledge_base(str(tmp_path))
        assert galo.maybe_reload_knowledge_base(str(tmp_path), force=True)

    EVENTS = {
        "load_rows": lambda galo, _: reinsert_sales(galo.database, count=40),
        "runstats": lambda galo, _: galo.database.runstats("SALES"),
        "kb_mutation": lambda galo, _: galo.knowledge_base.update_template(
            galo.knowledge_base.all_templates()[0].template_id, improvement=0.5
        ),
        "enforce_kb_capacity": lambda galo, _: galo.enforce_kb_capacity(
            len(galo.knowledge_base) - 2
        ),
        "hot_reload": lambda galo, tmp_path: TestOutcomeStaleness.hot_reload(
            galo, tmp_path
        ),
    }

    @pytest.mark.parametrize("event", sorted(EVENTS))
    def test_the_next_request_executes_only_a_changed_plan(
        self, event, monkeypatch, tmp_path
    ):
        galo = build_system()
        warm_to_replay(galo)
        replayed = serve_serially(galo, WORKLOAD)
        kept = {sql: served_key(galo, sql) for _, sql in WORKLOAD}
        self.EVENTS[event](galo, tmp_path)
        assert all(current_entry(galo, sql) is None for _, sql in WORKLOAD)
        calls = count_executions(monkeypatch)
        responses = serve_serially(galo, WORKLOAD)
        assert_responses_equal_oracle(galo, responses)
        if event == "load_rows":
            executed = len(WORKLOAD)
            # The reinserted sales rows are counted and summed (the oracle
            # reads the new data too; this shows the data moved at all).
            assert any(
                after.rows != before.rows for before, after in zip(replayed, responses)
            )
        else:
            executed = sum(served_key(galo, sql) != kept[sql] for _, sql in WORKLOAD)
            assert executed < len(WORKLOAD)
        assert len(calls) == executed
        # The lane settles again: each statement kept its plan's outcome on
        # the request above (it was served before), so everything replays.
        assert_responses_equal_oracle(galo, serve_serially(galo, WORKLOAD))
        assert len(calls) == executed


class TestLoadRacingOutcomeStore:
    """The named interleaving "load racing an outcome store": an execution
    pinned before ``Database.load_rows`` stores its outcome after the memo's
    reset.  The outcome lands in the orphaned snapshot the execution was
    pinned to, so the next request executes against the new data instead of
    replaying the old rows."""

    def test_an_outcome_stored_after_the_reset_is_never_replayed(self, monkeypatch):
        galo = build_system()
        database = galo.database
        name, sql = WORKLOAD[0]
        serve_serially(galo, [(name, sql)])
        assert not kept_outcomes(galo, sql)
        execute_plan = database.execute_plan
        loaded = []

        def execute_then_load(*args, **kwargs):
            result = execute_plan(*args, **kwargs)
            if not loaded:
                loaded.append(database.storage_epoch)
                reinsert_sales(database, count=40)
                database.workload_memo()  # the reset, before the store
            return result

        monkeypatch.setattr(database, "execute_plan", execute_then_load)
        (hit,) = serve_serially(galo, [(name, sql)])
        monkeypatch.undo()
        assert hit.ok and loaded and database.storage_epoch > loaded[0]
        assert database.workload_memo().stats()["outcomes"] == 0
        calls = count_executions(monkeypatch)
        again = serve_serially(galo, [(name, sql)] * 3)
        # The stale request executes and keeps its outcome; the hits replay.
        assert len(calls) == 1
        assert_responses_equal_oracle(galo, again)


class TestOnlineLoop:
    """The learner adds templates while statements are served: a KB change
    re-matches every statement, and a plan it leaves unchanged replays."""

    def test_a_learned_template_reexecutes_only_the_plan_it_changed(self, monkeypatch):
        galo = build_system(seed=0)
        service = GaloService(
            galo, ServiceConfig(learning_enabled=False)
        )
        calls = count_executions(monkeypatch)

        def serve_round():
            before = service.metrics.snapshot()
            executed = len(calls)
            responses = [service._serve_sync(sql, name)[0] for name, sql in WORKLOAD]
            after = service.metrics.snapshot()
            return responses, len(calls) - executed, {
                counter: after[counter] - before[counter]
                for counter in ("prepared_replays", "prepared_invalidations")
            }

        for _ in range(3):
            serve_round()
        templates = len(galo.knowledge_base)
        name, sql = WORKLOAD[0]
        assert name == "q_join2"
        galo.learn_query(sql, query_name=name)
        assert len(galo.knowledge_base) > templates
        # Every entry is stale; 4 of the 5 re-matched plans are unchanged.
        responses, executed, counters = serve_round()
        assert counters == {
            "prepared_replays": len(WORKLOAD) - 1,
            "prepared_invalidations": len(WORKLOAD),
        }
        assert executed == 1
        assert_responses_equal_oracle(galo, responses)
        responses, executed, counters = serve_round()
        assert counters == {"prepared_replays": len(WORKLOAD), "prepared_invalidations": 0}
        assert executed == 0
        assert_responses_equal_oracle(galo, responses)
        assert assert_lane_equals_oracle(galo) == ALL_HITS


class TestOutcomeKeys:
    """A plan's outcome key is its join tree's key extended by the plan top."""

    PAIRS = {
        "select_list": (
            "SELECT i_category FROM sales, item "
            "WHERE s_item_sk = i_item_sk AND i_category = 'Music'",
            "SELECT i_class FROM sales, item "
            "WHERE s_item_sk = i_item_sk AND i_category = 'Music'",
        ),
        "aggregates": (
            "SELECT i_category, COUNT(*) FROM sales, item "
            "WHERE s_item_sk = i_item_sk GROUP BY i_category",
            "SELECT i_category, SUM(s_price) FROM sales, item "
            "WHERE s_item_sk = i_item_sk GROUP BY i_category",
        ),
    }

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_one_join_tree_under_another_top_shares_no_outcome(self, pair, monkeypatch):
        galo = build_system()
        database = galo.database
        first, second = self.PAIRS[pair]
        plans = [database.explain(sql) for sql in (first, second)]
        assert subtree_key(join_tree_root(plans[0])) == subtree_key(join_tree_root(plans[1]))
        assert outcome_key(plans[0]) != outcome_key(plans[1])
        requests = [(pair, first)] * 3 + [(pair, second)] * 3
        calls = count_executions(monkeypatch)
        responses = serve_serially(galo, requests)
        assert_responses_equal_oracle(galo, responses)
        # Each statement: miss, hit that keeps, replay -- nothing shared.
        assert len(calls) == 4
        assert database.workload_memo().stats()["outcomes"] == 2
        assert responses[2].rows != responses[5].rows

    def test_a_replay_after_runstats_reports_the_new_estimates_q_error(self, monkeypatch):
        """Rows inserted without RUNSTATS (the storage epoch moves, the
        statistics do not), a statement served until it replays, then
        RUNSTATS: the statement is re-planned with new estimates to a plan
        of the same structure, which replays the kept outcome, and its
        ``max_q_error`` is a fresh execution's against the new plan."""
        galo = build_system()
        database = galo.database
        data = database.catalog.table_data("SALES")
        data.insert_rows(list(data.rows(range(300))))
        database.invalidate_plan_cache()
        name, sql = WORKLOAD[0]
        *_, kept = serve_serially(galo, [(name, sql)] * 3)
        key = served_key(galo, sql)
        database.runstats("SALES")
        calls = count_executions(monkeypatch)
        (replayed,) = serve_serially(galo, [(name, sql)])
        assert not calls and served_key(galo, sql) == key
        steered = galo.matching_engine.steer(sql, query_name=name).qgm
        fresh = database.execute_plan(steered).max_q_error(steered)
        assert replayed.max_q_error == fresh != kept.max_q_error
        assert_responses_equal_oracle(galo, [replayed])


class TestOutcomeByteBound:
    """Outcomes are charged against the memo's ``max_bytes``."""

    STATEMENTS = [
        (f"all_sales_by_{column}", f"SELECT * FROM sales WHERE {column} >= 0")
        for column in ("s_item_sk", "s_date_sk", "s_quantity")
    ]

    def test_outcomes_stay_inside_the_byte_budget(self, monkeypatch):
        galo = build_system()
        memo = galo.database.workload_memo()
        first = self.STATEMENTS[0]
        serve_serially(galo, [first] * 2)
        size = memo.stats()["outcome_bytes"]
        assert size > 100_000
        # Room for one of these outcomes (and the subtree entries), not two.
        memo.max_bytes = size * 3 // 2
        memo.reset(memo.epoch)
        galo.matching_engine.prepared.clear()
        calls = count_executions(monkeypatch)
        service = GaloService(galo, ServiceConfig(learning_enabled=False))
        responses = []
        for statement in self.STATEMENTS * 3:
            response, _ = service._serve_sync(statement[1], statement[0])
            responses.append(response)
            stats = memo.stats()
            assert stats["outcome_bytes"] <= stats["entry_bytes"] <= memo.max_bytes
            assert stats["outcomes"] <= 1
        assert memo.stats()["byte_evictions"] > 0
        # Misses, then hits that each keep an outcome and evict the one
        # before, then hits whose outcome was evicted: every request
        # executed, and still equals the row engine's answer.
        assert len(calls) == len(responses)
        assert service.metrics.snapshot()["prepared_replays"] == 0
        assert_responses_equal_oracle(galo, responses)
