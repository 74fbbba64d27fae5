"""Plans are read-only once planned.

The plan cache, the prepared-statement lane and every serving thread share
one planned ``Qgm``; nothing copies it.  That is only sound if nothing that
consumes a plan writes into it: executing it (cold, through memo hits, or
stopped by a budget), steering through it, judging its outcome.  Each test
takes :func:`plan_snapshot` of a plan before and after and requires the two
equal.  The shared-master test runs one plan on two threads at once, and the
shared-outcome tests have one thread store a plan's outcome in the execution
memo while another replays it, and two threads change the rows they replayed
while the other replays.
"""

import sys
import threading

import pytest

from repro.engine.executor.executor import Executor
from repro.engine.executor.memo import ExecutionMemo
from repro.engine.executor.vectorized import VectorizedExecutor, plan_key
from repro.errors import PlanBudgetExceeded
from repro.service import GaloService, ServiceConfig
from repro.service.feedback import feedback, statement_key
from repro.service.guard import SteeringGuard
from repro.service.metrics import ServiceMetrics
from tests.prepared_support import WORKLOAD, build_system, plan_snapshot


@pytest.fixture(scope="module")
def system():
    return build_system()


def candidate_plans(database):
    """Every workload statement's plan plus its random alternatives (some
    with bloom-filter hash joins, which the budget reads)."""
    plans = []
    for name, sql in WORKLOAD:
        plans.append(database.explain(sql, query_name=name))
        plans.extend(database.random_plans(sql, 4, query_name=name))
    assert any(
        node.properties.get("bloom_filter") for plan in plans for node in plan.nodes()
    )
    return plans


def engines(database):
    return (
        Executor(database.catalog, database.config),
        VectorizedExecutor(database.catalog, database.config),
    )


def ordered(rows):
    return [tuple(row.items()) for row in rows]


class TestExecutionLeavesPlansAlone:
    def test_cold(self, system):
        database = system.database
        for plan in candidate_plans(database):
            before = plan_snapshot(plan)
            for engine in engines(database):
                result = engine.execute(plan)
                result.rows
                assert sorted(result.actual_cardinalities) == sorted(
                    node.operator_id for node in plan.nodes()
                )
            assert plan_snapshot(plan) == before

    def test_memo_hit(self, system):
        database = system.database
        memo = ExecutionMemo()
        engine = VectorizedExecutor(database.catalog, database.config)
        plans = candidate_plans(database)
        for plan in plans:
            engine.execute(plan, memo=memo)
        hits = memo.hits
        for plan in plans:
            before = plan_snapshot(plan)
            replayed = engine.execute(plan, memo=memo)
            replayed.rows
            assert plan_snapshot(plan) == before
            assert replayed.actual_cardinalities == engine.execute(plan).actual_cardinalities
        assert memo.hits > hits

    def test_budget_abort(self, system):
        database = system.database
        memo = ExecutionMemo()
        aborted = 0
        for plan in candidate_plans(database):
            before = plan_snapshot(plan)
            for engine in engines(database):
                elapsed_ms = engine.execute(plan).elapsed_ms
                if elapsed_ms <= 0:
                    continue
                with pytest.raises(PlanBudgetExceeded):
                    engine.execute(plan, memo=memo, budget_ms=elapsed_ms / 2)
                aborted += 1
                # A budget as high as the plan's time lets it finish.
                assert engine.execute(plan, memo=memo, budget_ms=elapsed_ms).elapsed_ms == (
                    elapsed_ms
                )
            assert plan_snapshot(plan) == before
        assert aborted


class TestServingLeavesPlansAlone:
    def test_steer_prepared_miss_and_hit(self):
        galo = build_system()
        engine = galo.matching_engine
        database = galo.database
        memo = database.workload_memo()
        for name, sql in WORKLOAD:
            baseline = database.explain(sql, query_name=name)
            before = plan_snapshot(baseline)
            miss = engine.steer_prepared(sql, query_name=name)
            assert miss.prepared == "miss"
            assert miss.baseline_qgm.root is baseline.root
            steered_before = plan_snapshot(miss.qgm)
            for _ in range(2):
                hit = engine.steer_prepared(sql, query_name=name)
                assert hit.prepared == "hit"
                assert hit.qgm.root is miss.qgm.root
                database.execute_plan(hit.qgm, memo=memo).rows
                database.execute_plan(hit.baseline_qgm, memo=memo).rows
            assert plan_snapshot(baseline) == before
            assert plan_snapshot(miss.qgm) == steered_before

    def test_feedback_and_guard(self):
        galo = build_system()
        database = galo.database
        knowledge_base = galo.knowledge_base
        guard = SteeringGuard(metrics=ServiceMetrics())
        for name, sql in WORKLOAD:
            decision = galo.matching_engine.steer_prepared(sql, query_name=name)
            plans = (decision.qgm, decision.baseline_qgm)
            before = [plan_snapshot(plan) for plan in plans]
            result = database.execute_plan(decision.qgm)
            record = guard.ledger.observe(statement_key(sql), create=True)
            feedback(
                record, sql=sql, query_name=name, elapsed_ms=result.elapsed_ms,
                max_q_error=result.max_q_error(decision.qgm),
                steered=decision.steered, regression_threshold=1.5,
            )
            guard.screen(knowledge_base, decision.matches)
            guard.judge(
                knowledge_base, record, elapsed_ms=result.elapsed_ms,
                steered=decision.steered, template_ids=decision.matched_template_ids,
            )
            assert [plan_snapshot(plan) for plan in plans] == before


class TestSharedMaster:
    ROUNDS = 200

    def test_two_threads_run_one_prepared_master(self):
        """Both threads execute the same prepared master (each through its
        own renamed view) at once, with a thread switch possible between
        almost any two bytecodes.  Every other round re-plans, so half the
        rounds race on deriving the master's memo keys and half replay what
        an earlier round derived; the shared memo races too.  Each thread's
        rows, ``elapsed_ms`` and actuals must be the uncached oracle's:
        ``steer()`` planned, the row executor run."""
        galo = build_system()
        engine = galo.matching_engine
        database = galo.database
        row_engine = Executor(database.catalog, database.config)
        expected = {}
        for name, sql in WORKLOAD:
            result = row_engine.execute(engine.steer(sql, query_name=name).qgm)
            expected[sql] = (
                ordered(result.rows), result.elapsed_ms, result.actual_cardinalities
            )
        failures = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_number in range(self.ROUNDS):
                name, sql = WORKLOAD[round_number % len(WORKLOAD)]
                if round_number % 2 == 0:
                    engine.prepared.clear()
                    database.invalidate_plan_cache(stats_only=True)
                master = engine.steer_prepared(sql, query_name=name).qgm
                memo = database.workload_memo()
                barrier = threading.Barrier(2)
                outcomes = [None, None]

                def serve(slot, _master=master, _memo=memo, _barrier=barrier,
                          _outcomes=outcomes):
                    view = _master.renamed(f"thread-{slot}")
                    _barrier.wait()
                    result = database.execute_plan(view, memo=_memo)
                    _outcomes[slot] = (
                        ordered(result.rows),
                        result.elapsed_ms,
                        result.actual_cardinalities,
                    )

                threads = [threading.Thread(target=serve, args=(slot,)) for slot in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                if outcomes != [expected[sql], expected[sql]]:
                    failures.append(f"round {round_number} ({name})")
        finally:
            sys.setswitchinterval(switch_interval)
        assert not failures, failures[:5]


class TestSharedOutcome:
    ROUNDS = 100
    REQUESTS = 3

    def test_one_thread_stores_an_outcome_while_another_replays_it(self):
        """Two serving threads send one statement ``REQUESTS`` times each, at
        once, right after its miss: the first hits race to execute and store
        the plan's outcome in the memo while later hits replay it, with a
        thread switch possible between almost any two bytecodes.  Every
        response must be the uncached oracle's (``steer()`` planned, the row
        executor run), and the memo must end up holding exactly one
        outcome."""
        galo = build_system()
        engine = galo.matching_engine
        database = galo.database
        row_engine = Executor(database.catalog, database.config)
        expected = {}
        for name, sql in WORKLOAD:
            decision = engine.steer(sql, query_name=name)
            result = row_engine.execute(decision.qgm)
            expected[sql] = (
                ordered(result.rows), result.elapsed_ms, result.max_q_error(decision.qgm)
            )
        service = GaloService(
            galo, ServiceConfig(learning_enabled=False, guard_enabled=False)
        )
        failures = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_number in range(self.ROUNDS):
                name, sql = WORKLOAD[round_number % len(WORKLOAD)]
                engine.prepared.clear()
                memo = database.workload_memo()
                memo.reset(memo.epoch)
                service._serve_sync(sql, name)
                barrier = threading.Barrier(2)
                served = [[], []]

                def serve(slot, _barrier=barrier, _served=served, _sql=sql, _name=name):
                    _barrier.wait()
                    for _ in range(self.REQUESTS):
                        response, _ = service._serve_sync(_sql, _name)
                        _served[slot].append(
                            (ordered(response.rows), response.elapsed_ms,
                             response.max_q_error)
                        )

                threads = [threading.Thread(target=serve, args=(slot,)) for slot in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                outcomes = memo.stats()["outcomes"]
                if served != [[expected[sql]] * self.REQUESTS] * 2 or outcomes != 1:
                    failures.append(f"round {round_number} ({name})")
        finally:
            sys.setswitchinterval(switch_interval)
        assert not failures, failures[:5]

    def test_two_threads_change_their_replayed_rows_while_the_other_replays(self):
        """Two threads replay one outcome the memo keeps ``REQUESTS`` times
        each, at once; after checking its rows against the oracle's, each
        thread clears, appends to and pops from them, with a thread switch
        possible between almost any two bytecodes.  Neither thread's changes
        may reach the other's rows or the outcome."""
        galo = build_system()
        engine = galo.matching_engine
        database = galo.database
        row_engine = Executor(database.catalog, database.config)
        service = GaloService(
            galo, ServiceConfig(learning_enabled=False, guard_enabled=False)
        )
        outcomes = {}
        for name, sql in WORKLOAD:
            expected = ordered(row_engine.execute(engine.steer(sql, query_name=name).qgm).rows)
            for _ in range(2):
                service._serve_sync(sql, name)
            served = engine.steer_prepared(sql, query_name=name).qgm
            outcome = database.workload_memo().peek(plan_key(served))
            assert outcome is not None
            outcomes[name] = (outcome, expected)
        failures = []
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_number in range(self.ROUNDS):
                name, _ = WORKLOAD[round_number % len(WORKLOAD)]
                outcome, expected = outcomes[name]
                barrier = threading.Barrier(2)
                seen = [[], []]

                def replay(slot, _barrier=barrier, _seen=seen, _outcome=outcome):
                    _barrier.wait()
                    for _ in range(self.REQUESTS):
                        rows = _outcome.replay().rows
                        _seen[slot].append(ordered(rows))
                        if rows:
                            rows[0].clear()
                            rows.pop()
                        rows.append({"extra": slot})

                threads = [threading.Thread(target=replay, args=(slot,)) for slot in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                if seen != [[expected] * self.REQUESTS] * 2 or ordered(outcome.rows) != expected:
                    failures.append(f"round {round_number} ({name})")
        finally:
            sys.setswitchinterval(switch_interval)
        assert not failures, failures[:5]
