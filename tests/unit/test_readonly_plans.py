"""Plans are read-only once planned.

The plan cache, the prepared-statement lane and every execution share
one planned ``Qgm``; nothing copies it.  That is only sound if nothing that
consumes a plan writes into it: executing it (cold, through memo hits, or
stopped by a budget), steering through it, judging its outcome.  Each test
takes :func:`plan_snapshot` of a plan before and after and requires the two
equal.
"""

import pytest

from repro.engine.executor.executor import Executor
from repro.engine.executor.memo import ExecutionMemo
from repro.engine.executor.vectorized import VectorizedExecutor
from repro.errors import PlanBudgetExceeded
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
