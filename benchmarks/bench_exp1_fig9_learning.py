"""Exp-1 / Figure 9: offline learning scalability and effectiveness.

Regenerates the two series of Figure 9 (average analysis time per query and
per sub-query as the join-number threshold grows) and the Exp-1 effectiveness
numbers (templates learned, average rewrite improvement).  Paper reference
points: 98 templates at 37 % average improvement on TPC-DS, per-query time
growing super-linearly in the threshold, per-sub-query time growing linearly.

Also measures the learning-tier engine speedup: the vectorized batch executor
with shared-subplan memoization against the legacy row-at-a-time engine, with
both required to learn the exact same templates.
"""

from __future__ import annotations

import time

import pytest

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase
from repro.experiments.harness import bench_tiny_mode, build_bundle


@pytest.mark.parametrize("join_threshold", [1, 2, 3])
def test_fig9_learning_time_vs_join_threshold(benchmark, tpcds_bundle, settings, join_threshold):
    """Average per-query analysis time at a given join-number threshold."""
    queries = tpcds_bundle.workload.queries[:4]
    config = settings.learning_config()
    config.max_joins = join_threshold

    def learn_once():
        galo = Galo(
            tpcds_bundle.workload.database,
            knowledge_base=KnowledgeBase(),
            learning_config=config,
        )
        return galo.learn(queries, workload_name=f"fig9-{join_threshold}")

    report = benchmark.pedantic(learn_once, rounds=1, iterations=1)
    benchmark.extra_info["join_threshold"] = join_threshold
    benchmark.extra_info["avg_seconds_per_query"] = report.average_seconds_per_query
    benchmark.extra_info["avg_seconds_per_subquery"] = report.average_seconds_per_subquery
    benchmark.extra_info["templates_learned"] = report.template_count
    assert report.average_seconds_per_query >= report.average_seconds_per_subquery


def test_exp1_vectorized_engine_speedup(benchmark, settings):
    """Learning throughput: vectorized + memoized engine vs the row engine.

    The acceptance bar is >= 3x at the default bench configuration; in CI
    smoke mode (``GALO_BENCH_TINY=1``) the scale is too small for the ratio
    to be meaningful, so only engine agreement is asserted there.
    """
    bundle = build_bundle("tpcds", settings)
    database = bundle.workload.database
    queries = bundle.workload.queries[: max(2, settings.learning_query_count // 2)]
    config = settings.learning_config()

    def learn_with(engine):
        database.set_executor(engine)
        galo = Galo(
            database, knowledge_base=KnowledgeBase(), learning_config=config
        )
        started = time.perf_counter()
        report = galo.learn(queries, workload_name=f"engine-{engine}")
        return time.perf_counter() - started, report

    measured = {}

    def vectorized_learn():
        seconds, report = learn_with("vectorized")
        measured["seconds"] = seconds
        measured["report"] = report
        return report

    # The vectorized run goes first: any process/database warm-up it pays for
    # (sorted index keys, allocator, imports) then benefits the row baseline,
    # biasing the measured ratio *against* the 3x bar, never for it.
    report = benchmark.pedantic(vectorized_learn, rounds=1, iterations=1)
    row_seconds, row_report = learn_with("row")
    speedup = row_seconds / max(measured["seconds"], 1e-9)
    benchmark.extra_info["row_seconds"] = row_seconds
    benchmark.extra_info["vectorized_seconds"] = measured["seconds"]
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["templates_learned"] = report.template_count
    benchmark.extra_info["tiny_mode"] = bench_tiny_mode()
    # Identical learning outcome is non-negotiable regardless of speed.
    assert report.template_count == row_report.template_count
    assert sorted(
        value for record in report.records for value in record.improvements
    ) == pytest.approx(
        sorted(value for record in row_report.records for value in record.improvements)
    )
    if not bench_tiny_mode():
        assert speedup >= 3.0, f"vectorized engine only {speedup:.2f}x faster"


def test_exp1_workload_memo_speedup(benchmark, settings):
    """Steady-state learning throughput with the workload-scoped memo.

    The workload memo's regime is *recurring* evaluation: the serving tier
    keeps re-learning statements that repeat, and a sweep whose sub-plans the
    memo has already seen replays their cold charges instead of recomputing
    them.  This benchmark learns the same workload twice with the
    workload-scoped memo (cold sweep then warm sweep, the measured one) and
    compares against memo-off; both must learn the exact same templates with
    the exact same improvements.  Acceptance bar: the warm sweep is >= 1.5x
    faster than the memo-off sweep (skipped in tiny mode where the scale is
    too small for ratios to mean anything).
    """
    bundle = build_bundle("tpcds", settings)
    database = bundle.workload.database
    queries = bundle.workload.queries[: max(2, settings.learning_query_count // 2)]

    def learn_with(use_memo, name):
        config = settings.learning_config()
        config.use_workload_memo = use_memo
        galo = Galo(database, knowledge_base=KnowledgeBase(), learning_config=config)
        started = time.perf_counter()
        report = galo.learn(queries, workload_name=name)
        return time.perf_counter() - started, report

    def outcome(report):
        return (
            report.template_count,
            sorted(
                round(value, 12)
                for record in report.records
                for value in record.improvements
            ),
        )

    # Cold sweep first (fresh database => genuinely cold memo); the warm
    # sweep is the benchmarked one.  The baseline runs last, so any process
    # warm-up it benefits from biases the ratio *against* the memo.
    cold_seconds, cold_report = learn_with(True, "memo-cold")
    measured = {}

    def warm_learn():
        seconds, report = learn_with(True, "memo-warm")
        measured["seconds"] = seconds
        return report

    warm_report = benchmark.pedantic(warm_learn, rounds=1, iterations=1)
    off_seconds, off_report = learn_with(False, "memo-off")

    assert (
        outcome(cold_report) == outcome(warm_report) == outcome(off_report)
    ), "memo on and off must learn bit-identical outcomes"

    warm_seconds = measured["seconds"]
    speedup_vs_off = off_seconds / max(warm_seconds, 1e-9)
    benchmark.extra_info["cold_sweep_seconds"] = cold_seconds
    benchmark.extra_info["warm_sweep_seconds"] = warm_seconds
    benchmark.extra_info["memo_off_seconds"] = off_seconds
    benchmark.extra_info["warm_speedup_vs_memo_off"] = speedup_vs_off
    benchmark.extra_info["memo_stats"] = dict(database.workload_memo().stats())
    benchmark.extra_info["templates_learned"] = warm_report.template_count
    benchmark.extra_info["tiny_mode"] = bench_tiny_mode()
    if not bench_tiny_mode():
        assert speedup_vs_off >= 1.5, (
            f"workload memo warm sweep only {speedup_vs_off:.2f}x memo-off"
        )


def test_exp1_effectiveness_templates_and_improvement(benchmark, tpcds_bundle):
    """Exp-1 effectiveness: templates learned and their average improvement."""
    report = tpcds_bundle.learning_report

    def summarize():
        return (report.template_count, report.average_improvement)

    count, improvement = benchmark(summarize)
    benchmark.extra_info["templates_learned"] = count
    benchmark.extra_info["average_improvement"] = improvement
    benchmark.extra_info["paper_tpcds_templates"] = 98
    benchmark.extra_info["paper_tpcds_avg_improvement"] = 0.37
    assert count > 0
    assert improvement > 0.15
