"""Exp-3 / Figure 11: matching time as a function of the number of joined tables.

Paper reference points: ~4.3 ms per rewrite at join-number 15 and ~34 ms at 32,
growing roughly linearly and staying marginal relative to query runtimes.

Besides the paper's join-count buckets, this module sweeps the scaling axis
the indexed matching subsystem adds: **knowledge-base size** -- indexed vs
brute-force matching throughput as the template count grows (the index must
keep matching sublinear in KB size).
"""

from __future__ import annotations

import time
from collections import defaultdict

import pytest

from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.engine import MatchingConfig, MatchingEngine
from repro.core.matching.segmenter import segment_plan


@pytest.fixture(scope="module")
def plans_by_join_count(tpcds_bundle):
    buckets = defaultdict(list)
    for name, sql in tpcds_bundle.workload.queries:
        qgm = tpcds_bundle.workload.database.explain(sql, query_name=name)
        buckets[qgm.join_count].append(qgm)
    return dict(sorted(buckets.items()))


def test_fig11_matching_time_by_join_bucket(benchmark, tpcds_bundle, plans_by_join_count):
    """Average knowledge-base matching time per query, bucketed by join count."""
    engine = tpcds_bundle.galo.matching_engine

    def match_everything():
        timings = {}
        for join_count, plans in plans_by_join_count.items():
            total = 0.0
            for qgm in plans:
                _, elapsed_ms = engine.match_plan(qgm)
                total += elapsed_ms
            timings[join_count] = total / len(plans)
        return timings

    timings = benchmark.pedantic(match_everything, rounds=1, iterations=1)
    benchmark.extra_info["avg_match_ms_by_join_count"] = {
        str(k): round(v, 2) for k, v in timings.items()
    }
    benchmark.extra_info["knowledge_base_templates"] = len(tpcds_bundle.galo.knowledge_base)
    benchmark.extra_info["paper_points"] = "4.3 ms @ 15 joins, 34 ms @ 32 joins"
    assert all(value >= 0 for value in timings.values())


@pytest.mark.parametrize("bucket_index", [0, -1])
def test_fig11_single_bucket_match(benchmark, tpcds_bundle, plans_by_join_count, bucket_index):
    """Matching cost for the smallest and largest join-count buckets."""
    join_counts = list(plans_by_join_count)
    join_count = join_counts[bucket_index]
    qgm = plans_by_join_count[join_count][0]
    engine = tpcds_bundle.galo.matching_engine

    benchmark(lambda: engine.match_plan(qgm))
    benchmark.extra_info["join_count"] = join_count


# ---------------------------------------------------------------------------
# KB size sweep (indexed matching subsystem)
# ---------------------------------------------------------------------------

MAX_JOINS = 3


def _synthetic_knowledge_base(database, queries, template_count) -> KnowledgeBase:
    """Grow a KB to ``template_count`` templates from random-plan segments.

    Random plans supply the structural variety a long-lived knowledge base
    accumulates: different join orders, join methods and access paths over the
    same schema, all plausible match candidates for the workload's queries.
    """
    kb = KnowledgeBase()
    generator = database.random_plan_generator
    saved_seed = generator.seed
    round_number = 0
    try:
        while len(kb) < template_count:
            round_number += 1
            for name, sql in queries:
                generator.seed = saved_seed + round_number
                plans = database.random_plans(sql, 2, query_name=name)
                for qgm in plans:
                    for segment in segment_plan(qgm, MAX_JOINS):
                        if len(kb) >= template_count:
                            return kb
                        abstract_template_from_plan(
                            kb,
                            segment,
                            name=f"bench-{len(kb)}",
                            source_workload="bench",
                            source_query=name,
                            improvement=0.1 + (len(kb) % 9) / 10.0,
                            catalog=database.catalog,
                        )
    finally:
        generator.seed = saved_seed
    return kb


@pytest.fixture(scope="module")
def sweep_workload(tpcds_bundle):
    """A slice of the TPC-DS workload plus its pre-explained plans."""
    database = tpcds_bundle.workload.database
    queries = tpcds_bundle.workload.queries[:12]
    plans = [database.explain(sql, query_name=name) for name, sql in queries]
    return database, queries, plans


@pytest.mark.parametrize("kb_size", [25, 100, 200])
def test_fig11_kb_size_sweep_indexed_vs_brute(benchmark, sweep_workload, kb_size):
    """Match throughput as the knowledge base grows: index vs full scan.

    The acceptance bar for the indexed path is a >= 2x throughput advantage
    once the KB holds 100+ templates (the regime the paper's Experiment 3
    cares about); correctness is asserted by comparing the matched template
    ids of both paths on every plan.
    """
    database, _, plans = sweep_workload
    kb = _synthetic_knowledge_base(database, sweep_workload[1], kb_size)
    indexed_engine = MatchingEngine(database, kb, MatchingConfig(max_joins=MAX_JOINS))
    brute_engine = MatchingEngine(
        database, kb, MatchingConfig(max_joins=MAX_JOINS, use_index=False)
    )

    def match_all(engine):
        return [engine.match_plan(qgm) for qgm in plans]

    indexed_results = benchmark.pedantic(
        lambda: match_all(indexed_engine), rounds=3, iterations=1, warmup_rounds=1
    )
    started = time.perf_counter()
    brute_results = match_all(brute_engine)
    brute_seconds = time.perf_counter() - started

    for (indexed, _), (brute, _) in zip(indexed_results, brute_results):
        assert [m.template.template_id for m in indexed] == [
            m.template.template_id for m in brute
        ]

    indexed_seconds = benchmark.stats.stats.mean
    speedup = brute_seconds / indexed_seconds if indexed_seconds > 0 else float("inf")
    benchmark.extra_info["kb_templates"] = len(kb)
    benchmark.extra_info["queries_matched"] = len(plans)
    benchmark.extra_info["brute_force_seconds"] = round(brute_seconds, 4)
    benchmark.extra_info["indexed_seconds"] = round(indexed_seconds, 4)
    benchmark.extra_info["speedup_vs_brute_force"] = round(speedup, 2)
    benchmark.extra_info["match_stats"] = dict(kb.match_stats)
    if kb_size >= 100:
        assert speedup >= 2.0, (
            f"indexed matching should be >= 2x brute force at {kb_size} templates, "
            f"got {speedup:.2f}x"
        )
