"""Exp-4 / Figure 12: routinization -- matching cost vs workload size and KB size.

Paper reference points: 99 TPC-DS queries against 98 learned patterns in ~41 s,
116 client queries against 178 patterns in ~73 s, 1,000 patterns against 100
queries in under 15 minutes; scaling roughly linear on both axes.
"""

from __future__ import annotations

import pytest

from repro.experiments.exp4_routinization import _inflate_knowledge_base
from repro.experiments.harness import bench_tiny_mode


@pytest.fixture(scope="module")
def planned_queries(tpcds_bundle):
    database = tpcds_bundle.workload.database
    return [
        database.explain(sql, query_name=name)
        for name, sql in tpcds_bundle.workload.queries[:12]
    ]


def matched_template_ids(engine, plans):
    return [
        match.template.template_id
        for qgm in plans
        for match in engine.match_plan(qgm)[0]
    ]


@pytest.mark.parametrize("kb_size", [20, 60, 120])
def test_fig12_matching_vs_knowledge_base_size(benchmark, tpcds_bundle, planned_queries, kb_size):
    """Total matching time for a fixed workload as the knowledge base grows.

    The stress clones match nothing by construction, so whatever the workload
    matches on the inflated KB is a learned template -- and it must be every
    one the learned KB itself matches, or the figure times a KB in which
    nothing can match.
    """
    base_kb = tpcds_bundle.galo.knowledge_base
    inflated = _inflate_knowledge_base(
        base_kb, kb_size, tpcds_bundle.workload.database.catalog
    )
    engine = tpcds_bundle.galo.matching_engine
    original_kb = engine.knowledge_base
    matched_on_base = matched_template_ids(engine, planned_queries)
    engine.knowledge_base = inflated
    try:
        def match_workload():
            total = 0.0
            for qgm in planned_queries:
                _, elapsed_ms = engine.match_plan(qgm)
                total += elapsed_ms
            return total

        total_ms = benchmark.pedantic(match_workload, rounds=1, iterations=1)
        matched = matched_template_ids(engine, planned_queries)
    finally:
        engine.knowledge_base = original_kb
    assert matched == matched_on_base
    # The tiny config's four templates match none of its eight queries.
    if not bench_tiny_mode():
        assert matched, "no learned template matched: Fig. 12 would time an inert KB"
    benchmark.extra_info["matched_segments"] = len(matched)
    benchmark.extra_info["kb_templates"] = len(inflated)
    benchmark.extra_info["workload_queries"] = len(planned_queries)
    benchmark.extra_info["total_match_ms"] = round(total_ms, 1)
    benchmark.extra_info["paper_point"] = "99 queries x 98 patterns in ~41 s"


@pytest.mark.parametrize("query_count", [4, 8, 12])
def test_fig12_matching_vs_workload_size(benchmark, tpcds_bundle, planned_queries, query_count):
    """Total matching time against the learned KB as the workload grows."""
    engine = tpcds_bundle.galo.matching_engine
    subset = planned_queries[:query_count]

    def match_subset():
        for qgm in subset:
            engine.match_plan(qgm)

    benchmark.pedantic(match_subset, rounds=1, iterations=1)
    benchmark.extra_info["workload_queries"] = query_count
    benchmark.extra_info["kb_templates"] = len(tpcds_bundle.galo.knowledge_base)
