"""Exp-2 / Figure 10: matching performance improvement and cross-workload reuse.

The paper reports:

* re-optimized plans improve matched TPC-DS queries by 49 % on average and
  matched client queries by 40 %; 19 of 99 TPC-DS queries and 24 of 116 client
  queries are matched; every matched query improves;
* problem patterns are reusable across workloads: 6 of the 23 improved client
  queries were fixed by a rewrite learned on TPC-DS (26 %).

``run_exp2`` learns on one workload, re-optimizes both workloads, and reports
the per-query normalized runtimes (Figure 10's bars), the averages, and the
cross-workload reuse count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.matching.engine import QueryReoptimization
from repro.experiments.harness import (
    ExperimentSettings,
    WorkloadBundle,
    build_bundle,
    format_table,
    learn_bundle,
)


@dataclass
class QueryImprovement:
    """One bar of Figure 10: a matched query and its normalized runtime."""

    query_name: str
    original_ms: float
    reoptimized_ms: float
    normalized_runtime: float
    improvement: float
    matched_templates: List[str] = field(default_factory=list)


@dataclass
class WorkloadImprovement:
    """Figure 10a or 10b for one workload."""

    workload: str
    total_queries: int
    matched_queries: int
    improvements: List[QueryImprovement] = field(default_factory=list)

    @property
    def average_improvement(self) -> float:
        if not self.improvements:
            return 0.0
        return sum(item.improvement for item in self.improvements) / len(self.improvements)


@dataclass
class Exp2Result:
    """Outcome of Exp-2."""

    tpcds: WorkloadImprovement
    client: WorkloadImprovement
    #: client queries whose rewrite came from a TPC-DS-learned template
    cross_workload_reuse_count: int = 0
    cross_workload_reuse_fraction: float = 0.0
    tpcds_templates: int = 0
    client_templates: int = 0

    def report(self) -> str:
        lines = ["Exp-2 (matching performance improvement)"]
        for improvement in (self.tpcds, self.client):
            rows = [
                [
                    item.query_name,
                    item.original_ms,
                    item.reoptimized_ms,
                    f"{item.normalized_runtime * 100:.0f}%",
                    f"{item.improvement * 100:.1f}%",
                ]
                for item in improvement.improvements
            ]
            lines.append(
                f"\n{improvement.workload}: {improvement.matched_queries} of "
                f"{improvement.total_queries} queries matched, average gain "
                f"{improvement.average_improvement * 100:.1f}%"
            )
            if rows:
                lines.append(
                    format_table(
                        ["query", "original ms", "re-optimized ms", "normalized", "gain"], rows
                    )
                )
        lines.append(
            f"\ncross-workload reuse: {self.cross_workload_reuse_count} client queries "
            f"({self.cross_workload_reuse_fraction * 100:.0f}% of improved client queries) "
            "fixed by TPC-DS-learned templates"
        )
        return "\n".join(lines)


def _summarize(
    workload_name: str, results: List[QueryReoptimization], total: int
) -> WorkloadImprovement:
    improvement = WorkloadImprovement(
        workload=workload_name, total_queries=total, matched_queries=0
    )
    for result in results:
        if not result.plan_changed:
            continue
        improvement.matched_queries += 1
        improvement.improvements.append(
            QueryImprovement(
                query_name=result.query_name,
                original_ms=result.original_elapsed_ms or 0.0,
                reoptimized_ms=result.reoptimized_elapsed_ms or 0.0,
                normalized_runtime=result.normalized_runtime,
                improvement=result.improvement,
                matched_templates=result.matched_template_ids,
            )
        )
    return improvement


def run_exp2(settings: Optional[ExperimentSettings] = None) -> Exp2Result:
    """Run Exp-2 end to end (learn on both workloads, re-optimize both)."""
    settings = settings or ExperimentSettings()

    # Learn on TPC-DS, then re-optimize the full TPC-DS workload.
    tpcds_bundle = build_bundle("tpcds", settings)
    tpcds_report = learn_bundle(tpcds_bundle, settings.learning_query_count)
    tpcds_results = tpcds_bundle.galo.reoptimize_workload(tpcds_bundle.workload.queries)
    tpcds_summary = _summarize(
        "TPC-DS", tpcds_results, tpcds_bundle.workload.query_count
    )
    tpcds_template_ids = set(tpcds_bundle.galo.knowledge_base.templates)

    # The client workload shares the knowledge base (so TPC-DS templates can be
    # reused) and then adds its own templates on top.
    client_bundle = build_bundle(
        "client", settings, knowledge_base=tpcds_bundle.galo.knowledge_base
    )
    client_report = learn_bundle(client_bundle, settings.learning_query_count)
    client_results = client_bundle.galo.reoptimize_workload(client_bundle.workload.queries)
    client_summary = _summarize(
        "IBM-client", client_results, client_bundle.workload.query_count
    )

    reuse = 0
    for item in client_summary.improvements:
        if any(template_id in tpcds_template_ids for template_id in item.matched_templates):
            reuse += 1
    improved_client = len(client_summary.improvements)

    return Exp2Result(
        tpcds=tpcds_summary,
        client=client_summary,
        cross_workload_reuse_count=reuse,
        cross_workload_reuse_fraction=(reuse / improved_client) if improved_client else 0.0,
        tpcds_templates=tpcds_report.template_count,
        client_templates=client_report.template_count,
    )
