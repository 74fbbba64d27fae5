"""Exp-3 / Figure 11: matching scalability in the number of joined tables.

The paper buckets the workload's queries by join count and reports the average
matching time per rewrite: ~4.3 ms at 15 joins, ~34 ms at 32 joins -- marginal
relative to query runtimes and linear in the number of joins.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.harness import (
    ExperimentSettings,
    build_bundle,
    format_table,
    learn_bundle,
)


@dataclass
class JoinBucket:
    """One bucket of Figure 11."""

    join_count: int
    queries: int
    avg_match_time_ms: float


@dataclass
class Exp3Result:
    """Outcome of Exp-3."""

    workload: str
    buckets: List[JoinBucket] = field(default_factory=list)
    knowledge_base_size: int = 0

    def report(self) -> str:
        rows = [
            [bucket.join_count, bucket.queries, bucket.avg_match_time_ms]
            for bucket in self.buckets
        ]
        return (
            f"Exp-3 (matching time vs number of table joins) -- workload {self.workload}, "
            f"knowledge base of {self.knowledge_base_size} templates\n"
            + format_table(["# joins", "queries", "avg match ms"], rows)
        )


def run_exp3(
    workload_name: str = "tpcds", settings: Optional[ExperimentSettings] = None
) -> Exp3Result:
    """Bucket the workload's queries by join count and time the KB matching."""
    settings = settings or ExperimentSettings()
    bundle = build_bundle(workload_name, settings)
    learn_bundle(bundle, settings.learning_query_count)

    per_bucket_times: Dict[int, List[float]] = {}
    for name, sql in bundle.workload.queries:
        qgm = bundle.workload.database.explain(sql, query_name=name)
        join_count = qgm.join_count
        started = time.perf_counter()
        bundle.galo.matching_engine.match_plan(qgm)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        per_bucket_times.setdefault(join_count, []).append(elapsed_ms)

    result = Exp3Result(
        workload=bundle.workload.name,
        knowledge_base_size=len(bundle.galo.knowledge_base),
    )
    for join_count in sorted(per_bucket_times):
        times = per_bucket_times[join_count]
        result.buckets.append(
            JoinBucket(
                join_count=join_count,
                queries=len(times),
                avg_match_time_ms=sum(times) / len(times),
            )
        )
    return result
