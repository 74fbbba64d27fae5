"""Exp-6 / Figure 14: quality of learned problem patterns -- GALO vs experts.

For each sample pattern the paper reports the percentage improvement (over the
optimizer's "maliciously" bad plan) of the fix found manually by experts and of
the fix found automatically by GALO.  Experts improve three of the four
patterns but never beat GALO, and fail entirely on pattern #2; GALO improves
all four.  Here the expert's fix is *executed*, so both improvement numbers are
measurements on the same substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.experiments.expert import ExpertModel, find_sample_patterns
from repro.experiments.harness import ExperimentSettings, build_bundle, format_table


@dataclass
class QualityRow:
    """One pattern of Figure 14."""

    pattern: str
    galo_improvement: float
    expert_improvement: float
    expert_found_fix: bool

    @property
    def galo_wins_or_ties(self) -> bool:
        return self.galo_improvement >= self.expert_improvement - 1e-9


@dataclass
class Exp6Result:
    """Outcome of Exp-6."""

    workload: str
    rows: List[QualityRow] = field(default_factory=list)

    @property
    def galo_never_loses(self) -> bool:
        return all(row.galo_wins_or_ties for row in self.rows)

    def report(self) -> str:
        table = format_table(
            ["pattern", "GALO gain", "expert gain", "expert found fix"],
            [
                [
                    row.pattern,
                    f"{row.galo_improvement * 100:.1f}%",
                    f"{row.expert_improvement * 100:.1f}%" if row.expert_found_fix else "*",
                    "yes" if row.expert_found_fix else "no",
                ]
                for row in self.rows
            ],
        )
        return (
            f"Exp-6 (quality of learned problem patterns) -- workload {self.workload}\n{table}\n"
            f"GALO matches or beats the expert on every pattern: {self.galo_never_loses}"
        )


def run_exp6(
    workload_name: str = "tpcds",
    settings: Optional[ExperimentSettings] = None,
    pattern_count: int = 4,
) -> Exp6Result:
    """Measure the quality of GALO's rewrites against the expert baseline."""
    settings = settings or ExperimentSettings()
    bundle = build_bundle(workload_name, settings)
    patterns = find_sample_patterns(
        bundle.workload.database,
        bundle.workload.queries[: settings.learning_query_count],
        count=pattern_count,
        max_joins=settings.max_joins,
        random_plans=settings.random_plans_per_subquery,
    )
    expert = ExpertModel(bundle.workload.database)
    result = Exp6Result(workload=bundle.workload.name)
    for index, pattern in enumerate(patterns, start=1):
        finding = expert.analyze(pattern, index - 1)
        result.rows.append(
            QualityRow(
                pattern=f"#{index} {pattern.name}",
                galo_improvement=pattern.galo_improvement,
                expert_improvement=finding.expert_improvement,
                expert_found_fix=finding.found_fix,
            )
        )
    return result
