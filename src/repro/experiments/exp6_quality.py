"""Exp-6 / Figure 14: quality of learned problem patterns -- GALO vs experts.

For each sample pattern the paper reports the percentage improvement (over the
optimizer's "maliciously" bad plan) of the fix found manually by experts and of
the fix found automatically by GALO.  Experts improve three of the four
patterns but never beat GALO, and fail entirely on pattern #2; GALO improves
all four.  This is one view of
:func:`repro.experiments.expert.run_pattern_study`: the patterns are the first
templates GALO's learner stores, GALO's fix is the plan
``MatchingEngine.steer`` serves for the pattern's sub-query once learning is
done, and the expert's fix is the best of the manual playbook.  Both are
executed against the optimizer's plan, so both improvement numbers are
measurements on the same substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.expert import PatternStudy, StudiedPattern, run_pattern_study
from repro.experiments.harness import ExperimentSettings, format_table


@dataclass
class Exp6Result:
    """Outcome of Exp-6: the quality view of one pattern study."""

    study: PatternStudy

    @property
    def rows(self) -> List[StudiedPattern]:
        return self.study.patterns

    @property
    def galo_never_loses(self) -> bool:
        return all(
            row.galo_improvement >= row.expert.expert_improvement - 1e-9 for row in self.rows
        )

    def report(self) -> str:
        table = format_table(
            ["pattern", "GALO gain", "expert gain", "expert found fix"],
            [
                [
                    f"#{index} {row.pattern.name}",
                    f"{row.galo_improvement * 100:.1f}%",
                    f"{row.expert.expert_improvement * 100:.1f}%" if row.expert.found_fix else "*",
                    "yes" if row.expert.found_fix else "no",
                ]
                for index, row in enumerate(self.rows, start=1)
            ],
        )
        return (
            f"Exp-6 (quality of learned problem patterns) -- workload {self.study.bundle.name}\n"
            f"{table}\n"
            f"GALO matches or beats the expert on every pattern: {self.galo_never_loses}"
        )


def run_exp6(
    workload_name: str = "tpcds",
    settings: Optional[ExperimentSettings] = None,
    pattern_count: int = 4,
) -> Exp6Result:
    """Measure the quality of GALO's served rewrites against the expert baseline."""
    return Exp6Result(run_pattern_study(workload_name, settings, pattern_count))
