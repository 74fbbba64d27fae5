"""Exp-5 / Figure 13: cost of learning -- manual experts vs GALO.

The paper measures, over a sample of four problematic queries, the time it
takes IBM experts to determine the problem manually versus GALO's automatic
(offline) learning; manual determination averages more than twice the
automatic cost.  This is one view of
:func:`repro.experiments.expert.run_pattern_study`: the patterns are the
first templates GALO's learner stores, and GALO's seconds are the wall time
of the learning step that stored each one.  The expert's seconds are GALO's
times :data:`~repro.experiments.expert.EXPERT_TIME_RATIOS`, so the
expert / GALO ratio equals those ratios by construction -- an assumption
taken from the paper's figure, not a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments.expert import PatternStudy, StudiedPattern, run_pattern_study
from repro.experiments.harness import ExperimentSettings, format_table


@dataclass
class Exp5Result:
    """Outcome of Exp-5: the cost view of one pattern study."""

    study: PatternStudy

    @property
    def rows(self) -> List[StudiedPattern]:
        return self.study.patterns

    @property
    def ratios(self) -> List[float]:
        """Per pattern, the expert's analysis seconds over GALO's."""
        return [
            row.expert.expert_analysis_seconds / max(row.pattern.galo_analysis_seconds, 1e-9)
            for row in self.rows
        ]

    @property
    def average_ratio(self) -> float:
        return sum(self.ratios) / len(self.ratios) if self.ratios else 0.0

    def report(self) -> str:
        table = format_table(
            ["pattern", "GALO s", "expert s", "expert / GALO"],
            [
                [
                    f"#{index} {row.pattern.name}",
                    row.pattern.galo_analysis_seconds,
                    row.expert.expert_analysis_seconds,
                    ratio,
                ]
                for index, (row, ratio) in enumerate(zip(self.rows, self.ratios), start=1)
            ],
        )
        return (
            f"Exp-5 (cost of learning) -- workload {self.study.bundle.name}\n{table}\n"
            f"manual determination costs {self.average_ratio:.2f}x the automatic learning on average"
        )


def run_exp5(
    workload_name: str = "tpcds",
    settings: Optional[ExperimentSettings] = None,
    pattern_count: int = 4,
) -> Exp5Result:
    """Compare GALO's measured learning time with the expert baseline."""
    return Exp5Result(run_pattern_study(workload_name, settings, pattern_count))
