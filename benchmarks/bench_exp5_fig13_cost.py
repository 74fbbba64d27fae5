"""Exp-5 / Figure 13: time to learn problem patterns -- manual experts vs GALO.

Paper reference point: averaged over four sample patterns, manual problem
determination by IBM experts costs more than twice GALO's automatic learning.
Both columns come from ``repro.experiments.expert.run_pattern_study``: GALO's
is the wall time of the learning step that stored each pattern's template,
the expert's is that time times ``EXPERT_TIME_RATIOS`` -- so the ratio is
the paper's by construction, an assumption rather than a measurement.
"""

from __future__ import annotations

import pytest

from repro.experiments.expert import ExpertModel, run_pattern_study


@pytest.fixture(scope="module")
def study(settings):
    return run_pattern_study("tpcds", settings)


def test_fig13_galo_learning_cost(benchmark, settings):
    """The whole study -- learn, then steer and analyze every pattern; GALO's
    per-pattern learning cost is the automatic bars of Fig. 13."""

    def rerun():
        return run_pattern_study("tpcds", settings)

    rerun_study = benchmark.pedantic(rerun, rounds=1, iterations=1)
    benchmark.extra_info["patterns"] = len(rerun_study.patterns)
    benchmark.extra_info["galo_seconds_per_pattern"] = [
        round(studied.pattern.galo_analysis_seconds, 3) for studied in rerun_study.patterns
    ]


def test_fig13_expert_vs_galo_ratio(benchmark, study):
    """The manual/automatic cost ratio per pattern (the comparison of Fig. 13)."""
    expert = ExpertModel(study.bundle.workload.database)

    def analyze_all():
        ratios = []
        for index, studied in enumerate(study.patterns):
            finding = expert.analyze(studied.pattern, index)
            ratios.append(
                finding.expert_analysis_seconds
                / max(studied.pattern.galo_analysis_seconds, 1e-9)
            )
        return ratios

    ratios = benchmark.pedantic(analyze_all, rounds=1, iterations=1)
    average = sum(ratios) / len(ratios) if ratios else 0.0
    benchmark.extra_info["expert_to_galo_ratios"] = [round(r, 2) for r in ratios]
    benchmark.extra_info["average_ratio"] = round(average, 2)
    benchmark.extra_info["paper_claim"] = "manual > 2x automatic on average"
    assert average > 1.5
