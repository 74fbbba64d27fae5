"""Exp-6 / Figure 14: quality of learned problem patterns -- GALO vs experts.

Paper reference points: experts improve three of four sample patterns but never
beat GALO (e.g. 82 % vs 82 % + 8.6 % on the Figure 4 pattern) and miss pattern
#2 entirely; GALO improves every pattern.  The patterns and GALO's fixes come
from ``repro.experiments.expert.run_pattern_study``: learned templates, and
the plan the matching engine serves for each pattern's sub-query.
"""

from __future__ import annotations

import pytest

from repro.experiments.expert import ExpertModel, run_pattern_study


@pytest.fixture(scope="module")
def study(settings):
    return run_pattern_study("tpcds", settings)


def test_fig14_improvement_quality(benchmark, study):
    """Per-pattern improvement over the optimizer's plan: GALO vs the expert fix."""
    expert = ExpertModel(study.bundle.workload.database)

    def compare():
        rows = []
        for index, studied in enumerate(study.patterns):
            finding = expert.analyze(studied.pattern, index)
            rows.append(
                {
                    "pattern": studied.pattern.name,
                    "galo_improvement": round(studied.galo_improvement, 3),
                    "expert_improvement": round(finding.expert_improvement, 3),
                    "expert_found_fix": finding.found_fix,
                }
            )
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    benchmark.extra_info["rows"] = rows
    benchmark.extra_info["paper_claim"] = (
        "GALO improves all patterns; experts miss one and never beat GALO"
    )
    assert rows
    for row in rows:
        assert row["galo_improvement"] > 0


def test_fig14_galo_improvement_positive_on_every_pattern(benchmark, study):
    """GALO's served rewrites improve every sample pattern (the paper's headline)."""

    def improvements():
        return [studied.galo_improvement for studied in study.patterns]

    gains = benchmark(improvements)
    benchmark.extra_info["galo_improvements"] = [round(g, 3) for g in gains]
    assert all(gain > 0.1 for gain in gains)
