"""Comparative study: scripted "expert" baseline vs GALO (Exp-5 / Exp-6).

GALO learns the first queries of the TPC-DS-like workload; the first four
templates it stores are the sample problem patterns.  For each, compare:

* the cost of problem determination -- GALO's is the measured wall time of
  the learning step that stored the template; the expert's is that time
  multiplied by ``EXPERT_TIME_RATIOS``, so their ratio equals those ratios
  by construction (an assumption taken from the paper's Figure 13);
* the quality of the fix -- GALO's is the plan the matching engine serves
  for the pattern's sub-query once learning is done, the expert's the best
  of the classic manual playbook (hash joins in the original join order,
  order swap, table-scan substitution); both are executed against the
  optimizer's plan.

Run with::

    python examples/expert_vs_galo.py
"""

from __future__ import annotations

from repro.experiments import ExperimentSettings
from repro.experiments.expert import run_pattern_study
from repro.experiments.harness import format_table


def main() -> None:
    print("learning over the TPC-DS-like workload, then steering each pattern ...\n")
    settings = ExperimentSettings(scale=0.25, tpcds_query_count=24)
    study = run_pattern_study("tpcds", settings, pattern_count=4)

    rows = []
    for index, studied in enumerate(study.patterns, start=1):
        finding = studied.expert
        rows.append(
            [
                f"#{index} {studied.pattern.name}",
                f"{studied.pattern.galo_analysis_seconds:.3f}",
                f"{finding.expert_analysis_seconds:.3f}",
                f"{studied.galo_improvement * 100:.1f}%",
                f"{finding.expert_improvement * 100:.1f}%" if finding.found_fix else "no fix found",
            ]
        )
    print(format_table(
        ["problem pattern", "GALO s", "expert s", "GALO gain", "expert gain"], rows
    ))
    print(
        "\npaper reference (Figures 13-14): manual determination costs more than "
        "twice the automatic learning, experts miss one of four patterns, and "
        "their fixes never beat GALO's."
    )


if __name__ == "__main__":
    main()
