"""Shared experiment machinery: settings, workload bundles, report formatting."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase
from repro.core.learning.engine import LearningConfig, LearningReport
from repro.core.matching.engine import MatchingConfig
from repro.workloads.workload import Workload, load_workload


def bench_tiny_mode() -> bool:
    """True when ``GALO_BENCH_TINY`` is enabled: CI smoke mode for the
    benchmark harness (tiny workloads; speedup assertions relaxed).
    ``0`` / ``false`` / empty mean disabled."""
    return os.environ.get("GALO_BENCH_TINY", "").strip().lower() not in (
        "",
        "0",
        "false",
        "no",
    )


@dataclass
class ExperimentSettings:
    """Sizing knobs shared by every experiment.

    The defaults are a "laptop" configuration: scaled-down tables and a subset
    of each workload's queries for the learning phase, so the entire experiment
    suite (and the benchmark harness built on it) finishes in minutes.  Raise
    ``scale`` / the query counts to approach the paper's setup (1 GB, all
    queries, several machines, non-peak hours).
    """

    scale: float = 0.4
    seed: int = 42
    #: queries used for the full workloads (99 / 116 in the paper).
    tpcds_query_count: int = 99
    client_query_count: int = 116
    #: queries actually analyzed by the offline learning phase.
    learning_query_count: int = 24
    #: join-number threshold (the paper's optimum is 4).
    max_joins: int = 3
    random_plans_per_subquery: int = 5
    max_variants: int = 2

    def learning_config(self) -> LearningConfig:
        return LearningConfig(
            max_joins=self.max_joins,
            random_plans_per_subquery=self.random_plans_per_subquery,
            max_variants=self.max_variants,
        )

    def matching_config(self) -> MatchingConfig:
        return MatchingConfig(max_joins=self.max_joins)


@dataclass
class WorkloadBundle:
    """A workload together with a GALO instance bound to its database."""

    workload: Workload
    galo: Galo
    learning_report: Optional[LearningReport] = None

    @property
    def name(self) -> str:
        return self.workload.name


def build_bundle(
    workload_name: str,
    settings: Optional[ExperimentSettings] = None,
    knowledge_base: Optional[KnowledgeBase] = None,
) -> WorkloadBundle:
    """Build a workload and attach a GALO instance configured per ``settings``."""
    settings = settings or ExperimentSettings()
    query_count = (
        settings.tpcds_query_count if workload_name.startswith("tpc") else settings.client_query_count
    )
    workload = load_workload(
        workload_name,
        scale=settings.scale,
        seed=settings.seed,
        query_count=query_count,
    )
    galo = Galo(
        workload.database,
        knowledge_base=knowledge_base,
        learning_config=settings.learning_config(),
        matching_config=settings.matching_config(),
    )
    return WorkloadBundle(workload=workload, galo=galo)


def learn_bundle(bundle: WorkloadBundle, query_count: int) -> LearningReport:
    """Run the offline learning phase over the first ``query_count`` queries."""
    queries = bundle.workload.queries[:query_count]
    report = bundle.galo.learn(queries, workload_name=bundle.workload.name)
    bundle.learning_report = report
    return report


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table (used by every experiment's ``print`` output)."""
    columns = [str(header) for header in headers]
    rendered_rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "+".join("-" * (width + 2) for width in widths)
    line = f"+{line}+"
    out = [line]
    out.append("| " + " | ".join(column.ljust(width) for column, width in zip(columns, widths)) + " |")
    out.append(line)
    for row in rendered_rows:
        out.append("| " + " | ".join(cell.ljust(width) for cell, width in zip(row, widths)) + " |")
    out.append(line)
    return "\n".join(out)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)
