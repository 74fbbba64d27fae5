"""A scripted "IBM expert" baseline for Exp-5 and Exp-6.

The paper compares GALO against four IBM optimization experts on a sample of
problematic queries.  We obviously have no experts on call, so this module
encodes their *published behaviour* as a reproducible baseline:

* **Fix strategy** (measured, not asserted): an expert inspects the plan and
  applies the classic manual remedy -- force hash joins in the optimizer's join
  order, leaving access paths and join order untouched.  This is precisely the
  kind of fix the paper's Figure 15 attributes to the experts: better than the
  optimizer's plan, but not as good as GALO's (no bloom filters, no join
  re-ordering, no access-path changes).  When the optimizer's plan already uses
  hash joins everywhere the expert finds no fix at all (the paper's problem
  pattern #2).  The resulting plan is *executed*, so the quality comparison in
  Exp-6 is a real measurement.
* **Analysis time** (calibrated): per-pattern manual analysis times are modeled
  as a multiple of GALO's measured automatic analysis time, with the multiples
  taken from the shape of the paper's Figure 13 (experts average a bit more
  than twice the automatic cost).  This is a documented substitution -- see
  DESIGN.md -- because wall-clock expert effort cannot be reproduced in a
  simulation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.learning.ranking import rank_measurements
from repro.core.learning.subquery import SubQuery, generate_subqueries
from repro.core.planutils import join_tree_root
from repro.engine.database import Database
from repro.engine.executor.db2batch import Db2Batch
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import PlanNode, PopType, Qgm
from repro.engine.sql.binder import BoundQuery

#: Per-pattern manual-to-automatic analysis-time ratios (Figure 13's shape).
EXPERT_TIME_RATIOS = (2.6, 1.9, 2.4, 2.1)


@dataclass
class SamplePattern:
    """One problematic sub-query used in the comparative study."""

    name: str
    subquery: SubQuery
    problem_qgm: Qgm
    galo_qgm: Qgm
    optimizer_elapsed_ms: float
    galo_elapsed_ms: float
    galo_analysis_seconds: float

    @property
    def galo_improvement(self) -> float:
        if self.optimizer_elapsed_ms <= 0:
            return 0.0
        return (self.optimizer_elapsed_ms - self.galo_elapsed_ms) / self.optimizer_elapsed_ms


@dataclass
class ExpertFinding:
    """The expert's outcome on one sample pattern."""

    pattern: SamplePattern
    found_fix: bool
    expert_qgm: Optional[Qgm]
    expert_elapsed_ms: Optional[float]
    expert_analysis_seconds: float

    @property
    def expert_improvement(self) -> float:
        if not self.found_fix or self.expert_elapsed_ms is None:
            return 0.0
        if self.pattern.optimizer_elapsed_ms <= 0:
            return 0.0
        return (
            self.pattern.optimizer_elapsed_ms - self.expert_elapsed_ms
        ) / self.pattern.optimizer_elapsed_ms


def find_sample_patterns(
    database: Database,
    queries: List[Tuple[str, str]],
    count: int = 4,
    max_joins: int = 3,
    random_plans: int = 6,
    runs_per_plan: int = 5,
) -> List[SamplePattern]:
    """Discover ``count`` problematic sub-queries the way the learning engine does.

    Each returned pattern carries the optimizer's plan, the best competing plan
    found via the Random Plan Generator, their measured runtimes, and the
    wall-clock seconds the automated analysis took (GALO's cost in Figure 13).
    """
    patterns: List[SamplePattern] = []
    seen_structures = set()
    batch = Db2Batch(
        database.catalog, database.config, runs=runs_per_plan, executor=database.executor
    )
    for query_name, sql in queries:
        if len(patterns) >= count:
            break
        bound = database.bind(sql)
        for subquery in generate_subqueries(bound, max_joins):
            if len(patterns) >= count:
                break
            key = subquery.structure_key()
            if key in seen_structures:
                continue
            seen_structures.add(key)
            started = time.perf_counter()
            optimizer_qgm = database.optimizer.optimize(subquery.query)
            candidates = [optimizer_qgm] + database.random_plan_generator.generate(
                subquery.query, random_plans
            )
            ranked = rank_measurements([batch.benchmark(qgm) for qgm in candidates])
            analysis_seconds = time.perf_counter() - started
            best = ranked[0]
            optimizer_ranked = next(
                plan for plan in ranked if plan.measurement.qgm is optimizer_qgm
            )
            if best.measurement.qgm is optimizer_qgm:
                continue
            improvement = (
                optimizer_ranked.elapsed_ms - best.elapsed_ms
            ) / max(optimizer_ranked.elapsed_ms, 1e-9)
            if improvement < 0.15:
                continue
            patterns.append(
                SamplePattern(
                    name=f"{query_name}:{'+'.join(subquery.aliases)}",
                    subquery=subquery,
                    problem_qgm=optimizer_qgm,
                    galo_qgm=best.measurement.qgm,
                    optimizer_elapsed_ms=optimizer_ranked.elapsed_ms,
                    galo_elapsed_ms=best.elapsed_ms,
                    galo_analysis_seconds=analysis_seconds,
                )
            )
    return patterns


class ExpertModel:
    """The scripted expert baseline."""

    def __init__(self, database: Database, runs_per_plan: int = 5):
        self.database = database
        self.batch = Db2Batch(
            database.catalog,
            database.config,
            runs=runs_per_plan,
            executor=database.executor,
        )

    def analyze(
        self, pattern: SamplePattern, pattern_index: int, min_improvement: float = 0.05
    ) -> ExpertFinding:
        """Produce the expert's fix (if any) and modeled analysis time for a pattern.

        The expert tries the classic manual remedies -- forcing hash joins,
        swapping join order, replacing flooding index scans with table scans --
        verifies each candidate by running it, and keeps the best one that
        actually improves on the optimizer's plan.  Bloom-filter hash joins and
        cost-model recalibrations are outside the manual playbook, which is
        where GALO keeps its edge (and why some patterns go unfixed).
        """
        ratio = EXPERT_TIME_RATIOS[pattern_index % len(EXPERT_TIME_RATIOS)]
        expert_seconds = pattern.galo_analysis_seconds * ratio

        best_qgm: Optional[Qgm] = None
        best_elapsed: Optional[float] = None
        for candidate in self._candidate_fixes(pattern):
            ranked = rank_measurements([self.batch.benchmark(candidate)])
            elapsed = ranked[0].elapsed_ms
            if best_elapsed is None or elapsed < best_elapsed:
                best_qgm, best_elapsed = candidate, elapsed

        threshold = pattern.optimizer_elapsed_ms * (1.0 - min_improvement)
        if best_qgm is None or best_elapsed is None or best_elapsed > threshold:
            return ExpertFinding(
                pattern=pattern,
                found_fix=False,
                expert_qgm=None,
                expert_elapsed_ms=None,
                expert_analysis_seconds=expert_seconds,
            )
        return ExpertFinding(
            pattern=pattern,
            found_fix=True,
            expert_qgm=best_qgm,
            expert_elapsed_ms=best_elapsed,
            expert_analysis_seconds=expert_seconds,
        )

    def _candidate_fixes(self, pattern: SamplePattern) -> List[Qgm]:
        """The manual playbook: hash joins, order swap, table scans."""
        candidates: List[Qgm] = []
        for reverse_order in (False, True):
            for force_table_scans in (False, True):
                qgm = self._hash_join_rewrite(
                    pattern, reverse_order=reverse_order, force_table_scans=force_table_scans
                )
                if qgm is not None:
                    candidates.append(qgm)
        return candidates

    def _hash_join_rewrite(
        self,
        pattern: SamplePattern,
        reverse_order: bool = False,
        force_table_scans: bool = False,
    ) -> Optional[Qgm]:
        """Rebuild the problem plan's join order with every join forced to HSJOIN."""
        query = rewrite_query(pattern.subquery.query)
        builder = PlanBuilder(self.database.catalog, query)
        problem_join_tree = join_tree_root(pattern.problem_qgm)
        aliases = [alias for alias in problem_join_tree.aliases() if alias]
        if len(aliases) < 2:
            return None
        if reverse_order:
            aliases = list(reversed(aliases))

        def access(alias: str) -> PlanNode:
            if force_table_scans:
                return builder.forced_access_path(alias, "TBSCAN")
            return builder.best_access_path(alias)

        current = access(aliases[0])
        for alias in aliases[1:]:
            right = access(alias)
            if not builder.join_predicates_between(current, right):
                # The expert keeps a connected join order; they give up rather
                # than introduce a cross product.
                return None
            current = builder.make_join(PopType.HSJOIN, current, right)
        top = builder.finish_plan(current)
        return Qgm(top, sql=pattern.subquery.sql, query_name=f"expert:{pattern.name}")
