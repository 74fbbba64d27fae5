"""The comparative study of Exp-5 / Exp-6: GALO vs a scripted "IBM expert".

The paper compares GALO against four IBM optimization experts on a sample of
problematic queries.  :func:`run_pattern_study` runs that comparison once and
both figures read it:

* **GALO's columns are GALO's own loop.**  A fresh bundle learns the first
  ``learning_query_count`` queries through
  :meth:`~repro.core.learning.engine.LearningEngine.learning_steps`, the
  generator the serving tier drives.  The sample patterns are the first
  ``pattern_count`` templates it stores, in workload order -- a rule no
  budget enters -- and each pattern is the template's source sub-query.
  GALO's analysis time (Exp-5) is the wall time of the learning step that
  stored the template; GALO's fix (Exp-6) is the plan
  :meth:`~repro.core.matching.engine.MatchingEngine.steer` serves for the
  sub-query after the whole learning phase, executed against the same
  decision's baseline plan.
* **The expert's fix is measured, not asserted.**  An expert inspects the
  plan and applies the classic manual remedy -- force hash joins in the
  optimizer's join order (or the reverse one), with the access paths kept or
  forced to table scans.  This is the kind of fix the paper's Figure 15
  attributes to the experts: no bloom filters, no re-ordering beyond a
  swap, no access-path changes beyond table scans.  Every candidate is
  executed, so Exp-6 compares two measurements on the same substrate (the
  same ``Db2Batch`` and ``rank_measurements``).
* **The expert's analysis time is an assumption.**  Manual effort cannot be
  reproduced in a simulation, so it is GALO's measured time multiplied by
  :data:`EXPERT_TIME_RATIOS`, the shape of the paper's Figure 13.  Exp-5's
  expert / GALO ratio therefore equals those ratios by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.learning.ranking import rank_measurements
from repro.core.learning.subquery import SubQuery, generate_subqueries
from repro.core.planutils import join_tree_root
from repro.engine.database import Database
from repro.engine.executor.db2batch import Db2Batch
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import PlanNode, PopType, Qgm
from repro.experiments.harness import ExperimentSettings, WorkloadBundle, build_bundle

#: Per-pattern manual-to-automatic analysis-time ratios (Figure 13's shape).
EXPERT_TIME_RATIOS = (2.6, 1.9, 2.4, 2.1)


@dataclass
class SamplePattern:
    """One problematic sub-query, as the expert receives it."""

    name: str
    subquery: SubQuery
    problem_qgm: Qgm
    optimizer_elapsed_ms: float
    galo_analysis_seconds: float


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


@dataclass
class StudiedPattern:
    """One sample pattern with GALO's answer and the expert's."""

    template_id: str
    galo_qgm: Qgm
    galo_elapsed_ms: float
    expert: ExpertFinding

    @property
    def pattern(self) -> SamplePattern:
        return self.expert.pattern

    @property
    def galo_improvement(self) -> float:
        optimizer_ms = self.pattern.optimizer_elapsed_ms
        return (optimizer_ms - self.galo_elapsed_ms) / optimizer_ms if optimizer_ms > 0 else 0.0


@dataclass
class PatternStudy:
    """GALO and the expert on the same sample patterns (Exp-5 and Exp-6)."""

    bundle: WorkloadBundle
    patterns: List[StudiedPattern]


def run_pattern_study(
    workload_name: str = "tpcds",
    settings: Optional[ExperimentSettings] = None,
    pattern_count: int = 4,
) -> PatternStudy:
    """Learn on a fresh bundle, then put GALO's served fix and the expert's
    fix side by side on the first ``pattern_count`` learned templates."""
    settings = settings or ExperimentSettings()
    bundle = build_bundle(workload_name, settings)
    learned = _learn_step_by_step(bundle, settings.learning_query_count)
    database = bundle.workload.database
    expert = ExpertModel(database)
    study = PatternStudy(bundle=bundle, patterns=[])
    for index, (template_id, seconds) in enumerate(learned[:pattern_count]):
        # The template's name is ``workload:query:A+B``: its source query
        # and the aliases of the sub-query it was learned from.
        template = bundle.galo.knowledge_base.template(template_id)
        name = template.name.split(":", 1)[1]
        aliases = tuple(name.rsplit(":", 1)[1].split("+"))
        bound = database.bind(bundle.workload.query(template.source_query))
        subquery = next(
            subquery
            for subquery in generate_subqueries(bound, settings.max_joins)
            if subquery.aliases == aliases
        )
        decision = bundle.galo.matching_engine.steer(subquery.sql, query_name=name)
        pattern = SamplePattern(
            name=name,
            subquery=subquery,
            problem_qgm=decision.baseline_qgm,
            optimizer_elapsed_ms=_measure(expert.batch, decision.baseline_qgm),
            galo_analysis_seconds=seconds,
        )
        study.patterns.append(
            StudiedPattern(
                template_id=template_id,
                galo_qgm=decision.qgm,
                galo_elapsed_ms=_measure(expert.batch, decision.qgm),
                expert=expert.analyze(pattern, index),
            )
        )
    return study


def _learn_step_by_step(bundle: WorkloadBundle, query_count: int) -> List[Tuple[str, float]]:
    """Learn the bundle's first ``query_count`` queries one learning step at
    a time.  Returns every stored template id, in workload order, with the
    wall-clock seconds of the step that stored it."""
    learned: List[Tuple[str, float]] = []
    for query_name, sql in bundle.workload.queries[:query_count]:
        stored = 0
        started = time.perf_counter()
        for record in bundle.galo.learning_engine.learning_steps(sql, query_name, bundle.name):
            seconds = time.perf_counter() - started
            learned.extend((tid, seconds) for tid in record.templates_learned[stored:])
            stored = len(record.templates_learned)
            started = time.perf_counter()
    return learned


def _measure(batch: Db2Batch, qgm: Qgm) -> float:
    """``qgm``'s noise-filtered elapsed time, measured as the expert's fixes are."""
    return rank_measurements([batch.benchmark(qgm)])[0].elapsed_ms


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
