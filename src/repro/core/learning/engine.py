"""The offline learning engine.

For every workload query the engine:

1. decomposes it into connected sub-queries up to the join-number threshold
   (:mod:`repro.core.learning.subquery`);
2. broadens each sub-query by varying its predicate values over property
   ranges sampled from the data (:mod:`repro.core.learning.property_ranges`);
3. lets the optimizer plan each variant and generates competing plans with
   the Random Plan Generator;
4. benchmarks the optimizer's plan with ``db2batch``, then each competing
   plan only for as long as it can still change the outcome (the running cap
   of :func:`repro.core.learning.ranking.candidate_cap_ms`), removes
   measurement noise with K-means clustering and ranks the plans
   (:mod:`repro.core.learning.ranking`);
5. whenever a competing plan is significantly better than the optimizer's
   pick, abstracts the optimizer's sub-plan into a problem-pattern template
   (canonical table labels, cardinality ranges) with the winning plan's
   guideline as the recommendation, and stores it in the knowledge base.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.knowledge_base import CardinalityBounds, KnowledgeBase
from repro.core.learning.property_ranges import PredicateVariant, generate_variants
from repro.core.learning.ranking import (
    BOUNDS_WIDENING,
    PARENT_IMPROVEMENT_THRESHOLD,
    candidate_cap_ms,
    improvement_bound_ms,
    rank_measurements,
    robust_elapsed_ms,
)
from repro.core.learning.subquery import SubQuery, generate_subqueries
from repro.core.planutils import (
    canonical_label_map,
    join_tree_root,
    remap_guideline_element,
)
from repro.engine.database import Database
from repro.engine.executor.db2batch import Db2Batch
from repro.engine.executor.memo import ExecutionMemo
from repro.engine.optimizer.guidelines import GuidelineDocument, guideline_from_plan
from repro.engine.plan.explain import explain_summary
from repro.engine.plan.physical import PlanNode, Qgm
from repro.engine.sql.binder import BoundQuery
from repro.errors import PlanBudgetExceeded
from repro.obs.tracing import NULL_SPAN

#: Minimum relative improvement for a rewrite to enter the knowledge base.
IMPROVEMENT_THRESHOLD = 0.15


@dataclass
class LearningConfig:
    """Knobs of the offline learning process."""

    #: Join-number threshold for sub-query generation (the paper finds 4 optimal).
    max_joins: int = 4
    #: Competing plans drawn from the Random Plan Generator per variant.
    random_plans_per_subquery: int = 6
    #: Predicate-value variants per sub-query (including the original).
    max_variants: int = 3
    #: db2batch repetitions per plan.
    runs_per_plan: int = 5
    #: Evaluate plans through the database's epoch-invalidated workload memo,
    #: shared across every ``learn_query`` of a sweep (sub-queries repeat
    #: *across* workload queries, not just within one).  Learning outcomes
    #: are bit-identical either way (cold-charge rule); disable only to
    #: benchmark the memo itself.
    use_workload_memo: bool = True


@dataclass
class QueryLearningRecord:
    """Per-query learning outcome (feeds the Exp-1 / Exp-5 reports)."""

    query_name: str
    workload: str
    elapsed_seconds: float
    subquery_count: int
    analyzed_subquery_count: int
    templates_learned: List[str] = field(default_factory=list)
    improvements: List[float] = field(default_factory=list)
    #: Plans handed to ``db2batch`` (optimizer and competing plans alike) and
    #: how many of them were stopped because they could no longer win.
    plans_benchmarked: int = 0
    plans_aborted: int = 0


@dataclass
class LearningReport:
    """Aggregated outcome of learning over one workload."""

    workload: str
    records: List[QueryLearningRecord] = field(default_factory=list)

    @property
    def template_count(self) -> int:
        return sum(len(record.templates_learned) for record in self.records)

    @property
    def template_ids(self) -> List[str]:
        out: List[str] = []
        for record in self.records:
            out.extend(record.templates_learned)
        return out

    @property
    def plans_benchmarked(self) -> int:
        return sum(record.plans_benchmarked for record in self.records)

    @property
    def plans_aborted(self) -> int:
        return sum(record.plans_aborted for record in self.records)

    @property
    def average_improvement(self) -> float:
        improvements = [value for record in self.records for value in record.improvements]
        if not improvements:
            return 0.0
        return sum(improvements) / len(improvements)

    @property
    def average_seconds_per_query(self) -> float:
        if not self.records:
            return 0.0
        return sum(record.elapsed_seconds for record in self.records) / len(self.records)

    @property
    def average_seconds_per_subquery(self) -> float:
        analyzed = sum(record.analyzed_subquery_count for record in self.records)
        if analyzed == 0:
            return 0.0
        return sum(record.elapsed_seconds for record in self.records) / analyzed


@dataclass
class _ParentContext:
    """The workload query a sub-query came from, used to validate rewrites."""

    query: BoundQuery
    sql: str
    elapsed_ms: float


@dataclass
class _PlanCounts:
    """Plans one sub-query's analysis handed to ``db2batch`` / saw stopped."""

    benchmarked: int = 0
    aborted: int = 0


@dataclass
class _RewriteCandidate:
    """One variant where a competing plan beat the optimizer's plan."""

    problem_root: PlanNode
    best_root: PlanNode
    problem_signature: str
    best_signature: str
    improvement: float
    is_original_variant: bool
    node_cardinalities: Dict[int, float]


class LearningEngine:
    """Populates a knowledge base with problem-pattern templates."""

    def __init__(
        self,
        database: Database,
        knowledge_base: KnowledgeBase,
        config: Optional[LearningConfig] = None,
    ):
        self.database = database
        self.knowledge_base = knowledge_base
        self.config = config or LearningConfig()
        self._seen_subqueries: Set[Tuple] = set()

    # ------------------------------------------------------------------

    def learn_workload(
        self,
        queries: Sequence[Union[str, Tuple[str, str]]],
        workload_name: str,
    ) -> LearningReport:
        """Learn over a workload: ``queries`` is a list of SQL strings or
        ``(name, sql)`` pairs."""
        report = LearningReport(workload=workload_name)
        for position, entry in enumerate(queries, start=1):
            if isinstance(entry, tuple):
                query_name, sql = entry
            else:
                query_name, sql = f"Q{position}", entry
            record = self.learn_query(sql, query_name=query_name, workload_name=workload_name)
            report.records.append(record)
        return report

    def learn_query(
        self,
        sql: str,
        query_name: str = "",
        workload_name: str = "",
        span=NULL_SPAN,
    ) -> QueryLearningRecord:
        """Analyze one workload query and store any discovered rewrites.

        :meth:`learning_steps` run to completion; ``span`` (default: the
        no-op span) receives its phase spans.
        """
        for record in self.learning_steps(sql, query_name, workload_name, span):
            pass
        return record

    def learning_steps(
        self,
        sql: str,
        query_name: str = "",
        workload_name: str = "",
        span=NULL_SPAN,
    ) -> Iterator[QueryLearningRecord]:
        """:meth:`learn_query` as a sequence of steps, for a caller that
        interleaves it with other work.

        The first step binds the query, generates its sub-queries and runs
        the parent validation; each further step analyzes one sub-query.
        After every step the generator yields the query's record so far
        (the same object each time, ``templates_learned`` growing); after
        the last one it is complete.  A step never yields inside a span or
        an execution, so a caller may abandon the generator at any yield:
        the templates already stored stay.

        ``span`` receives one child span per phase -- ``bind``,
        ``generate_subqueries``, ``validate_parent`` and one
        ``analyze_subquery`` per analyzed sub-query.  Each ``analyze_subquery``
        span carries ``plans_benchmarked`` / ``plans_aborted`` and, per
        predicate variant, the children ``optimize``, ``generate``,
        ``benchmark_optimizer``, ``benchmark_random`` and ``rank``, plus one
        ``improves_parent`` (attribute ``aborted``) when a rewrite reaches
        the parent validation.
        """
        started = time.perf_counter()
        with span.child("bind"):
            bound = self.database.bind(sql)
        with span.child("generate_subqueries") as generate_span:
            subqueries = generate_subqueries(bound, self.config.max_joins)
            generate_span.set("subqueries", len(subqueries))
        record = QueryLearningRecord(
            query_name=query_name,
            workload=workload_name,
            elapsed_seconds=0.0,
            subquery_count=len(subqueries),
            analyzed_subquery_count=0,
        )
        # The optimizer's plan, every random plan variant and the
        # parent-validation runs all re-scan (and re-join) the same tables,
        # so structurally identical subtrees execute once and replay their
        # cold charges into each plan.  The memo is the database's workload
        # memo: sub-plans repeat across the queries of a sweep, and the epoch
        # check guarantees entries never survive a data change.
        memo = self.database.workload_memo() if self.config.use_workload_memo else None
        # Every candidate rewrite is validated on the workload query it came
        # from (the guideline applied to the parent query must make the whole
        # query faster): this is what keeps matched queries from regressing,
        # the paper's "performance for every one of the matched queries was
        # improved".
        with span.child("validate_parent"):
            parent_qgm = self.database.optimizer.optimize(bound, query_name=query_name)
            parent_run = self.database.execute_plan(parent_qgm, memo=memo)
        parent_context = _ParentContext(
            query=bound, sql=sql, elapsed_ms=parent_run.elapsed_ms
        )
        record.elapsed_seconds = time.perf_counter() - started
        yield record
        for subquery in subqueries:
            # Structurally identical sub-queries are analyzed once per sweep.
            key = subquery.structure_key()
            if key in self._seen_subqueries:
                continue
            self._seen_subqueries.add(key)
            record.analyzed_subquery_count += 1
            counts = _PlanCounts()
            with span.child("analyze_subquery") as subquery_span:
                template_id, improvement = self._analyze_subquery(
                    subquery,
                    query_name=query_name,
                    workload_name=workload_name,
                    parent_context=parent_context,
                    memo=memo,
                    span=subquery_span,
                    counts=counts,
                )
                subquery_span.set("plans_benchmarked", counts.benchmarked)
                subquery_span.set("plans_aborted", counts.aborted)
                if template_id is not None:
                    subquery_span.set("template_id", template_id)
            record.plans_benchmarked += counts.benchmarked
            record.plans_aborted += counts.aborted
            if template_id is not None:
                record.templates_learned.append(template_id)
                record.improvements.append(improvement)
            record.elapsed_seconds = time.perf_counter() - started
            yield record

    def _analyze_subquery(
        self,
        subquery: SubQuery,
        query_name: str,
        workload_name: str,
        parent_context: "_ParentContext",
        memo: Optional[ExecutionMemo],
        span,
        counts: _PlanCounts,
    ) -> Tuple[Optional[str], float]:
        """Benchmark one sub-query's variants; store a template if a rewrite wins."""
        variants = generate_variants(
            self.database.catalog,
            subquery.query,
            max_variants=self.config.max_variants,
        )
        candidates: List[_RewriteCandidate] = []
        for variant in variants:
            candidate = self._analyze_variant(variant, subquery, memo, span, counts)
            if candidate is not None:
                candidates.append(candidate)
        if not candidates:
            return None, 0.0

        # Group variants that found the same (problem plan, best plan) pair and
        # keep the group containing the original variant when possible.
        groups: Dict[Tuple[str, str], List[_RewriteCandidate]] = {}
        for candidate in candidates:
            groups.setdefault(
                (candidate.problem_signature, candidate.best_signature), []
            ).append(candidate)

        def group_priority(item) -> Tuple[int, int]:
            _, members = item
            has_original = any(member.is_original_variant for member in members)
            return (1 if has_original else 0, len(members))

        (_, members) = max(groups.items(), key=group_priority)
        representative = next(
            (member for member in members if member.is_original_variant), members[0]
        )

        bounds: Dict[int, CardinalityBounds] = {}
        for member in members:
            for operator_id, cardinality in member.node_cardinalities.items():
                existing = bounds.get(operator_id)
                if existing is None:
                    bounds[operator_id] = CardinalityBounds(cardinality, cardinality)
                else:
                    bounds[operator_id] = CardinalityBounds(
                        min(existing.lower, cardinality), max(existing.upper, cardinality)
                    )
        bounds = {
            operator_id: value.widened(BOUNDS_WIDENING)
            for operator_id, value in bounds.items()
        }

        labels = canonical_label_map(representative.problem_root)
        concrete_element = guideline_from_plan(representative.best_root)
        guideline_element = remap_guideline_element(concrete_element, labels)
        guideline_xml = GuidelineDocument(elements=[guideline_element]).to_xml()

        with span.child("improves_parent") as parent_span:
            improves = self._improves_parent(
                concrete_element, parent_context, memo, parent_span
            )
        if not improves:
            return None, 0.0

        improvement = representative.improvement
        template = self.knowledge_base.add_template(
            name=f"{workload_name}:{query_name}:{'+'.join(subquery.aliases)}",
            source_workload=workload_name,
            source_query=query_name,
            problem_root=representative.problem_root.copy(),
            guideline_xml=guideline_xml,
            canonical_labels=labels,
            cardinality_bounds=bounds,
            improvement=improvement,
            catalog=self.database.catalog,
            problem_summary=explain_summary(Qgm(representative.problem_root.copy())),
            recommended_summary=explain_summary(Qgm(representative.best_root.copy())),
        )
        return template.template_id, improvement

    def _improves_parent(
        self,
        guideline_element,
        parent_context: "_ParentContext",
        memo: Optional[ExecutionMemo],
        span,
    ) -> bool:
        """Apply the concrete (un-abstracted) guideline to the parent workload
        query and keep the rewrite only if the whole query gets faster.

        The guided plan runs under the time above which it no longer improves
        on the parent by ``PARENT_IMPROVEMENT_THRESHOLD``; there is no noise
        here, so running past it is the answer "no".
        """
        if parent_context.elapsed_ms <= 0:
            return False
        document = GuidelineDocument(elements=[guideline_element])
        guided_qgm = self.database.optimizer.optimize(
            parent_context.query, guidelines=document
        )
        budget_ms = improvement_bound_ms(
            parent_context.elapsed_ms, PARENT_IMPROVEMENT_THRESHOLD
        )
        try:
            guided_run = self.database.execute_plan(
                guided_qgm, memo=memo, budget_ms=budget_ms
            )
        except PlanBudgetExceeded:
            span.set("aborted", True)
            return False
        span.set("aborted", False)
        improvement = (
            parent_context.elapsed_ms - guided_run.elapsed_ms
        ) / parent_context.elapsed_ms
        return improvement >= PARENT_IMPROVEMENT_THRESHOLD

    def _analyze_variant(
        self,
        variant: PredicateVariant,
        subquery: SubQuery,
        memo: Optional[ExecutionMemo],
        span,
        counts: _PlanCounts,
    ) -> Optional[_RewriteCandidate]:
        """Benchmark the optimizer's plan against random plans for one variant.

        The optimizer's plan always runs to the end (its time is what the
        improvement is measured against).  Each random plan, in the
        generator's order, runs under the cap set by the optimizer's plan and
        the best random plan completed so far; one stopped there could not
        have changed the ranking's decision (``candidate_cap_ms``), so it is
        simply left out of the measurements.
        """
        with span.child("optimize"):
            optimizer_qgm = self.database.optimizer.optimize(
                variant.query, query_name=f"learn:{subquery.sql[:40]}"
            )
        with span.child("generate"):
            random_qgms = self.database.random_plan_generator.generate(
                variant.query, self.config.random_plans_per_subquery
            )
        batch = Db2Batch(
            self.database.catalog,
            self.database.config,
            runs=self.config.runs_per_plan,
            executor=self.database.executor,
        )
        with span.child("benchmark_optimizer"):
            optimizer_measurement = batch.benchmark(optimizer_qgm, memo=memo)
        optimizer_ms = robust_elapsed_ms(optimizer_measurement)
        measurements = [optimizer_measurement]
        best_random_ms: Optional[float] = None
        with span.child("benchmark_random"):
            for qgm in random_qgms:
                cap_ms = candidate_cap_ms(
                    optimizer_ms, best_random_ms, IMPROVEMENT_THRESHOLD
                )
                measurement = batch.benchmark_within(qgm, cap_ms, memo=memo)
                if measurement is None:
                    counts.aborted += 1
                    continue
                measurements.append(measurement)
                random_ms = robust_elapsed_ms(measurement)
                if best_random_ms is None or random_ms < best_random_ms:
                    best_random_ms = random_ms
        counts.benchmarked += 1 + len(random_qgms)
        with span.child("rank"):
            ranked = rank_measurements(measurements)

        optimizer_ranked = next(
            plan for plan in ranked if plan.measurement.qgm is optimizer_qgm
        )
        best = ranked[0]
        if best.measurement.qgm is optimizer_qgm:
            return None
        if optimizer_ranked.elapsed_ms <= 0:
            return None
        improvement = (
            optimizer_ranked.elapsed_ms - best.elapsed_ms
        ) / optimizer_ranked.elapsed_ms
        if improvement < IMPROVEMENT_THRESHOLD:
            return None

        problem_root = join_tree_root(optimizer_qgm)
        best_root = join_tree_root(best.measurement.qgm)
        node_cardinalities = {
            node.operator_id: float(node.estimated_cardinality)
            for node in problem_root.walk()
        }
        return _RewriteCandidate(
            problem_root=problem_root,
            best_root=best_root,
            problem_signature=problem_root.shape_signature(),
            best_signature=best_root.shape_signature(),
            improvement=improvement,
            is_original_variant=variant.is_original,
            node_cardinalities=node_cardinalities,
        )
