"""The online matching engine.

Given an incoming SQL query, the engine obtains the optimizer's QGM, segments
it, translates each segment into a SPARQL query (query-by-example) and runs it
against the knowledge base.  Every matched problem pattern contributes its
recommended rewrite -- a guideline whose canonical table labels are remapped to
the query's actual table instances -- and the collected guideline document is
submitted with the query to the optimizer for re-optimization.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.knowledge_base import KnowledgeBase, TemplateMatch
from repro.core.matching.prepared import PreparedStatement, PreparedStatements, Stamp
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import remap_guideline_document
from repro.core.transform.sparql_gen import sparql_for_subplan
from repro.engine.database import Database
from repro.engine.optimizer.guidelines import GuidelineDocument, parse_guidelines
from repro.engine.plan.physical import Qgm
from repro.engine.sql.binder import BoundQuery
from repro.obs.tracing import NULL_SPAN


@dataclass
class MatchingConfig:
    """Knobs of the online matching / re-optimization process."""

    #: Join-number cap for plan segmentation (same threshold as learning).
    max_joins: int = 4
    #: Tolerance applied to cardinalities in the generated SPARQL (1.0 = exact).
    cardinality_tolerance: float = 1.0
    #: Whether FPages / row-size checks are included in the generated SPARQL.
    check_row_size: bool = True
    #: Consult the knowledge base's template index before running SPARQL.
    use_index: bool = True
    #: Measure plans through the database's workload-scoped execution memo:
    #: the baseline and re-optimized plans of one query share their scan and
    #: join subtrees, and recurring statements across a workload sweep share
    #: them again.  Results are bit-identical either way (cold-charge rule);
    #: disable only to benchmark the memo itself.
    use_workload_memo: bool = True


@dataclass
class QueryReoptimization:
    """Outcome of re-optimizing one query."""

    query_name: str
    sql: str
    original_qgm: Qgm
    reoptimized_qgm: Qgm
    guideline_document: GuidelineDocument
    matches: List[TemplateMatch] = field(default_factory=list)
    match_time_ms: float = 0.0
    original_elapsed_ms: Optional[float] = None
    reoptimized_elapsed_ms: Optional[float] = None

    @property
    def was_reoptimized(self) -> bool:
        return bool(self.matches) and not self.guideline_document.is_empty

    @property
    def plan_changed(self) -> bool:
        """True when the honoured guidelines produced a different plan.

        A guideline can be matched yet end up not altering the plan (the
        optimizer may already agree with it, or may reject it as incompatible);
        such queries are matched but not re-optimized in any meaningful sense.
        """
        if not self.was_reoptimized:
            return False
        original = (
            self.original_qgm.shape_signature(),
            tuple(self.original_qgm.aliases()),
        )
        reoptimized = (
            self.reoptimized_qgm.shape_signature(),
            tuple(self.reoptimized_qgm.aliases()),
        )
        return original != reoptimized

    @property
    def matched_template_ids(self) -> List[str]:
        return [match.template.template_id for match in self.matches]

    @property
    def improvement(self) -> float:
        """Relative runtime improvement (0 when the query was not re-optimized)."""
        if (
            self.original_elapsed_ms is None
            or self.reoptimized_elapsed_ms is None
            or self.original_elapsed_ms <= 0
        ):
            return 0.0
        return (self.original_elapsed_ms - self.reoptimized_elapsed_ms) / self.original_elapsed_ms

    @property
    def normalized_runtime(self) -> float:
        """Re-optimized runtime as a fraction of the original (Figure 10's blue bar)."""
        if (
            self.original_elapsed_ms is None
            or self.reoptimized_elapsed_ms is None
            or self.original_elapsed_ms <= 0
        ):
            return 1.0
        return self.reoptimized_elapsed_ms / self.original_elapsed_ms


@dataclass
class SteeringDecision:
    """Outcome of the plan-only online pipeline (no execution).

    Produced by :meth:`MatchingEngine.steer` (and its cached twin
    :meth:`MatchingEngine.steer_prepared`) for the serving tier, which wants
    to execute a query exactly once -- on the steered plan when the knowledge
    base matched, on the baseline plan otherwise -- instead of executing both
    sides the way :meth:`MatchingEngine.reoptimize` does for experiments.
    """

    query_name: str
    sql: str
    baseline_qgm: Qgm
    qgm: Qgm
    matches: List[TemplateMatch] = field(default_factory=list)
    guideline_document: GuidelineDocument = field(default_factory=GuidelineDocument)
    match_time_ms: float = 0.0
    #: How the prepared-statement lane answered: ``"hit"`` (verdict replayed),
    #: ``"miss"`` / ``"stale"`` (verdict computed; stale = an entry existed
    #: under an older stamp).  Empty from the uncached :meth:`steer`.
    prepared: str = ""

    @property
    def steered(self) -> bool:
        return bool(self.matches) and not self.guideline_document.is_empty

    @property
    def matched_template_ids(self) -> List[str]:
        return [match.template.template_id for match in self.matches]


class MatchingEngine:
    """Re-optimizes queries online using the knowledge base."""

    def __init__(
        self,
        database: Database,
        knowledge_base: KnowledgeBase,
        config: Optional[MatchingConfig] = None,
    ):
        self.database = database
        self.knowledge_base = knowledge_base
        self.config = config or MatchingConfig()
        self._segment_queries_built = 0
        #: The prepared-statement lane behind :meth:`steer_prepared`.
        self.prepared = PreparedStatements()

    # What is left of the segment-SPARQL text cache: ``bench/`` reads both for
    # its ``sparql_cache_hit_ratio``, 0.0 by construction; ROADMAP item 2(c)
    # deletes them.  The count is kept without a lock -- the tests' own
    # threads can lose a tick, and the ratio is 0.0 either way.

    @property
    def sparql_cache_hits(self) -> int:
        return 0

    @property
    def sparql_cache_misses(self) -> int:
        """Segment queries built by :meth:`match_plan` so far."""
        return self._segment_queries_built

    # ------------------------------------------------------------------

    def match_plan(self, qgm: Qgm) -> Tuple[List[TemplateMatch], float]:
        """Match a QGM's segments against the knowledge base.

        Returns the matches (at most one per plan segment, preferring the
        template with the largest recorded improvement) and the matching time
        in milliseconds.
        """
        matches, _, elapsed_ms = self._match_plan_recording_usage(qgm)
        return matches, elapsed_ms

    def _match_plan_recording_usage(
        self, qgm: Qgm
    ) -> Tuple[List[TemplateMatch], Tuple[Tuple[str, ...], ...], float]:
        """:meth:`match_plan`, also returning the usage batches it caused.

        ``KnowledgeBase.match`` ticks its usage clock once per segment whose
        ``found`` list is non-empty and credits a hit to *every* template in
        it (not only the best one); the batches are those id lists, in
        order, so a cached verdict can replay them exactly.
        """
        started = time.perf_counter()
        matches: List[TemplateMatch] = []
        usage_batches: List[Tuple[str, ...]] = []
        claimed_aliases: set = set()
        segments = segment_plan(qgm, self.config.max_joins)
        # Prefer larger (more specific) segments first.
        for segment in reversed(segments):
            segment_aliases = set(segment.aliases())
            if segment_aliases & claimed_aliases:
                continue
            # Built on first read: the knowledge base asks its index first.
            generated = sparql_for_subplan(
                segment,
                catalog=self.database.catalog,
                check_row_size=self.config.check_row_size,
                cardinality_tolerance=self.config.cardinality_tolerance,
            )
            found = self.knowledge_base.match(
                generated, subplan_root=segment, use_index=self.config.use_index
            )
            self._segment_queries_built += generated.query_built
            if not found:
                continue
            usage_batches.append(tuple(match.template.template_id for match in found))
            best = max(found, key=lambda match: match.template.improvement)
            matches.append(best)
            claimed_aliases |= segment_aliases
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        return matches, tuple(usage_batches), elapsed_ms

    def build_guidelines(self, matches: Sequence[TemplateMatch]) -> GuidelineDocument:
        """Collect the recommended rewrites of ``matches`` into one document."""
        document = GuidelineDocument()
        for match in matches:
            template_document = parse_guidelines(match.template.guideline_xml)
            remapped = remap_guideline_document(template_document, match.label_to_alias)
            document.elements.extend(remapped.elements)
        return document

    # ------------------------------------------------------------------

    def execution_memo(self):
        """The memo plan measurements run through (None when disabled).

        The online tier's measurement path (``reoptimize(execute=True)`` and
        the serving layer's single execution per request) shares the same
        workload-scoped memo as the learning tier, so steered-vs-baseline
        comparisons stop re-executing subtrees the sweep has already paid for.
        """
        if not self.config.use_workload_memo:
            return None
        return self.database.workload_memo()

    def reoptimize(
        self, sql: str, query_name: str = "", execute: bool = True
    ) -> QueryReoptimization:
        """Run the full online pipeline for one query: :meth:`steer`, then
        (with ``execute``) both plans, to measure the gain."""
        decision = self.steer(sql, query_name=query_name)
        result = QueryReoptimization(
            query_name=query_name,
            sql=sql,
            original_qgm=decision.baseline_qgm,
            reoptimized_qgm=decision.qgm,
            guideline_document=decision.guideline_document,
            matches=decision.matches,
            match_time_ms=decision.match_time_ms,
        )
        if execute:
            memo = self.execution_memo()
            original_run = self.database.execute_plan(decision.baseline_qgm, memo=memo)
            result.original_elapsed_ms = original_run.elapsed_ms
            if decision.qgm is decision.baseline_qgm:
                result.reoptimized_elapsed_ms = original_run.elapsed_ms
            else:
                reoptimized_run = self.database.execute_plan(decision.qgm, memo=memo)
                # Runtimes here are *simulated* milliseconds (they stand in for
                # the minutes-to-hours runtimes of the paper's queries), while
                # the matching time is real wall-clock.  The paper reports the
                # rewrite overhead as marginal relative to query runtimes, so we
                # keep the two separate: ``match_time_ms`` is reported on its
                # own rather than folded into the simulated runtime.
                result.reoptimized_elapsed_ms = reoptimized_run.elapsed_ms
        return result

    def steer(
        self, sql: str, query_name: str = "", span=NULL_SPAN, match_filter=None
    ) -> SteeringDecision:
        """Match and (when possible) re-plan one query without executing it.

        When no template matches, ``qgm`` is the baseline plan; the caller
        executes whichever plan the decision carries exactly once.  ``span``
        (default: the no-op span) receives ``plan`` / ``match`` / ``steer``
        child spans for the three phases.  ``match_filter`` (optional,
        ``matches -> matches``) screens the match list before guidelines are
        built -- the serving tier's regression guard drops quarantined
        templates here, *before* the steered re-plan, so a fully blocked
        request pays no second optimizer call.
        """
        with span.child("plan") as plan_span:
            baseline_qgm = self.database.explain(sql, query_name=query_name)
            if plan_span.recording:
                plan_span.set("operators", len(baseline_qgm.nodes()))
        with span.child("match") as match_span:
            matches, match_time_ms = self.match_plan(baseline_qgm)
            match_span.set("matches", len(matches))
        if match_filter is not None:
            matches = list(match_filter(matches))
        guideline_document = self.build_guidelines(matches)
        if guideline_document.is_empty:
            qgm = baseline_qgm
        else:
            with span.child("steer") as steer_span:
                qgm = self.database.explain(
                    sql,
                    guidelines=guideline_document,
                    query_name=f"{query_name} (steered)",
                    bound=baseline_qgm.query,
                )
                if steer_span.recording:
                    steer_span.set(
                        "templates", [match.template.template_id for match in matches]
                    )
        return SteeringDecision(
            query_name=query_name,
            sql=sql,
            baseline_qgm=baseline_qgm,
            qgm=qgm,
            matches=matches,
            guideline_document=guideline_document,
            match_time_ms=match_time_ms,
        )

    def stamp(self) -> Stamp:
        """The current prepared-lane stamp (the KB object is read once)."""
        knowledge_base = self.knowledge_base
        return self.database.stats_epoch, knowledge_base, knowledge_base.generation

    def steer_prepared(
        self,
        sql: str,
        query_name: str = "",
        span=NULL_SPAN,
        match_filter=None,
        hit: Optional[Tuple[Stamp, PreparedStatement]] = None,
    ) -> SteeringDecision:
        """:meth:`steer`, served from the prepared-statement lane.

        Same arguments, same spans, same decision as :meth:`steer` -- which
        stays the uncached reference -- but a statement served before under
        an unchanged stamp (see :mod:`repro.core.matching.prepared`) skips
        ``explain`` + ``match_plan`` + ``build_guidelines`` + the steered
        ``explain``.  Still done on every request, because each is per-request
        state rather than a function of the stamp: ``match_filter`` screens
        the cached raw matches (probe counters advance, and the steered plan
        is looked up by the ids it *allowed*); the usage ticks the match
        recorded are replayed into the knowledge base; and the plans handed
        out are :meth:`~repro.engine.plan.physical.Qgm.renamed` views of the
        entry's read-only masters, so the memo keys a master derives on its
        first execution serve every later hit.

        ``hit`` is a ``(stamp, entry)`` pair a caller's own
        :meth:`~repro.core.matching.prepared.PreparedStatements.lookup`
        answered ``"hit"`` under, with nothing run in between: it is served
        without a second lookup.
        """
        if hit is None:
            # The stamp is read before any work an entry would stand in for:
            # an entry built while another thread mutates the KB (a test's
            # writer) or a hot-reload swaps it then carries the older stamp
            # and is stale by construction.
            stamp = self.stamp()
            entry, outcome = self.prepared.lookup(sql, *stamp)
        else:
            (stamp, entry), outcome = hit, "hit"
        stats_epoch, knowledge_base, generation = stamp
        with span.child("plan") as plan_span:
            if entry is None:
                master = self.database.explain(sql, query_name=query_name)
            else:
                master = entry.baseline
            baseline_qgm = master.renamed(query_name)
            if plan_span.recording:
                plan_span.set("operators", len(baseline_qgm.nodes()))
        with span.child("match") as match_span:
            if entry is None:
                matches, usage_batches, match_time_ms = (
                    self._match_plan_recording_usage(master)
                )
                entry = PreparedStatement(
                    stats_epoch=stats_epoch,
                    knowledge_base=knowledge_base,
                    generation=generation,
                    baseline=master,
                    matches=matches,
                    usage_batches=usage_batches,
                )
                # ``KnowledgeBase.match`` reads without the write lock, so a
                # match that overlapped a mutation can mix two states.  Such
                # a verdict still answers this request (as ``steer()`` would)
                # but is published only if the stamp it carries is still the
                # current one -- a second reader holding the same stamp must
                # never be handed it as a hit.
                if entry.is_current(*self.stamp()):
                    self.prepared.publish(sql, entry)
            else:
                started = time.perf_counter()
                knowledge_base.replay_usage(entry.usage_batches)
                match_time_ms = (time.perf_counter() - started) * 1000.0
            match_span.set("matches", len(entry.matches))
            match_span.set("prepared", outcome)
        matches = list(entry.matches)
        if match_filter is not None:
            matches = list(match_filter(matches))
        allowed = tuple(match.template.template_id for match in matches)
        cached = entry.plans.get(allowed)
        if cached is None:
            guideline_document = self.build_guidelines(matches)
            steered_master = None
        else:
            guideline_document, steered_master = cached
        if guideline_document.is_empty:
            qgm = baseline_qgm
        else:
            steered_name = f"{query_name} (steered)"
            with span.child("steer") as steer_span:
                if steered_master is None:
                    steered_master = self.database.explain(
                        sql,
                        guidelines=guideline_document,
                        query_name=steered_name,
                        bound=master.query,
                    )
                qgm = steered_master.renamed(steered_name)
                if steer_span.recording:
                    steer_span.set("templates", list(allowed))
        if cached is None:
            entry.plans.setdefault(allowed, (guideline_document, steered_master))
        return SteeringDecision(
            query_name=query_name,
            sql=sql,
            baseline_qgm=baseline_qgm,
            qgm=qgm,
            matches=matches,
            guideline_document=guideline_document,
            match_time_ms=match_time_ms,
            prepared=outcome,
        )

    def reoptimize_workload(
        self,
        queries: Sequence[Union[str, Tuple[str, str]]],
        execute: bool = True,
    ) -> List[QueryReoptimization]:
        """Re-optimize a whole workload (list of SQL strings or (name, sql)
        pairs), one query after the other; results are in submission order."""
        results: List[QueryReoptimization] = []
        for position, entry in enumerate(queries, start=1):
            if isinstance(entry, tuple):
                query_name, sql = entry
            else:
                query_name, sql = f"Q{position}", entry
            results.append(self.reoptimize(sql, query_name=query_name, execute=execute))
        return results
