"""The prepared-statement lane: one stamped entry per served SQL text.

The online tier's verdict for a statement -- the optimizer's baseline plan,
which templates matched it, and the plan each allowed subset of them steers
to -- is a pure function of (SQL text, statistics epoch, knowledge-base
contents).  :class:`PreparedStatements` keeps that verdict in a bounded LRU
keyed by the exact SQL text, so repeated statements stop re-running
segment -> SPARQL -> KB match on every request
(:meth:`repro.core.matching.engine.MatchingEngine.steer_prepared`).

An entry is valid iff its one stamp matches the caller's: the database's
``stats_epoch`` (every DDL / data load / RUNSTATS advances it), the
:class:`~repro.core.knowledge_base.KnowledgeBase` *object* (a hot-reload
swaps it; the object is held, never its ``id()``, so a recycled address
cannot alias) and that object's ``generation`` (every structural mutation
advances it).  Nothing else invalidates, and nothing needs a hook.

What is deliberately *not* in an entry: the guard's screening (quarantine
blocks and probes advance per request) and the usage ticks the match recorded
(replayed per request from ``usage_batches``).  Plans held here are masters,
and read-only like every planned ``Qgm``: executing one writes nothing into
it, so callers hand out :meth:`~repro.engine.plan.physical.Qgm.renamed`
views of the same nodes and any number of threads run them at once.

An entry also holds *outcomes*: beside each plan it hands out, the result of
one unbudgeted execution of that plan (:class:`PlanOutcome`), valid under the
same stamp.  The memo's cold-charge rule makes rows, metrics and
``elapsed_ms`` a pure function of (plan, table data); the plan is read-only
and every data load advances ``stats_epoch``, so a later hit under the same
stamp replays the outcome instead of executing again.  An outcome keeps
copies of the rows its execution first handed out, and a replay hands out
copies of those: one ``dict.copy`` per row.  Row values are immutable
scalars (``int``, ``float``, ``str`` or ``None``), so a shallow copy gives
every response rows of its own, with the same keys in the same order.  An
outcome is published only if the stamp is still the entry's after the
execution that produced it (:meth:`PreparedStatement.keep_outcome`), and
only hits store one: a statement served once leaves no outcome behind.  The
lane therefore holds at most ``CAPACITY`` entries times the plans each hands
out (one per allowed template set; almost always one) outcomes, each the
size of its result's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.cache import LruCache
from repro.engine.executor.executor import ExecutionResult

if TYPE_CHECKING:
    from repro.core.knowledge_base import KnowledgeBase, TemplateMatch
    from repro.engine.executor.metrics import RuntimeMetrics
    from repro.engine.expressions import Row
    from repro.engine.optimizer.guidelines import GuidelineDocument
    from repro.engine.plan.physical import Qgm

#: Template ids the guard let through for one request, in match order.
AllowedIds = Tuple[str, ...]

#: (stats epoch, knowledge base, its generation): what an entry is valid for.
Stamp = Tuple[int, "KnowledgeBase", int]


class PlanOutcome(NamedTuple):
    """One unbudgeted execution of a plan an entry hands out."""

    #: Copies of the rows the execution first handed out; nothing outside
    #: the outcome holds them, and every replay hands out copies of them.
    rows: List["Row"]
    #: Shared by every replay, as are its ``actual_cardinalities``.
    metrics: "RuntimeMetrics"
    elapsed_ms: float
    #: ``ExecutionResult.max_q_error`` of the plan, computed once.
    max_q_error: float

    def replay(self) -> ExecutionResult:
        """The execution's result again, with rows of its own: copies of the
        kept ones."""
        return ExecutionResult(
            rows=list(map(dict.copy, self.rows)),
            metrics=self.metrics,
            elapsed_ms=self.elapsed_ms,
            actual_cardinalities=self.metrics.actual_cardinalities,
        )


@dataclass
class PreparedStatement:
    """The cached verdict for one SQL text under one stamp."""

    stats_epoch: int
    knowledge_base: "KnowledgeBase"
    generation: int
    #: The optimizer's plan (the master; the match verdict's
    #: ``subplan_root`` nodes live in it).
    baseline: "Qgm"
    #: ``match_plan``'s result, before any guard screening.
    matches: List["TemplateMatch"]
    #: The template-id batches ``KnowledgeBase.match`` recorded usage for
    #: while computing ``matches``, one per segment that matched, in order.
    usage_batches: Tuple[Tuple[str, ...], ...]
    #: allowed ids -> (guideline document, steered master plan or None when
    #: the document is empty).  Filled lazily and idempotently
    #: (``setdefault``): two serving threads racing on one statement compute
    #: equal values and the first one published wins.
    plans: Dict[AllowedIds, Tuple["GuidelineDocument", Optional["Qgm"]]] = field(
        default_factory=dict
    )
    #: allowed ids -> the outcome of executing that plan (the steered one,
    #: or the baseline when the document is empty); see :meth:`keep_outcome`.
    outcomes: Dict[AllowedIds, PlanOutcome] = field(default_factory=dict)

    def is_current(
        self, stats_epoch: int, knowledge_base: "KnowledgeBase", generation: int
    ) -> bool:
        return (
            self.stats_epoch == stats_epoch
            and self.knowledge_base is knowledge_base
            and self.generation == generation
        )

    def keep_outcome(
        self, allowed: AllowedIds, qgm: "Qgm", result: ExecutionResult, stamp: Stamp
    ) -> Optional[PlanOutcome]:
        """Store ``result`` -- an unbudgeted execution of ``qgm``, the plan
        ``plans[allowed]`` hands out -- for later hits to replay.

        ``stamp`` is read *after* the execution: a load or RUNSTATS that
        overlapped it advanced the epoch, so the result is kept only if this
        entry is still current (a stale entry is never looked up again).
        The outcome keeps copies of ``result.rows``: those belong to the
        caller, who may change them.  Two threads storing at once compute
        equal outcomes; the first wins.  Returns the outcome kept, or None
        (stale).
        """
        if not self.is_current(*stamp):
            return None
        return self.outcomes.setdefault(
            allowed,
            PlanOutcome(
                list(map(dict.copy, result.rows)),
                result.metrics,
                result.elapsed_ms,
                result.max_q_error(qgm),
            ),
        )


class PreparedStatements:
    """Bounded LRU of :class:`PreparedStatement` entries, keyed by SQL text."""

    #: Equal to ``Database.EXPLAIN_CACHE_SIZE``: a workload of distinct
    #: statements holds no more prepared plans than cached ones.
    CAPACITY = 256

    def __init__(self) -> None:
        self._entries = LruCache(self.CAPACITY)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self,
        sql: str,
        stats_epoch: int,
        knowledge_base: "KnowledgeBase",
        generation: int,
    ) -> Tuple[Optional[PreparedStatement], str]:
        """The entry for ``sql`` if its stamp matches, and the outcome.

        The outcome is ``"hit"``, ``"miss"`` (no entry) or ``"stale"`` (an
        entry exists under another stamp; the caller's ``publish`` replaces
        it).  The caller must have read the stamp *before* any work the
        entry would stand in for.
        """
        entry: Optional[PreparedStatement] = self._entries.get(sql)
        if entry is None:
            return None, "miss"
        if not entry.is_current(stats_epoch, knowledge_base, generation):
            return None, "stale"
        return entry, "hit"

    def peek(
        self,
        sql: str,
        stats_epoch: int,
        knowledge_base: "KnowledgeBase",
        generation: int,
    ) -> bool:
        """Whether :meth:`lookup` would answer ``"hit"`` now; moves nothing."""
        entry: Optional[PreparedStatement] = self._entries.peek(sql)
        return entry is not None and entry.is_current(
            stats_epoch, knowledge_base, generation
        )

    def publish(self, sql: str, entry: PreparedStatement) -> None:
        """Install a fully built entry (replacing any older one for ``sql``)."""
        self._entries.put(sql, entry)

    def clear(self) -> None:
        """Drop every entry (tests reach the miss path this way)."""
        self._entries.clear()
