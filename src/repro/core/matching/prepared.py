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

An entry keeps verdicts only.  What executing a plan it hands out produced
-- rows, metrics, ``elapsed_ms`` -- is a function of (plan, table data), not
of this stamp, and is kept in the execution memo under the plan's key
(:class:`repro.engine.executor.memo.PlanOutcome`): a stale entry whose
re-matched plan is unchanged still replays its execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.cache import LruCache

if TYPE_CHECKING:
    from repro.core.knowledge_base import KnowledgeBase, TemplateMatch
    from repro.engine.optimizer.guidelines import GuidelineDocument
    from repro.engine.plan.physical import Qgm

#: Template ids the guard let through for one request, in match order.
AllowedIds = Tuple[str, ...]

#: (stats epoch, knowledge base, its generation): what an entry is valid for.
Stamp = Tuple[int, "KnowledgeBase", int]


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
    #: (``setdefault``): the serving (loop) thread and the learner thread
    #: racing on one statement compute equal values and the first one
    #: published wins.
    plans: Dict[AllowedIds, Tuple["GuidelineDocument", Optional["Qgm"]]] = field(
        default_factory=dict
    )

    def is_current(
        self, stats_epoch: int, knowledge_base: "KnowledgeBase", generation: int
    ) -> bool:
        return (
            self.stats_epoch == stats_epoch
            and self.knowledge_base is knowledge_base
            and self.generation == generation
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
