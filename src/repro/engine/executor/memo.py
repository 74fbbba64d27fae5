"""Shared-subplan memoization for the vectorized executor.

GALO's learning tier executes the optimizer's plan plus every random/guided
plan variant of one sub-query; those candidate plans re-scan and re-filter the
same tables over and over.  An :class:`ExecutionMemo` caches the *data*
outcome of structurally identical scan / FILTER / SORT subtrees -- their
qualifying position vectors over the table's backing columns -- and of whole
join subtrees (one position vector per input table; page-access traces
recorded compositionally from their children's), so each subtree is evaluated
once per memo scope instead of once per plan.

Memo scope
----------
The memo is *workload-scoped* by default: :meth:`repro.engine.database.
Database.workload_memo` hands out one shared instance used by every
``learn_query`` call of a workload sweep, by the online tier's plan
measurement, and by the serving layer -- sub-queries repeat across workload
queries, not just within one.  The instance is stamped with the database's
*storage epoch* and lazily swapped for a fresh one whenever DDL or data
loads bump that epoch.  RUNSTATS deliberately does not: it bumps only the
statistics epoch (cost model inputs / plan cache), while every memo payload
-- result entries, gathered aux columns, key groupings -- is a
pure function of storage and stays valid.  Entries therefore never outlive
the table data they were computed from, and survive re-collections.  Entries
are immutable once stored and the dicts are only ever replaced wholesale on
reset, which makes concurrent readers (the serving (loop) thread and the
learner thread) safe without a lock.

Cold-charge accounting rule
---------------------------
Caching must not change what any plan is *charged*: the runtime simulation
ranks plans by simulated elapsed time, and a plan must cost the same whether
its scans were computed or reused.  Each memo entry therefore records

* ``deltas`` -- the pool-independent metric increments the subtree performed
  (rows processed, index lookups, CPU/sort work, spills, ...), replayed into
  the consuming plan's :class:`RuntimeMetrics` on every hit; and
* ``traces`` -- the exact buffer-pool page access sequence, replayed through
  the consuming plan's *own* (cold) :class:`BufferPool` so logical/physical
  reads and random-page flooding are recomputed against that plan's pool
  state, never copied from another plan's.  A per-row (``rand``) sequence is
  one immutable :class:`~repro.engine.executor.bufferpool.PageTrace`; a join
  entry's traces are its children's trace objects plus its own, shared by
  reference.  The trace carries the summary its replays need (distinct pages
  in last-use order, computed by the first one), so that summary is shared
  by every entry the trace is composed into and lives exactly as long as
  they do -- no cache beside the memo, nothing to invalidate.

The result: simulated ``elapsed_ms``, per-operator actual cardinalities and
result rows are bit-identical to executing every plan from scratch.

Auxiliary structures -- gathered columns and the key groupings joins and
GROUP BY read -- are cached in ``aux`` keyed by the memoized child's subtree
key; they are pure functions of the child's batch, so reuse is safe whenever
the child itself is memoizable.

Interrupted plans
-----------------
The learning tier stops most candidate plans before they finish (``execute(...,
budget_ms=...)`` raises :class:`~repro.errors.PlanBudgetExceeded`).  The rule
above survives that without a rollback: a handler stores its entry as the
last thing it does, and the budget is enforced only between operators or
before an operator has produced anything, so an entry exists only for a
subtree that ran to completion -- with its complete deltas and trace -- and
every ``aux`` structure was built from a completed child.  An interrupted
plan leaves complete subtrees or nothing.

Whole-plan outcomes
-------------------
The second payload kind is a :class:`PlanOutcome`: one unbudgeted execution
of a whole plan -- copies of its rows, its metrics (with the actual
cardinalities) and ``elapsed_ms`` -- keyed by the plan's structure
(:func:`~repro.engine.executor.vectorized.plan_key`).  By the rule above
those are a pure function of (plan, table data), so an outcome is valid for
the storage epoch whatever the KB or RUNSTATS did since.  It is charged
against ``max_bytes`` (:meth:`PlanOutcome.estimated_bytes`) and evicted FIFO
with the subtree entries.  A replay hands out ``dict.copy``s of the kept
rows, whose values are immutable scalars.  The server stores an outcome
through the :meth:`~ExecutionMemo.pinned` view its execution ran against, so
a load that overlapped the execution orphans it with that snapshot.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.engine.columns import nbytes_of
from repro.engine.executor.bufferpool import BufferPool
from repro.engine.executor.executor import ExecutionResult
from repro.engine.executor.metrics import RuntimeMetrics
from repro.engine.expressions import Row
from repro.engine.plan.physical import PlanNode, Qgm

#: A page-access replay step: ``("seq", table, first_page, page_count)`` for a
#: sequential run (misses are not random I/O), or ``("rand", table, trace)``
#: for per-row accesses whose misses count as random pages.  ``trace`` is a
#: :class:`~repro.engine.executor.bufferpool.PageTrace`: entries composed from
#: one another share it by reference, and with it the summary (distinct pages
#: in last-use order) its first replay computes -- the summary lives and dies
#: with the trace, so with the entries holding it.
Trace = Tuple[Any, ...]

#: One input table of an output batch: ``"<alias>.<column>"`` -> the table's
#: backing array (shared, read-only), plus the positions of the batch's rows
#: within those arrays, in output order (``None`` = the arrays are themselves
#: aligned with the batch, e.g. a GRPBY output).
Source = Tuple[Dict[str, Sequence[Any]], Optional[Sequence[int]]]

#: What one access of a ``rand`` trace is charged against ``max_bytes``.
TRACE_BYTES_PER_ACCESS = 32


@dataclass
class MemoEntry:
    """Cached outcome of one scan/FILTER/SORT/join subtree execution.

    What an entry owns of the data is position vectors, never a column copy:
    the output batch is rebuilt from ``sources`` on every hit, and the columns
    a consuming plan reads are gathered into that plan's batch.
    """

    #: The output batch's sources, one per input table (see
    #: :class:`repro.engine.executor.vectorized.Batch`).
    sources: Tuple[Source, ...]
    #: Row count of the output batch.
    length: int
    #: Pool-independent metric increments, as (counter name, amount) pairs.
    #: ``sort_heap_high_water_mark`` is merged with ``max`` instead of ``+``.
    deltas: Tuple[Tuple[str, int], ...]
    #: Buffer-pool access sequence to replay into the consuming plan's pool.
    traces: Tuple[Trace, ...]
    #: The actual cardinality of every subtree node below the root, in
    #: pre-order, so a hit can record operators it did not execute.
    child_cardinalities: Tuple[int, ...] = ()
    #: Estimated payload bytes (filled on first ``ExecutionMemo.store``).
    nbytes: int = 0

    def estimated_bytes(self) -> int:
        """Estimated bytes this entry *owns*.

        Entries share a table's backing columns with every other entry over
        that table -- charging each the full column payload would let one
        table's scans blow the whole byte budget -- so an entry is charged for
        its position vectors (ndarray ``nbytes``, or a per-element estimate
        for lists), one per input table, plus its traces
        (:data:`TRACE_BYTES_PER_ACCESS` an access, shared or not).  A source
        without positions has arrays of the batch's own (no executor stores
        one today) and is charged for them in full.
        """
        total = 256  # struct overhead: deltas, cardinalities, dict slot
        for columns, positions in self.sources:
            if positions is not None:
                total += nbytes_of(positions)
            else:
                for values in columns.values():
                    total += nbytes_of(values)
        for trace in self.traces:
            if trace[0] == "rand":
                total += TRACE_BYTES_PER_ACCESS * len(trace[2])
        return total

    def replay(self, metrics: RuntimeMetrics, pool: BufferPool) -> None:
        """Charge this subtree to ``metrics`` / ``pool`` as if executed cold."""
        for name, amount in self.deltas:
            if name == "sort_heap_high_water_mark":
                metrics.sort_heap_high_water_mark = max(
                    metrics.sort_heap_high_water_mark, amount
                )
            else:
                setattr(metrics, name, getattr(metrics, name) + amount)
        for trace in self.traces:
            if trace[0] == "seq":
                pool.access_sequential(trace[1], trace[2], trace[3])
            else:
                metrics.random_pages += pool.access_many(trace[1], trace[2])


@dataclass
class PlanOutcome:
    """One unbudgeted execution of a whole plan, kept for replay: copies of
    its rows (nothing else holds them), its metrics (with the actual
    cardinalities; every replay shares them) and ``elapsed_ms``, plus the
    root of the plan it was kept from and that plan's max q-error."""

    rows: List[Row]
    metrics: RuntimeMetrics
    elapsed_ms: float
    root: PlanNode
    q_error: float
    #: Estimated payload bytes (filled on first ``ExecutionMemo.store``).
    nbytes: int = 0

    @classmethod
    def of(cls, qgm: Qgm, result: ExecutionResult) -> "PlanOutcome":
        """``result``, an unbudgeted execution of ``qgm``; its rows are the
        caller's, so the outcome keeps copies."""
        rows = list(map(dict.copy, result.rows))
        return cls(rows, result.metrics, result.elapsed_ms, qgm.root, result.max_q_error(qgm))

    def estimated_bytes(self) -> int:
        """The row list, plus per row its dict and values, sized on the first."""
        row = self.rows[0] if self.rows else {}
        per_row = sys.getsizeof(row) + sum(map(sys.getsizeof, row.values()))
        return 256 + sys.getsizeof(self.rows) + per_row * len(self.rows)

    def replay(self) -> ExecutionResult:
        """The result again, with rows of its own: copies of the kept ones."""
        return ExecutionResult(
            rows=list(map(dict.copy, self.rows)),
            metrics=self.metrics,
            elapsed_ms=self.elapsed_ms,
            actual_cardinalities=self.metrics.actual_cardinalities,
        )


#: What the result-entry cache holds: subtree entries and whole-plan outcomes.
Payload = Union[MemoEntry, PlanOutcome]


@dataclass
class ExecutionMemo:
    """Subtree-result cache + auxiliary join structures for one memo scope.

    Valid only while the underlying table data is unchanged.  The workload
    scope (obtained from :meth:`repro.engine.database.Database.workload_memo`)
    stamps ``epoch`` with the database's *storage* epoch and resets the memo
    when that epoch moves (DDL / data loads; stats-only changes keep it);
    short-lived callers may still create a private instance per
    plan-evaluation sweep and discard it.

    ``max_entries`` bounds both caches (FIFO eviction): a long-lived serving
    process must not grow the memo without bound.  ``max_bytes`` additionally
    bounds the *estimated payload bytes* of the result-entry cache (see
    :meth:`MemoEntry.estimated_bytes`): entry counts alone let a handful of
    huge join outputs outweigh thousands of scan entries.  An
    entry larger than the whole budget is simply not cached (storing it would
    evict everything else for one tenant).  Byte accounting is best-effort
    under the same lock-free concurrency rules as the entry cap.  A join
    entry refers to no child entry -- it holds its own position vectors and
    shares its children's immutable trace objects by reference -- so
    evicting a child never invalidates a parent entry.

    ``entries`` also holds whole-plan :class:`PlanOutcome` objects (rows,
    metrics, ``elapsed_ms``) under plan keys: valid for the storage epoch,
    charged against ``max_bytes``, evicted FIFO, replayed as copies of the
    rows, read with :meth:`peek` (no hit/miss counter moves) and stored
    through the :meth:`pinned` view the execution ran against.
    """

    entries: Dict[Hashable, Payload] = field(default_factory=dict)
    #: (kind, child subtree key, column(s)) -> gathered column / key grouping
    aux: Dict[Hashable, Any] = field(default_factory=dict)
    #: Storage epoch this memo's entries were computed at (None = unmanaged).
    epoch: Optional[int] = None
    #: Per-cache entry cap (None = unbounded); oldest entries evicted first.
    max_entries: Optional[int] = None
    #: Byte budget for the result-entry cache (None = unbounded).
    max_bytes: Optional[int] = None
    #: Byte total of the *current* ``entries`` dict, boxed so it travels with
    #: the dict it describes: :meth:`pinned` views share the box along with
    #: the dicts, and :meth:`reset` replaces both together -- a pinned
    #: execution's late stores therefore account against its own (orphaned)
    #: snapshot and can never corrupt the new epoch's budget.
    entry_bytes_box: List[int] = field(default_factory=lambda: [0])
    #: Cumulative counters, held in one mutable mapping so :meth:`pinned`
    #: handles and the shared memo report into the same place.
    counters: Dict[str, int] = field(
        default_factory=lambda: {
            "hits": 0,
            "misses": 0,
            "aux_hits": 0,
            "aux_misses": 0,
            "resets": 0,
            "byte_evictions": 0,
        }
    )

    @property
    def hits(self) -> int:
        return self.counters["hits"]

    @property
    def misses(self) -> int:
        return self.counters["misses"]

    @property
    def aux_hits(self) -> int:
        return self.counters["aux_hits"]

    @property
    def aux_misses(self) -> int:
        return self.counters["aux_misses"]

    @property
    def resets(self) -> int:
        return self.counters["resets"]

    def pinned(self) -> "ExecutionMemo":
        """A per-execution handle over this memo's *current* dicts.

        The executor pins an epoch-managed memo once per ``execute`` call: if
        a concurrent data change resets the shared memo mid-execution, the
        in-flight run keeps reading and writing the snapshot it started with
        (the orphaned dicts), so results computed from pre-change data can
        never leak into the new epoch's cache.  Counters are shared, so
        observability is unaffected.
        """
        view = ExecutionMemo(
            entries=self.entries,
            aux=self.aux,
            epoch=self.epoch,
            max_entries=self.max_entries,
            max_bytes=self.max_bytes,
            entry_bytes_box=self.entry_bytes_box,
            counters=self.counters,
        )
        return view

    def lookup(self, key: Hashable) -> Optional[MemoEntry]:
        try:
            entry: Any = self.entries.get(key)
        except TypeError:  # unhashable predicate somewhere in the key
            entry = None
        if entry is None:
            self.counters["misses"] += 1
        else:
            self.counters["hits"] += 1
        return entry

    def _put_capped(self, target: Dict[Hashable, Any], key: Hashable, value: Any) -> None:
        """Insert ``key`` into ``target``, evicting the oldest entry at the cap.

        The cap is best-effort under concurrency: the dicts are shared across
        threads without a lock (see the module docstring), so the oldest-key
        probe can race a concurrent insert/pop -- ``RuntimeError`` ("dict
        changed size during iteration") simply skips this eviction, and two
        racing stores may briefly overshoot the cap by one.  Unhashable keys
        (``TypeError``) are silently not cached, as in ``lookup``.
        """
        try:
            if (
                self.max_entries is not None
                and len(target) >= self.max_entries
                and key not in target
            ):
                try:
                    target.pop(next(iter(target)), None)
                except (StopIteration, RuntimeError):
                    pass
            target[key] = value
        except TypeError:
            pass

    @staticmethod
    def _evict_oldest_entry(target: Dict[Hashable, Any], bytes_box: List[int]) -> bool:
        """Pop the FIFO-oldest result entry, releasing its bytes."""
        try:
            evicted = target.pop(next(iter(target)), None)
        except (StopIteration, RuntimeError):
            return False
        if evicted is not None:
            bytes_box[0] -= evicted.nbytes
        return evicted is not None

    def store(self, key: Hashable, entry: Payload) -> None:
        """Cache a result entry, enforcing the entry-count and byte budgets.

        Sizing happens once per entry; an entry bigger than the whole byte
        budget is not cached at all.  Both caps evict FIFO-oldest first and
        are best-effort under the lock-free sharing rules of
        :meth:`_put_capped`.  The dict and its byte box are read as one pair,
        so accounting follows whichever snapshot this handle stores into.
        """
        if entry.nbytes == 0:
            entry.nbytes = entry.estimated_bytes()
        if self.max_bytes is not None and entry.nbytes > self.max_bytes:
            return
        target = self.entries
        bytes_box = self.entry_bytes_box
        try:
            replaced = target.get(key)
            if (
                self.max_entries is not None
                and replaced is None
                and len(target) >= self.max_entries
            ):
                self._evict_oldest_entry(target, bytes_box)
            target[key] = entry
        except TypeError:  # unhashable key: silently not cached
            return
        bytes_box[0] += entry.nbytes - (replaced.nbytes if replaced else 0)
        if self.max_bytes is not None:
            while bytes_box[0] > self.max_bytes and len(target) > 1:
                if not self._evict_oldest_entry(target, bytes_box):
                    break
                self.counters["byte_evictions"] += 1

    def peek(self, key: Hashable) -> Any:
        """``lookup`` without touching the hit/miss counters."""
        try:
            return self.entries.get(key)
        except TypeError:
            return None

    def aux_lookup(self, key: Hashable) -> Any:
        try:
            value = self.aux.get(key)
        except TypeError:
            value = None
        if value is None:
            self.counters["aux_misses"] += 1
        else:
            self.counters["aux_hits"] += 1
        return value

    def aux_store(self, key: Hashable, value: Any) -> None:
        self._put_capped(self.aux, key, value)

    def reset(self, epoch: Optional[int] = None) -> None:
        """Drop every cached entry and restamp the memo at ``epoch``.

        The dicts are *replaced*, not cleared: replacement is a single atomic
        store, so a concurrent reader on another thread sees either the old
        snapshot or the new empty one, never a half-cleared dict -- and an
        execution pinned (:meth:`pinned`) to the old dicts keeps its
        consistent snapshot, its late stores landing nowhere visible.
        """
        self.entries = {}
        self.aux = {}
        # A fresh box alongside the fresh dict: executions still pinned to
        # the old snapshot keep accounting against the old box.
        self.entry_bytes_box = [0]
        self.epoch = epoch
        self.counters["resets"] += 1

    @property
    def entry_bytes(self) -> int:
        """Estimated bytes held by the result-entry cache (best-effort)."""
        return self.entry_bytes_box[0]

    def stats(self) -> Dict[str, int]:
        """Point-in-time cache statistics (counts, hit/miss totals, bytes);
        ``outcomes`` / ``outcome_bytes`` are the plan outcomes' share of
        ``entries`` / ``entry_bytes``."""
        outcomes = [
            entry.nbytes
            for entry in list(self.entries.values())
            if isinstance(entry, PlanOutcome)
        ]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "aux_hits": self.aux_hits,
            "aux_misses": self.aux_misses,
            "entries": len(self.entries),
            "entry_bytes": self.entry_bytes,
            "byte_evictions": self.counters.get("byte_evictions", 0),
            "aux_entries": len(self.aux),
            "resets": self.resets,
            "outcomes": len(outcomes),
            "outcome_bytes": sum(outcomes),
        }
