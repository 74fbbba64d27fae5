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
Every vectorized execution runs through a memo.  :meth:`repro.engine.
database.Database.workload_memo` hands out the shared one, used by every
``learn_query`` call of a workload sweep, by the online tier's plan
measurement, and by the serving layer -- sub-queries repeat across workload
queries, not just within one; a call that passes no memo runs through a
private one that is dropped when the call returns.  The workload instance is
stamped with the database's *storage epoch* and lazily swapped for a fresh
one whenever DDL or data loads bump that epoch.  RUNSTATS deliberately does
not: it bumps only the statistics epoch (cost model inputs / plan cache),
while every memo payload -- result entries, gathered aux columns, key
groupings -- is a pure function of storage and stays valid.  Entries
therefore never outlive the table data they were computed from, and survive
re-collections.  Entries are immutable once stored.  A service's requests
and its learner share the event-loop thread, so the memo is used from one
thread and takes no lock.

Keys are :class:`~repro.engine.executor.vectorized.SubtreeKey` objects,
hashed once when the executor builds them (a subtree whose key would not
hash gets no key and is not memoized), and ``("col" | "groups", SubtreeKey,
column(s))`` tuples over them; so the memo never sees an unhashable key.

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
of a whole plan -- read-only copies of its rows (:class:`FrozenRow`), its
metrics (with the actual cardinalities) and ``elapsed_ms`` -- keyed by the
plan's structure (:func:`~repro.engine.executor.vectorized.plan_key`).  By
the rule above those are a pure function of (plan, table data), so an
outcome is valid for the storage epoch whatever the KB or RUNSTATS did
since.  It is charged against ``max_bytes``
(:meth:`PlanOutcome.estimated_bytes`) and evicted FIFO with the subtree
entries.  A replay hands out a list of its own holding the kept rows
themselves, shared by every replay: a row refuses every change, its values
are immutable scalars, and ``dict(row)`` is a private mutable copy.  The
server keeps an outcome only while the memo's epoch is still the one its
execution started under, so a load run inside the execution drops it.
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
        its position vectors (ndarray ``nbytes``, a ``range`` its own size,
        or a per-element estimate for lists), one per input table, plus its traces
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


class FrozenRow(dict):
    """A result row no one can change: what a :class:`PlanOutcome` keeps and
    every replay shares.  Reads, equality, key order, ``json.dumps`` and its
    ``sys.getsizeof`` are the dict's; ``dict(row)`` is a mutable copy."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("a replayed result row is read-only; dict(row) copies it")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> Tuple[Any, ...]:
        return FrozenRow, (dict(self),)


@dataclass
class PlanOutcome:
    """One unbudgeted execution of a whole plan, kept for replay: read-only
    copies of its rows, its metrics (with the actual cardinalities) and
    ``elapsed_ms`` -- every replay shares all three -- plus the root of the
    plan it was kept from and that plan's max q-error."""

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
        caller's, so the outcome keeps read-only copies."""
        rows: List[Row] = list(map(FrozenRow, result.rows))
        return cls(rows, result.metrics, result.elapsed_ms, qgm.root, result.max_q_error(qgm))

    def estimated_bytes(self) -> int:
        """The row list, plus per row its dict and values, sized on the first."""
        row = self.rows[0] if self.rows else {}
        per_row = sys.getsizeof(row) + sum(map(sys.getsizeof, row.values()))
        return 256 + sys.getsizeof(self.rows) + per_row * len(self.rows)

    def replay(self) -> ExecutionResult:
        """The result again: a list of its own over the shared kept rows."""
        return ExecutionResult(
            rows=list(self.rows),
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
    when that epoch moves (DDL / data loads; stats-only changes keep it).  A
    call without a memo runs through a private one that the executor then
    discards.  One thread uses a memo at a time.

    ``max_entries`` bounds both caches (FIFO eviction): a long-lived serving
    process must not grow the memo without bound.  ``max_bytes`` additionally
    bounds the *estimated payload bytes* of the result-entry cache (see
    :meth:`MemoEntry.estimated_bytes`): entry counts alone let a handful of
    huge join outputs outweigh thousands of scan entries.  An
    entry larger than the whole budget is simply not cached (storing it would
    evict everything else for one tenant).  Both caps are exact: the caches
    never hold more than ``max_entries`` items, and ``entry_bytes`` is the
    sum of the held entries' ``nbytes``.  A join
    entry refers to no child entry -- it holds its own position vectors and
    shares its children's immutable trace objects by reference -- so
    evicting a child never invalidates a parent entry.

    ``entries`` also holds whole-plan :class:`PlanOutcome` objects (rows,
    metrics, ``elapsed_ms``) under plan keys: valid for the storage epoch,
    charged against ``max_bytes``, evicted FIFO, replayed as fresh lists of
    the shared read-only rows, and read with :meth:`peek` (no hit/miss
    counter moves).
    """

    entries: Dict[Hashable, Payload] = field(default_factory=dict)
    #: (kind, child subtree key, column(s)) -> gathered column / key grouping
    aux: Dict[Hashable, Any] = field(default_factory=dict)
    #: Storage epoch this memo's entries were computed at (None = unmanaged).
    epoch: Optional[int] = None
    #: Per-cache entry cap (None = unbounded, else at least 1); oldest
    #: entries evicted first.
    max_entries: Optional[int] = None
    #: Byte budget for the result-entry cache (None = unbounded).
    max_bytes: Optional[int] = None
    #: Estimated bytes held by the result-entry cache.
    entry_bytes: int = 0
    #: Cumulative counters; :meth:`reset` keeps them.
    hits: int = 0
    misses: int = 0
    aux_hits: int = 0
    aux_misses: int = 0
    resets: int = 0
    byte_evictions: int = 0

    def lookup(self, key: Hashable) -> Optional[MemoEntry]:
        entry: Any = self.entries.get(key)
        if entry is None:
            self.misses += 1
        else:
            self.hits += 1
        return entry

    def _evict_oldest_entry(self) -> None:
        """Pop the FIFO-oldest result entry, releasing its bytes."""
        self.entry_bytes -= self.entries.pop(next(iter(self.entries))).nbytes

    def store(self, key: Hashable, entry: Payload) -> None:
        """Cache a result entry, enforcing the entry-count and byte budgets.

        Sizing happens once per entry; an entry bigger than the whole byte
        budget is not cached at all.  Both caps evict FIFO-oldest first;
        re-storing a held key replaces it in place.
        """
        if entry.nbytes == 0:
            entry.nbytes = entry.estimated_bytes()
        if self.max_bytes is not None and entry.nbytes > self.max_bytes:
            return
        entries = self.entries
        replaced = entries.get(key)
        if (
            replaced is None
            and self.max_entries is not None
            and len(entries) >= self.max_entries
        ):
            self._evict_oldest_entry()
        entries[key] = entry
        self.entry_bytes += entry.nbytes - (replaced.nbytes if replaced else 0)
        if self.max_bytes is not None:
            while self.entry_bytes > self.max_bytes and len(entries) > 1:
                self._evict_oldest_entry()
                self.byte_evictions += 1

    def peek(self, key: Hashable) -> Any:
        """``lookup`` without touching the hit/miss counters."""
        return self.entries.get(key)

    def aux_lookup(self, key: Hashable) -> Any:
        value = self.aux.get(key)
        if value is None:
            self.aux_misses += 1
        else:
            self.aux_hits += 1
        return value

    def aux_store(self, key: Hashable, value: Any) -> None:
        """Cache an aux structure, evicting the FIFO-oldest at the cap."""
        aux = self.aux
        if (
            self.max_entries is not None
            and len(aux) >= self.max_entries
            and key not in aux
        ):
            del aux[next(iter(aux))]
        aux[key] = value

    def reset(self, epoch: Optional[int] = None) -> None:
        """Drop every cached entry and restamp the memo at ``epoch``."""
        self.entries.clear()
        self.aux.clear()
        self.entry_bytes = 0
        self.epoch = epoch
        self.resets += 1

    def stats(self) -> Dict[str, int]:
        """Point-in-time cache statistics (counts, hit/miss totals, bytes);
        ``outcomes`` / ``outcome_bytes`` are the plan outcomes' share of
        ``entries`` / ``entry_bytes``."""
        outcomes = [
            entry.nbytes
            for entry in self.entries.values()
            if isinstance(entry, PlanOutcome)
        ]
        return {
            "hits": self.hits,
            "misses": self.misses,
            "aux_hits": self.aux_hits,
            "aux_misses": self.aux_misses,
            "entries": len(self.entries),
            "entry_bytes": self.entry_bytes,
            "byte_evictions": self.byte_evictions,
            "aux_entries": len(self.aux),
            "resets": self.resets,
            "outcomes": len(outcomes),
            "outcome_bytes": sum(outcomes),
        }
