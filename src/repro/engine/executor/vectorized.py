"""Vectorized batch executor.

Operators exchange :class:`Batch` objects -- per input table, its backing
value arrays plus a *position vector* selecting the live rows -- instead of
lists of per-row dicts.  Scans filter directly over the table's storage
columns (zero-copy), predicates are compiled once per plan into column-wise
closures (:func:`repro.engine.expressions.compile_predicate`), joins compose
their inputs' position vectors and gather only the key columns they read,
and sort/group-by reorder position vectors with column-wise key extraction.
RETURN reduces the batch to the statement's select list; result rows are only
materialized as dicts once, at the plan root.

Equivalence contract
--------------------
This engine is charge-identical to the row-at-a-time engine in
:mod:`repro.engine.executor.executor`: result rows (values *and* dict key
order), per-operator actual cardinalities, every :class:`RuntimeMetrics`
counter, buffer-pool hit sequences, and therefore the simulated
``elapsed_ms`` are bit-identical for every plan.  The differential test suite
(``tests/unit/test_vectorized_executor.py``) asserts this over randomized
TPC-DS and client plans; the row engine stays available via
``DbConfig.executor = "row"`` as the oracle.

Pass an :class:`~repro.engine.executor.memo.ExecutionMemo` to :meth:`execute`
to share structurally identical scan/FILTER/SORT subtrees across the many
candidate plans the learning tier evaluates; the memo replays each subtree's
cold charges into every consuming plan (see ``memo.py`` for the accounting
rule), so memoized and cold executions are indistinguishable in the output.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.columns import (
    as_index_array,
    expand_slices,
    gather,
    numeric_array,
    python_values,
)
from repro.engine.config import DbConfig
from repro.engine.executor.bufferpool import BufferPool, PageTrace
from repro.engine.executor.executor import (
    ExecutionResult,
    equi_join_keys,
    index_qualifying_row_ids,
)
from repro.engine.executor.memo import ExecutionMemo, MemoEntry, Source
from repro.engine.executor.metrics import (
    ExecutionBudget,
    RuntimeMetrics,
    record_node_metric_deltas,
    snapshot_metrics,
)
from repro.engine.expressions import ColumnRef, conjunction_mask, filter_positions
from repro.engine.plan.physical import PlanNode, PopType, Qgm
from repro.engine.schema import Index
from repro.engine.storage import IndexData, TableData
from repro.errors import PlanError
from repro.obs.tracing import current_execution_span, execution_tracing


class Batch:
    """Position vectors over backing columns: the unit of data flow.

    ``sources`` holds one ``(columns, positions)`` pair per input table: a
    scan's pair is the table's storage arrays and its qualifying row ids,
    FILTER / SORT narrow or reorder the positions, and a join's output is
    its inputs' pairs with each position vector taken at the join's picks --
    no operator copies a column to pass it on (late materialization).
    :meth:`column` gathers one column on its first read and keeps the array
    for the life of this batch, so a column costs something only when an
    operator reads it.  Batches are immutable by convention: backing arrays
    and position vectors are shared freely and must not be mutated.
    """

    __slots__ = ("sources", "length", "_gathered")

    def __init__(self, sources: Tuple[Source, ...], length: int):
        self.sources = sources
        self.length = length
        self._gathered: Dict[str, Sequence[Any]] = {}

    @classmethod
    def over(cls, columns: Dict[str, Sequence[Any]], positions: Sequence[int]) -> "Batch":
        """The rows of ``columns`` at ``positions`` (one table's scan)."""
        return cls(((columns, positions),), len(positions))

    @classmethod
    def from_rows(cls, rows: List[Dict[str, Any]]) -> "Batch":
        if not rows:
            return cls((), 0)
        columns: Dict[str, List[Any]] = {key: [] for key in rows[0]}
        for row in rows:
            for key, values in columns.items():
                values.append(row.get(key))
        return cls(((columns, None),), len(rows))

    @classmethod
    def joined(
        cls,
        outer: "Batch",
        outer_picks: Sequence[int],
        inner: "Batch",
        inner_picks: Sequence[int],
    ) -> "Batch":
        """Join output: outer sources then inner sources (inner wins collisions)."""
        return cls(
            outer.sources_at(outer_picks) + inner.sources_at(inner_picks), len(outer_picks)
        )

    def sources_at(self, picks: Sequence[int]) -> Tuple[Source, ...]:
        """``sources`` narrowed to the rows at batch-relative ``picks``."""
        picks = as_index_array(picks)
        return tuple(
            (columns, picks if positions is None else as_index_array(positions)[picks])
            for columns, positions in self.sources
        )

    def _source_of(self, key: str) -> Optional[Source]:
        """The source carrying ``key`` (the last one: inner wins collisions)."""
        for source in reversed(self.sources):
            if key in source[0]:
                return source
        return None

    def __contains__(self, key: str) -> bool:
        return self._source_of(key) is not None

    def keys(self) -> List[str]:
        """Column keys in source order (a key two sources carry is listed once)."""
        return list(dict.fromkeys(key for columns, _ in self.sources for key in columns))

    def column(self, key: str) -> Sequence[Any]:
        """Values of one column aligned with the batch (missing -> NULLs).

        Typed backing columns gather through ndarray fancy indexing (an
        ndarray comes back; numeric dtype implies null-free, ``object`` dtype
        embeds ``None``); everything else falls back to the element-wise
        Python gather.  Gathered on the first read, kept for this batch.
        """
        values = self._gathered.get(key)
        if values is None:
            source = self._source_of(key)
            if source is None:
                values = [None] * self.length
            elif source[1] is None:
                values = source[0][key]
            else:
                values = gather(source[0][key], source[1])
            self._gathered[key] = values
        return values

    def take(self, picks: Sequence[int]) -> "Batch":
        """A new batch holding the rows at batch-relative ``picks``."""
        return Batch(self.sources_at(picks), len(picks))

    def project(self, keys: Sequence[str]) -> "Batch":
        """The same rows reduced to ``keys``, in that order (a select list).

        Nothing is gathered here -- a plan whose rows nobody reads pays
        nothing for its select list -- and what this batch gathered already
        is shared, the rows being the same.
        """
        sources: List[Source] = []
        for key in keys:
            source = self._source_of(key)
            if source is None:
                sources.append(({key: [None] * self.length}, None))
            else:
                sources.append(({key: source[0][key]}, source[1]))
        projected = Batch(tuple(sources), self.length)
        projected._gathered = self._gathered
        return projected

    def to_rows(self, plan_root: Optional[PlanNode] = None) -> List[Dict[str, Any]]:
        """Materialize per-row dicts (same key order as the row engine).

        This is a representation boundary: every value comes out as a plain
        Python object (numpy scalars are converted), so result rows are
        type-identical to the row engine's and JSON-serializable.  Rows are
        built by :func:`row_constructor`; given the plan's root, the
        constructor is compiled once for that plan and kept on it, beside
        its memo keys.
        """
        keys = tuple(self.keys())
        if not keys:
            return [{} for _ in range(self.length)]
        if plan_root is None:
            make = row_constructor(keys)
        else:
            cached = plan_root.__dict__.get("_row_constructor")
            if cached is None or cached[0] != keys:
                cached = (keys, row_constructor(keys))
                plan_root.__dict__["_row_constructor"] = cached
            make = cached[1]
        return list(map(make, *(python_values(self.column(key)) for key in keys)))


def row_constructor_source(keys: Sequence[str]) -> str:
    """Source of :func:`row_constructor` for ``keys``: a lambda returning a
    dict display, each key written as its ``repr()``."""
    parameters = ", ".join(f"v{position}" for position in range(len(keys)))
    items = ", ".join(f"{key!r}: v{position}" for position, key in enumerate(keys))
    return f"lambda {parameters}: {{{items}}}"


def row_constructor(keys: Sequence[str]) -> Callable[..., Dict[str, Any]]:
    """A function building one result row from its values, in ``keys`` order.

    For ``("A.x", "B.y")`` it is ``lambda v0, v1: {'A.x': v0, 'B.y': v1}``,
    generated and compiled the way :func:`collections.namedtuple` and
    :mod:`dataclasses` build their methods: ``repr()`` quotes every key, so
    any string is a safe key.  The rows equal ``dict(zip(keys, values))``,
    key order and repeated keys included, at a fraction of the cost.
    """
    return eval(row_constructor_source(keys), {"__builtins__": {}})  # noqa: S307


def _below(node: PlanNode) -> List[PlanNode]:
    """Every node under ``node``, in pre-order (what a memo entry covers)."""
    return [child for inp in node.inputs for child in inp.walk()]


def _as_array(values: Sequence[Any]) -> Any:
    """``values`` as an ndarray (a plain list becomes an object array)."""
    return values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)


def _cross_picks(outer_count: int, inner_count: int) -> Tuple[Sequence[int], Sequence[int]]:
    """Cross-product pick vectors in (outer-major, build-order) row order."""
    outer_range = np.arange(outer_count, dtype=np.intp)
    inner_range = np.arange(inner_count, dtype=np.intp)
    return np.repeat(outer_range, inner_count), np.tile(inner_range, outer_count)


class _KeyGroups:
    """Sorted grouping of a null-free numeric key column.

    The vectorized analogue of the ``key -> [positions]`` build dict: a
    stable argsort of the key column, unique keys with their ``[start, stop)``
    slices into the sort order.  Within one key, ``order[start:stop]`` lists
    the column's positions in ascending (= build/insertion) order, so probe
    emission reproduces the dict path's match order exactly.
    """

    __slots__ = ("unique", "starts", "stops", "order")

    def __init__(self, unique, starts, stops, order):
        self.unique = unique
        self.starts = starts
        self.stops = stops
        self.order = order


def _build_key_groups(array: Any) -> _KeyGroups:
    """Group a null-free numeric key array (see :class:`_KeyGroups`)."""
    order = np.argsort(array, kind="stable")
    sorted_values = array[order]
    if len(sorted_values):
        boundaries = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [len(sorted_values)]))
        unique = sorted_values[starts]
    else:
        unique = sorted_values
        starts = stops = np.zeros(0, dtype=np.intp)
    return _KeyGroups(unique, starts, stops, order)


def _listed_runs(
    runs: Optional[List[Tuple[Any, int, int]]], vector: Optional[Tuple]
) -> List[Tuple[Any, int, int]]:
    """A merge input's runs as ``(value, start, end)`` tuples, listed from its
    run arrays when it carries only those."""
    if runs is not None:
        return runs
    return list(zip(*(part.tolist() for part in vector)))


def _vector_merge_join(
    order_outer: Any, outer_runs: Tuple, order_inner: Any, inner_runs: Tuple
) -> Tuple[Any, Any, int]:
    """The run-merge loop as whole-array operations (no residual predicates).

    Returns ``(outer_picks, inner_picks, cpu)`` bit-identical to the Python
    two-pointer loop over equal-value runs: matched run pairs emit their
    cross product in (outer sort order, inner sort order), the CPU charge is
    one per matched pair plus the pair's row product plus the length of every
    run the loop skipped.  The loop never reaches runs whose value exceeds
    the other side's maximum -- mirrored here by the ``< last value`` guards.
    Both key columns are null-free (numeric fast path), so the loop's
    NULL-run drain never fires.
    """
    out_values, out_starts, out_stops = outer_runs
    in_values, in_starts, in_stops = inner_runs
    empty = np.zeros(0, dtype=np.intp)
    if len(out_values) == 0 or len(in_values) == 0:
        return empty, empty, 0
    slots = np.searchsorted(in_values, out_values)
    clipped = np.minimum(slots, len(in_values) - 1)
    matched = in_values[clipped] == out_values
    matched_outer = np.flatnonzero(matched)
    matched_inner = clipped[matched_outer]
    outer_lengths = out_stops - out_starts
    inner_lengths = in_stops - in_starts
    block_outer_lengths = outer_lengths[matched_outer]
    block_inner_lengths = inner_lengths[matched_inner]
    cpu = int(len(matched_outer))
    cpu += int((block_outer_lengths * block_inner_lengths).sum())
    skipped_outer = (~matched) & (out_values < in_values[-1])
    cpu += int(outer_lengths[skipped_outer].sum())
    inner_matched = np.zeros(len(in_values), dtype=bool)
    inner_matched[matched_inner] = True
    skipped_inner = (~inner_matched) & (in_values < out_values[-1])
    cpu += int(inner_lengths[skipped_inner].sum())
    if not len(matched_outer):
        return empty, empty, cpu

    # Outer emission: per matched block, each outer position repeated by the
    # inner block's length, blocks concatenated in run (= value) order.
    outer_counts = np.cumsum(block_outer_lengths)
    outer_total = int(outer_counts[-1])
    outer_within = np.arange(outer_total, dtype=np.intp) - np.repeat(
        outer_counts - block_outer_lengths, block_outer_lengths
    )
    outer_elements = order_outer[
        np.repeat(out_starts[matched_outer], block_outer_lengths) + outer_within
    ]
    outer_picks = np.repeat(
        outer_elements, np.repeat(block_inner_lengths, block_outer_lengths)
    )
    # Inner emission: per matched block, the inner block tiled once per outer
    # element -- position within the pair cross product modulo the block.
    pair_counts = block_outer_lengths * block_inner_lengths
    pair_ends = np.cumsum(pair_counts)
    total = int(pair_ends[-1])
    within = np.arange(total, dtype=np.intp) - np.repeat(
        pair_ends - pair_counts, pair_counts
    )
    inner_index = np.repeat(in_starts[matched_inner], pair_counts) + (
        within % np.repeat(block_inner_lengths, pair_counts)
    )
    inner_picks = order_inner[inner_index]
    return outer_picks, inner_picks, cpu


def _probe_key_groups(groups: _KeyGroups, probe: Any) -> Tuple[Any, Any, Any]:
    """Match ``probe`` values against ``groups``.

    Returns ``(found, outer_picks, inner_picks)``: a boolean per probe value,
    and the emitted pick pairs ordered by probe position then build order --
    bit-identical to probing the hash dict row by row.
    """
    if len(groups.unique) == 0 or len(probe) == 0:
        empty = np.zeros(0, dtype=np.intp)
        return np.zeros(len(probe), dtype=bool), empty, empty
    slots = np.searchsorted(groups.unique, probe)
    slots_clipped = np.minimum(slots, len(groups.unique) - 1)
    found = groups.unique[slots_clipped] == probe
    matched = np.flatnonzero(found)
    group_ids = slots_clipped[matched]
    starts = groups.starts[group_ids]
    sizes = groups.stops[group_ids] - starts
    outer_picks = np.repeat(matched, sizes)
    inner_picks = groups.order[expand_slices(starts, sizes)]
    return found, outer_picks, inner_picks


class SubtreeKey:
    """A memo key with its hash precomputed once.

    Keys are deeply nested tuples (a join key embeds both children's keys);
    hashing them from scratch on every memo dict operation is measurable on
    the learning tier's hot path.  Child keys embedded in a parent tuple are
    ``SubtreeKey`` objects themselves, so the parent's one-time hash is cheap
    too.  Equality falls back to the underlying tuples (collision path only).
    """

    __slots__ = ("value", "hash_value")

    def __init__(self, value: Tuple[Any, ...]):
        self.value = value
        self.hash_value = hash(value)  # TypeError -> key is not memoizable

    def __hash__(self) -> int:
        return self.hash_value

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, SubtreeKey) and self.value == other.value

    def __getitem__(self, index: int) -> Any:
        return self.value[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubtreeKey({self.value!r})"


#: Sentinel distinguishing "never computed" from "computed as None".
_KEY_UNSET = object()


class VectorizedExecutor:
    """Executes QGM plans over column batches; charge-identical to ``Executor``."""

    def __init__(self, catalog: Catalog, config: Optional[DbConfig] = None):
        self.catalog = catalog
        self.config = config or catalog.config
        self._handlers: Dict[PopType, Callable] = {
            PopType.RETURN: self._execute_return,
            PopType.FILTER: self._execute_filter,
            PopType.SORT: self._execute_sort,
            PopType.GRPBY: self._execute_group_by,
            PopType.TBSCAN: self._execute_table_scan,
            PopType.IXSCAN: self._execute_index_scan,
            PopType.FETCH: self._execute_index_scan,
            PopType.HSJOIN: self._execute_hash_join,
            PopType.MSJOIN: self._execute_merge_join,
            PopType.NLJOIN: self._execute_nested_loop_join,
        }

    # ------------------------------------------------------------------

    def execute(
        self,
        qgm: Qgm,
        memo: Optional[ExecutionMemo] = None,
        budget_ms: Optional[float] = None,
    ) -> ExecutionResult:
        """Execute ``qgm``, recording every node's row count by operator id.

        The plan is only read, never written (the memo keys and the row
        constructor it derives are cached on its nodes, idempotently), so one
        plan may run on several threads at once.  ``budget_ms`` raises
        :class:`~repro.errors.PlanBudgetExceeded` exactly when the plan's
        ``elapsed_ms`` is above it, as early as that is certain (see
        :class:`~repro.engine.executor.metrics.ExecutionBudget`).
        The budget is state of this one call: the executor is shared by the
        learner and the serving threads.
        """
        if memo is not None and memo.epoch is not None:
            # Epoch-managed (workload-scoped) memo: pin this execution to the
            # memo's current dict snapshot so a concurrent data change --
            # which resets the shared memo -- can neither corrupt this run's
            # view nor receive stale entries stored by it afterwards.
            memo = memo.pinned()
        metrics = RuntimeMetrics()
        if budget_ms is not None:
            metrics.budget = ExecutionBudget(budget_ms, qgm, self.config)
        pool = BufferPool(self.config.buffer_pool_pages)
        batch = self._execute_node(qgm.root, metrics, pool, memo)
        metrics.rows_returned = batch.length
        metrics.logical_reads = pool.logical_reads
        metrics.physical_reads = pool.physical_reads
        elapsed = metrics.elapsed_ms(self.config)
        # Rows are materialized lazily: plan measurement (the learning tier's
        # dominant workload) ranks on metrics alone and never reads them.
        return ExecutionResult(
            batch=batch,
            plan_root=qgm.root,
            metrics=metrics,
            elapsed_ms=elapsed,
            actual_cardinalities=metrics.actual_cardinalities,
        )

    # ------------------------------------------------------------------

    def _execute_node(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        handler = self._handlers.get(node.pop_type)
        if handler is None:
            raise PlanError(f"no executor for operator {node.pop_type}")
        parent = current_execution_span()
        if parent is None:
            batch = handler(node, metrics, pool, memo)
            self._node_finished(node, batch.length, metrics, pool)
        else:
            batch = self._execute_node_traced(
                node, handler, metrics, pool, memo, parent
            )
        return batch

    def _node_finished(
        self, node: PlanNode, row_count: int, metrics: RuntimeMetrics, pool: BufferPool
    ) -> None:
        """Record the node's actual cardinality, then enforce the budget.

        Handlers store their memo entry before they return, so by the time a
        budget stops the plan here every stored entry describes a subtree
        that ran to completion.
        """
        metrics.actual_cardinalities[node.operator_id] = row_count
        if metrics.budget is not None:
            metrics.budget.check(metrics, pool)

    def _execute_node_traced(
        self,
        node: PlanNode,
        handler,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
        parent,
    ) -> Batch:
        """Run ``handler`` under a per-node child span.

        Spans only *read* runtime state (metric snapshots and the memo's
        shared counters), so traced and untraced execution stay
        bit-identical.  The handler runs with this node's span installed as
        the thread's execution span, so recursive ``_execute_node`` calls
        parent under it; metric and memo-counter deltas are therefore per
        *subtree*, matching the span's own wall time.  The budget is enforced
        inside the span, so it is this node's span that an abort marks.
        """
        before = snapshot_metrics(metrics)
        # ``memo.counters`` is the one dict shared by every pinned() view, so
        # reading deltas around the subtree sees hits/misses stored through
        # any view of the same memo.
        counters = memo.counters if memo is not None else None
        hits_before = counters["hits"] if counters is not None else 0
        misses_before = counters["misses"] if counters is not None else 0
        with parent.child(node.pop_type.name.lower()) as span:
            with execution_tracing(span):
                batch = handler(node, metrics, pool, memo)
                self._node_finished(node, batch.length, metrics, pool)
            span.set("operator_id", node.operator_id)
            if node.table:
                span.set("table", node.table)
                if node.table_alias and node.table_alias != node.table:
                    span.set("alias", node.table_alias)
            span.set("rows", batch.length)
            record_node_metric_deltas(span, before, snapshot_metrics(metrics))
            if counters is not None:
                hits = counters["hits"] - hits_before
                misses = counters["misses"] - misses_before
                if hits:
                    span.set("memo_hits", hits)
                if misses:
                    span.set("memo_misses", misses)
        return batch

    # -- memo plumbing -------------------------------------------------------

    _JOIN_MEMO_TAGS = {
        PopType.HSJOIN: "HJ",
        PopType.MSJOIN: "MJ",
        PopType.NLJOIN: "NJ",
    }

    def _memo_key(self, node: PlanNode):
        """Structural identity of a memoizable subtree (None = not memoizable).

        Cached on the node (plans are never structurally mutated after
        planning): the key is consulted by every handler that touches the
        node -- join build/sort caches, column gathers, entry stores -- and
        recomputing the nested tuple each time is pure overhead.  The cached
        object is a :class:`SubtreeKey`, so its hash is computed exactly once
        as well.
        """
        cached = node.__dict__.get("_memo_subtree_key", _KEY_UNSET)
        if cached is not _KEY_UNSET:
            return cached
        raw = self._raw_memo_key(node)
        key = None
        if raw is not None:
            try:
                key = SubtreeKey(raw)
            except TypeError:  # unhashable predicate somewhere in the key
                key = None
        node.__dict__["_memo_subtree_key"] = key
        return key

    def _raw_memo_key(self, node: PlanNode):
        pop = node.pop_type
        if pop is PopType.TBSCAN:
            return ("TB", node.table, node.table_alias, node.predicates)
        if pop in (PopType.IXSCAN, PopType.FETCH):
            if node.index_name:
                return ("IX", node.table, node.table_alias, node.index_name, node.predicates)
            return ("TB", node.table, node.table_alias, node.predicates)
        if pop is PopType.FILTER and len(node.inputs) == 1:
            child = self._memo_key(node.inputs[0])
            if child is not None:
                return ("F", child, node.predicates)
        if pop is PopType.SORT and len(node.inputs) == 1:
            child = self._memo_key(node.inputs[0])
            if child is not None:
                return ("S", child, node.properties.get("sorted_on"))
        tag = self._JOIN_MEMO_TAGS.get(pop)
        if tag is not None and node.outer is not None and node.inner is not None:
            outer = self._memo_key(node.outer)
            if outer is None:
                return None
            inner_node = node.inner
            if (
                pop is PopType.NLJOIN
                and inner_node.is_scan
                and inner_node.properties.get("nljoin_lookup")
                and inner_node.index_name
                # Mirror the handler's dispatch exactly: without an equi-join
                # key the inner executes as a plain scan, not as lookups.
                and equi_join_keys(
                    node, set(node.outer.aliases()), set(inner_node.aliases())
                )
            ):
                # The index-lookup inner never executes as a standalone node;
                # its identity (and the join's own page accesses) fold into
                # the join entry itself.
                inner = (
                    "NLIX",
                    inner_node.table,
                    inner_node.table_alias,
                    inner_node.index_name,
                    inner_node.predicates,
                )
            else:
                inner = self._memo_key(inner_node)
                if inner is None:
                    return None
            return (
                tag,
                outer,
                inner,
                node.predicates,
                node.join_predicates,
                bool(node.properties.get("bloom_filter")),
            )
        return None

    def _memo_hit(
        self,
        key,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Optional[Batch]:
        """Replay a memoized subtree (None = miss, execute cold).

        The batch is built anew over the entry's position vectors, so what a
        consuming plan gathers lives with that plan's batch, not in the memo.
        """
        if key is None:
            return None
        entry = memo.lookup(key)
        if entry is None:
            return None
        entry.replay(metrics, pool)
        self._restore_subtree(node, entry, metrics.actual_cardinalities)
        return Batch(entry.sources, entry.length)

    def _store_join_entry(
        self,
        memo: Optional[ExecutionMemo],
        key,
        node: PlanNode,
        result: Batch,
        metrics: RuntimeMetrics,
        own_deltas,
        own_traces=(),
    ) -> None:
        """Compose and store a join subtree's entry from its children's.

        A join entry is compositional: its deltas and page-access trace are
        the outer child's, then the inner child's, then the join's own -- the
        exact cold execution order -- so a hit replays the whole subtree's
        charges through the consuming plan's own cold buffer pool.  What it
        owns of the data is one position vector per input table; it refers to
        no child entry, so a later eviction of a child never corrupts it.
        """
        if memo is None or key is None:
            return
        outer_entry = memo.peek(key[1])
        if outer_entry is None:
            return
        inner_key = key[2]
        if inner_key[0] == "NLIX":
            # Index-lookup inner: its work is already part of ``own_*``.
            inner_deltas: Tuple = ()
            inner_traces: Tuple = ()
        else:
            inner_entry = memo.peek(inner_key)
            if inner_entry is None:
                return
            inner_deltas = inner_entry.deltas
            inner_traces = inner_entry.traces
        self._store(
            memo,
            key,
            node,
            result,
            metrics,
            outer_entry.deltas + inner_deltas + tuple(own_deltas),
            outer_entry.traces + inner_traces + tuple(own_traces),
        )

    def _store(
        self, memo: ExecutionMemo, key, node: PlanNode, batch: Batch, metrics, deltas, traces
    ) -> None:
        """Store ``node``'s finished subtree: its output's position vectors,
        the cold charges a hit replays and the cardinalities it restores."""
        actuals = metrics.actual_cardinalities
        cardinalities = tuple(actuals[child.operator_id] for child in _below(node))
        memo.store(key, MemoEntry(batch.sources, batch.length, deltas, traces, cardinalities))

    def _store_over_child(
        self, memo: Optional[ExecutionMemo], key, node: PlanNode, batch: Batch, metrics, own_deltas
    ) -> None:
        """Store a FILTER / SORT: its child's charges, then its own."""
        child_entry = memo.peek(key[1]) if key is not None else None
        if child_entry is not None:
            deltas = child_entry.deltas + own_deltas
            self._store(memo, key, node, batch, metrics, deltas, child_entry.traces)

    @staticmethod
    def _restore_subtree(node: PlanNode, entry: MemoEntry, actuals: Dict[int, int]) -> None:
        """On a memo hit, record the cardinalities of the skipped children."""
        for child, cardinality in zip(_below(node), entry.child_cardinalities):
            actuals[child.operator_id] = cardinality

    # -- leaf operators -----------------------------------------------------

    def _table_for(self, node: PlanNode) -> TableData:
        if not node.table:
            raise PlanError(f"scan node #{node.operator_id} has no table")
        return self.catalog.table_data(node.table)

    def _rows_per_page(self, data: TableData) -> int:
        return max(1, data.row_count // max(1, data.page_count))

    @staticmethod
    def _qualified_columns(data: TableData, alias: str) -> Dict[str, Sequence[Any]]:
        prefix = alias + "."
        return {prefix + name: values for name, values in data.column_arrays().items()}

    def _execute_table_scan(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        data = self._table_for(node)
        alias = node.table_alias or node.table or ""
        table = node.table or ""
        # _memo_key maps an index-less IXSCAN to the same "TB" key this
        # handler serves via the fallback path, so the shapes always agree.
        key = self._memo_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        page_count = data.page_count
        row_count = data.row_count
        metrics.sequential_pages += page_count
        pool.access_sequential(table, 0, page_count)
        metrics.rows_processed += row_count
        columns = self._qualified_columns(data, alias)
        batch = Batch.over(
            columns, filter_positions(node.predicates, columns, range(row_count))
        )
        if key is not None:
            deltas = (("sequential_pages", page_count), ("rows_processed", row_count))
            self._store(
                memo, key, node, batch, metrics, deltas, (("seq", table, 0, page_count),)
            )
        return batch

    def _execute_index_scan(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        data = self._table_for(node)
        alias = node.table_alias or node.table or ""
        index_data = data.index(node.index_name) if node.index_name else None
        if index_data is None:
            return self._execute_table_scan(node, metrics, pool, memo)
        table = node.table or ""
        key = self._memo_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit

        row_ids = index_qualifying_row_ids(node, index_data, alias)
        count = len(row_ids)
        metrics.rows_processed += count
        metrics.index_lookups += count
        trace = PageTrace(row_ids // self._rows_per_page(data))
        metrics.random_pages += pool.access_many(table, trace)
        columns = self._qualified_columns(data, alias)
        batch = Batch.over(columns, filter_positions(node.predicates, columns, row_ids))
        if key is not None:
            deltas = (("rows_processed", count), ("index_lookups", count))
            self._store(memo, key, node, batch, metrics, deltas, (("rand", table, trace),))
        return batch

    def _column_of(
        self,
        batch: Batch,
        node: PlanNode,
        column_key: str,
        memo: Optional[ExecutionMemo],
    ) -> Sequence[Any]:
        """``batch.column`` with the gathered list cached per memoized subtree.

        Valid because a memoized subtree always yields the same positions, so
        the gathered column is identical across every plan that shares it.
        """
        if memo is not None:
            child_key = self._memo_key(node)
            if child_key is not None:
                aux_key = ("col", child_key, column_key)
                cached = memo.aux_lookup(aux_key)
                if cached is None:
                    cached = batch.column(column_key)
                    memo.aux_store(aux_key, cached)
                return cached
        return batch.column(column_key)

    # -- joins ----------------------------------------------------------------

    def _execute_hash_join(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        assert node.outer is not None and node.inner is not None
        key = self._memo_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        outer_batch = self._execute_node(node.outer, metrics, pool, memo)
        inner_batch = self._execute_node(node.inner, metrics, pool, memo)
        keys = equi_join_keys(node, set(node.outer.aliases()), set(node.inner.aliases()))

        own_deltas: List[Tuple[str, int]] = [("hash_build_rows", inner_batch.length)]
        metrics.hash_build_rows += inner_batch.length
        inner_pages = inner_batch.length // max(1, self.config.page_size_rows)
        metrics.sort_heap_high_water_mark = max(
            metrics.sort_heap_high_water_mark, inner_pages
        )
        own_deltas.append(("sort_heap_high_water_mark", inner_pages))
        if inner_pages > self.config.sort_heap_pages:
            spilled = (inner_pages - self.config.sort_heap_pages) * 2
            metrics.spill_pages += spilled
            own_deltas.append(("spill_pages", spilled))

        if not keys:
            # Cross product.
            cross_cpu = outer_batch.length * inner_batch.length
            metrics.cpu_operations += cross_cpu
            own_deltas.append(("cpu_operations", cross_cpu))
            outer_picks, inner_picks = _cross_picks(outer_batch.length, inner_batch.length)
            result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
            self._store_join_entry(memo, key, node, result, metrics, own_deltas)
            return result

        bloom_on = bool(node.properties.get("bloom_filter"))
        if len(keys) == 1:
            # Vectorized path: null-free numeric keys on both sides probe a
            # sorted grouping with searchsorted instead of a dict per row.
            groups = self._key_groups(inner_batch, node.inner, keys[0][1].key, memo)
            probe = (
                numeric_array(
                    self._column_of(outer_batch, node.outer, keys[0][0].key, memo)
                )
                if groups is not None
                else None
            )
            if groups is not None and probe is not None:
                found, outer_picks, inner_picks = _probe_key_groups(groups, probe)
                matched = int(found.sum())
                if bloom_on:
                    probed = matched
                    bloomed = len(probe) - matched
                else:
                    probed = len(probe)
                    bloomed = 0
                metrics.hash_probe_rows += probed
                metrics.bloom_filtered_rows += bloomed
                own_deltas.append(("hash_probe_rows", probed))
                own_deltas.append(("bloom_filtered_rows", bloomed))
                result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
                self._store_join_entry(memo, key, node, result, metrics, own_deltas)
                return result

        hash_table = self._hash_build(inner_batch, node.inner, keys, memo)
        outer_picks: List[int] = []
        inner_picks: List[int] = []
        probed = 0
        bloomed = 0
        get = hash_table.get
        if len(keys) == 1:
            outer_values = self._column_of(outer_batch, node.outer, keys[0][0].key, memo)
            for op in range(outer_batch.length):
                value = outer_values[op]
                if value is None:
                    continue
                matches = get(value)
                if matches is None:
                    if bloom_on:
                        bloomed += 1
                    else:
                        probed += 1
                    continue
                probed += 1
                for ip in matches:
                    outer_picks.append(op)
                    inner_picks.append(ip)
        else:
            outer_cols = [
                self._column_of(outer_batch, node.outer, ok.key, memo) for ok, _ in keys
            ]
            for op, value in enumerate(zip(*outer_cols)):
                if any(part is None for part in value):
                    continue
                matches = get(value)
                if matches is None:
                    if bloom_on:
                        bloomed += 1
                    else:
                        probed += 1
                    continue
                probed += 1
                for ip in matches:
                    outer_picks.append(op)
                    inner_picks.append(ip)
        metrics.hash_probe_rows += probed
        metrics.bloom_filtered_rows += bloomed
        own_deltas.append(("hash_probe_rows", probed))
        own_deltas.append(("bloom_filtered_rows", bloomed))
        result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
        self._store_join_entry(memo, key, node, result, metrics, own_deltas)
        return result

    def _key_groups(
        self,
        batch: Batch,
        node: PlanNode,
        column_key: str,
        memo: Optional[ExecutionMemo],
    ) -> Optional[_KeyGroups]:
        """Sorted key grouping of one join side (None = not vectorizable).

        Only null-free numeric key columns group this way (NULL or object
        columns keep the dict path, whose element-wise semantics are the
        oracle).  Cached in the memo's aux store per memoized child + key:
        the grouping is a pure function of the child's batch, exactly like
        the hash-build dict it replaces.
        """
        aux_key = None
        if memo is not None:
            child_key = self._memo_key(node)
            if child_key is not None:
                aux_key = ("kgroups", child_key, column_key)
                cached = memo.aux_lookup(aux_key)
                if cached is not None:
                    return cached
        array = numeric_array(self._column_of(batch, node, column_key, memo))
        if array is None:
            return None
        groups = _build_key_groups(array)
        if aux_key is not None:
            memo.aux_store(aux_key, groups)
        return groups

    def _hash_build(
        self,
        inner_batch: Batch,
        inner_node: PlanNode,
        keys: List[Tuple[ColumnRef, ColumnRef]],
        memo: Optional[ExecutionMemo],
    ) -> Dict[Any, List[int]]:
        """Key -> inner batch positions, skipping NULL keys (build order)."""
        key_names = tuple(inner_key.key for _, inner_key in keys)
        aux_key = None
        if memo is not None:
            child_key = self._memo_key(inner_node)
            if child_key is not None:
                aux_key = ("hsbuild", child_key, key_names)
                cached = memo.aux_lookup(aux_key)
                if cached is not None:
                    return cached
        hash_table: Dict[Any, List[int]] = {}
        if len(key_names) == 1:
            values = inner_batch.column(key_names[0])
            for ip in range(inner_batch.length):
                value = values[ip]
                if value is None:
                    continue
                hash_table.setdefault(value, []).append(ip)
        else:
            columns = [inner_batch.column(name) for name in key_names]
            for ip, value in enumerate(zip(*columns)):
                if any(part is None for part in value):
                    continue
                hash_table.setdefault(value, []).append(ip)
        if aux_key is not None:
            memo.aux_store(aux_key, hash_table)
        return hash_table

    def _merge_input(
        self,
        batch: Batch,
        child: PlanNode,
        column_key: str,
        memo: Optional[ExecutionMemo],
    ) -> Tuple[Sequence[int], Sequence[Any], Optional[List[Tuple[Any, int, int]]], Optional[Tuple]]:
        """One merge-join input: (stable sort order, sorted key values, equal
        runs as ``(value, start, end)`` over the sorted values, and the same
        runs as ``(values, starts, stops)`` arrays for the vectorized merge
        kernel).  A null-free numeric key has the arrays and no list (None):
        the kernel reads none, and a tuple per distinct key of every merge
        input would be half the containers a learning sweep allocates.  Any
        other key has the list and no arrays.  :func:`_listed_runs` serves
        the block-wise loop either way.

        Sort key mirrors the row engine: ``(is-NULL, value-or-0)``, so NULLs
        sort last.  Cached per memoized subtree + key column.
        """
        aux_key = None
        if memo is not None:
            child_key = self._memo_key(child)
            if child_key is not None:
                aux_key = ("msort", child_key, column_key)
                cached = memo.aux_lookup(aux_key)
                if cached is not None:
                    return cached
        values = self._column_of(batch, child, column_key, memo)
        array = numeric_array(values)
        if array is not None:
            # Null-free numeric keys reuse the join kernels' run grouping:
            # with no NULLs the (is-NULL, value) sort key degenerates to the
            # value itself, so the stable argsort order is identical to the
            # Python sort and the groups are exactly the equal-value runs.
            groups = _build_key_groups(array)
            order = groups.order
            sorted_array = array[order]
            vector = (groups.unique, groups.starts, groups.stops)
            result = (order, sorted_array, None, vector)
            if aux_key is not None:
                memo.aux_store(aux_key, result)
            return result
        order = sorted(
            range(len(values)),
            key=lambda p: (values[p] is None, values[p] if values[p] is not None else 0),
        )
        sorted_values = [values[p] for p in order]
        runs: List[Tuple[Any, int, int]] = []
        start = 0
        count = len(sorted_values)
        while start < count:
            value = sorted_values[start]
            stop = start + 1
            while stop < count and sorted_values[stop] == value:
                stop += 1
            runs.append((value, start, stop))
            start = stop
        result = (order, sorted_values, runs, None)
        if aux_key is not None:
            memo.aux_store(aux_key, result)
        return result

    @staticmethod
    def _merged_accessor(
        outer_batch: Batch, inner_batch: Batch, column_key: str
    ) -> Callable[[int, int], Any]:
        """Value lookup over the merged row (inner side wins key collisions)."""
        if column_key in inner_batch:
            values = inner_batch.column(column_key)
            return lambda op, ip: values[ip]
        if column_key in outer_batch:
            values = outer_batch.column(column_key)
            return lambda op, ip: values[op]
        return lambda op, ip: None

    def _execute_merge_join(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        assert node.outer is not None and node.inner is not None
        key = self._memo_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        outer_batch = self._execute_node(node.outer, metrics, pool, memo)
        inner_batch = self._execute_node(node.inner, metrics, pool, memo)
        keys = equi_join_keys(node, set(node.outer.aliases()), set(node.inner.aliases()))
        if not keys:
            raise PlanError("MSJOIN requires at least one equi-join predicate")
        outer_key, inner_key = keys[0]

        order_outer, sorted_outer, runs_outer, vector_outer = self._merge_input(
            outer_batch, node.outer, outer_key.key, memo
        )
        order_inner, sorted_inner, runs_inner, vector_inner = self._merge_input(
            inner_batch, node.inner, inner_key.key, memo
        )

        residual_pairs = [
            (
                self._merged_accessor(outer_batch, inner_batch, ok.key),
                self._merged_accessor(outer_batch, inner_batch, ik.key),
            )
            for ok, ik in keys[1:]
        ]

        if vector_outer is not None and vector_inner is not None and not residual_pairs:
            outer_picks, inner_picks, cpu = _vector_merge_join(
                order_outer, vector_outer, order_inner, vector_inner
            )
            metrics.cpu_operations += cpu
            result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
            self._store_join_entry(memo, key, node, result, metrics, [("cpu_operations", cpu)])
            return result

        # Block-wise replay of the row engine's merge loop.  The row engine
        # charges one CPU operation per while-iteration: a single-row advance
        # per non-matching row (so a skipped run of length L costs L), one
        # iteration per matched run pair, plus one per candidate row pair.
        # NULL keys sort last on both sides; once a side reaches its NULL run
        # the loop drains that side one row per iteration and terminates.
        runs_outer = _listed_runs(runs_outer, vector_outer)
        runs_inner = _listed_runs(runs_inner, vector_inner)
        outer_picks: List[int] = []
        inner_picks: List[int] = []
        cpu = 0
        n, m = len(sorted_outer), len(sorted_inner)
        block_outer = block_inner = 0
        while block_outer < len(runs_outer) and block_inner < len(runs_inner):
            left_value, i_start, i_end = runs_outer[block_outer]
            right_value, j_start, j_end = runs_inner[block_inner]
            if left_value is None:
                cpu += n - i_start
                break
            if right_value is None:
                cpu += m - j_start
                break
            if left_value < right_value:
                cpu += i_end - i_start
                block_outer += 1
            elif left_value > right_value:
                cpu += j_end - j_start
                block_inner += 1
            else:
                cpu += 1
                if residual_pairs:
                    for oi in range(i_start, i_end):
                        op = order_outer[oi]
                        for ji in range(j_start, j_end):
                            cpu += 1
                            ip = order_inner[ji]
                            if all(
                                outer_access(op, ip) == inner_access(op, ip)
                                for outer_access, inner_access in residual_pairs
                            ):
                                outer_picks.append(op)
                                inner_picks.append(ip)
                else:
                    cpu += (i_end - i_start) * (j_end - j_start)
                    inner_block = order_inner[j_start:j_end]
                    for oi in range(i_start, i_end):
                        op = order_outer[oi]
                        outer_picks.extend([op] * len(inner_block))
                        inner_picks.extend(inner_block)
                block_outer += 1
                block_inner += 1
        metrics.cpu_operations += cpu
        result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
        self._store_join_entry(memo, key, node, result, metrics, [("cpu_operations", cpu)])
        return result

    def _execute_nested_loop_join(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        assert node.outer is not None and node.inner is not None
        key = self._memo_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        outer_batch = self._execute_node(node.outer, metrics, pool, memo)
        inner_node = node.inner
        keys = equi_join_keys(node, set(node.outer.aliases()), set(inner_node.aliases()))

        if (
            inner_node.is_scan
            and inner_node.properties.get("nljoin_lookup")
            and inner_node.index_name
            and keys
        ):
            return self._nljoin_index_lookup(
                node, outer_batch, inner_node, keys, metrics, pool, memo, key
            )

        inner_batch = self._execute_node(inner_node, metrics, pool, memo)
        # Re-scanning the inner for every outer row: charge the CPU for it --
        # known from the input sizes, so the budget can stop the plan before
        # the rows are produced.
        rescan_cpu = outer_batch.length * max(1, inner_batch.length)
        metrics.cpu_operations += rescan_cpu
        if metrics.budget is not None:
            metrics.budget.check(metrics, pool)
        outer_picks: Sequence[int] = []
        inner_picks: Sequence[int] = []
        vectorized_done = False
        if keys:
            if len(keys) == 1:
                # Null-free numeric keys on both sides behave identically in
                # the NULL-matches-NULL key map (there are no NULLs), so the
                # hash join's grouping kernel applies unchanged.
                groups = self._key_groups(inner_batch, inner_node, keys[0][1].key, memo)
                probe = (
                    numeric_array(
                        self._column_of(outer_batch, node.outer, keys[0][0].key, memo)
                    )
                    if groups is not None
                    else None
                )
                if groups is not None and probe is not None:
                    _, outer_picks, inner_picks = _probe_key_groups(groups, probe)
                    vectorized_done = True
            if not vectorized_done:
                outer_picks = []
                inner_picks = []
                inner_map = self._nljoin_key_map(inner_batch, inner_node, keys, memo)
                get = inner_map.get
                if len(keys) == 1:
                    outer_values = self._column_of(
                        outer_batch, node.outer, keys[0][0].key, memo
                    )
                    for op in range(outer_batch.length):
                        for ip in get(outer_values[op], ()):
                            outer_picks.append(op)
                            inner_picks.append(ip)
                else:
                    outer_cols = [
                        self._column_of(outer_batch, node.outer, ok.key, memo)
                        for ok, _ in keys
                    ]
                    for op, value in enumerate(zip(*outer_cols)):
                        for ip in get(value, ()):
                            outer_picks.append(op)
                            inner_picks.append(ip)
        else:
            outer_picks, inner_picks = _cross_picks(outer_batch.length, inner_batch.length)
        result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
        self._store_join_entry(memo, key, node, result, metrics, [("cpu_operations", rescan_cpu)])
        return result

    def _nljoin_key_map(
        self,
        inner_batch: Batch,
        inner_node: PlanNode,
        keys: List[Tuple[ColumnRef, ColumnRef]],
        memo: Optional[ExecutionMemo],
    ) -> Dict[Any, List[int]]:
        """Key -> inner positions; NULL keys participate (row-engine parity)."""
        key_names = tuple(inner_key.key for _, inner_key in keys)
        aux_key = None
        if memo is not None:
            child_key = self._memo_key(inner_node)
            if child_key is not None:
                aux_key = ("nlmap", child_key, key_names)
                cached = memo.aux_lookup(aux_key)
                if cached is not None:
                    return cached
        inner_map: Dict[Any, List[int]] = {}
        if len(key_names) == 1:
            values = inner_batch.column(key_names[0])
            for ip in range(inner_batch.length):
                inner_map.setdefault(values[ip], []).append(ip)
        else:
            columns = [inner_batch.column(name) for name in key_names]
            for ip, value in enumerate(zip(*columns)):
                inner_map.setdefault(value, []).append(ip)
        if aux_key is not None:
            memo.aux_store(aux_key, inner_map)
        return inner_map

    def _nljoin_index_lookup(
        self,
        node: PlanNode,
        outer_batch: Batch,
        inner_node: PlanNode,
        keys: List[Tuple[ColumnRef, ColumnRef]],
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo] = None,
        memo_key=None,
    ) -> Batch:
        """Inner side evaluated as one index lookup per outer row.

        Every outer key probes the index in one call; the matches, their page
        trace and the rows that survive the inner predicates and the residual
        equi-keys are expanded by index arithmetic in probe order -- outer
        position, then ascending row id: the row engine's loop order.
        """
        data = self._table_for(inner_node)
        alias = inner_node.table_alias or inner_node.table or ""
        table = inner_node.table or ""
        outer_key, inner_key = keys[0]
        index_data = data.index(inner_node.index_name)
        if index_data.definition.column != inner_key.column:
            # The plan's index is on another column (no plan of the four
            # bench workloads): the same form over the join key's column,
            # built for this call unless the table has an index there too.
            index_data = data.index_on(inner_key.column) or IndexData(
                Index("", table, inner_key.column), data
            )
        inner_columns = self._qualified_columns(data, alias)

        outer_values = self._column_of(outer_batch, node.outer, outer_key.key, memo)
        probe = numeric_array(outer_values)
        if probe is None:
            # NULL-bearing or non-numeric outer keys: a NULL makes no lookup.
            outer_values = _as_array(outer_values)
            outer_rows = np.flatnonzero(outer_values != None)  # noqa: E711
            probe = np.asarray(outer_values[outer_rows].tolist())
        else:
            outer_rows = np.arange(len(probe), dtype=np.intp)
        # One lookup per outer row with a key: charged before any is made, so
        # the budget can stop the plan ahead of the probing.
        lookups = len(probe)
        metrics.index_lookups += lookups
        if metrics.budget is not None:
            metrics.budget.check(metrics, pool)
        counts, row_ids = index_data.probe(probe)
        outer_picks = np.repeat(outer_rows, counts)
        processed = len(row_ids)
        metrics.rows_processed += processed
        # One batched access reproduces the per-row access sequence exactly
        # (the lookups touch nothing else in the pool between rows), and it
        # replays as one "rand" run of the join's entry.
        own_traces: Tuple = ()
        if processed:
            trace = PageTrace(row_ids // self._rows_per_page(data))
            metrics.random_pages += pool.access_many(table, trace)
            own_traces = (("rand", table, trace),)

        predicates = inner_node.predicates
        keep = np.ones(processed, dtype=bool)
        if predicates and processed:
            mask = conjunction_mask(predicates, inner_columns)
            if mask is None:
                # Not vectorizable: the closure path, once per touched row.
                touched = np.zeros(data.row_count, dtype=bool)
                touched[row_ids] = True
                survivors = filter_positions(predicates, inner_columns, np.flatnonzero(touched))
                mask = np.zeros_like(touched)
                mask[as_index_array(survivors)] = True
            keep = mask[row_ids]

        def candidate_column(column_key: str) -> Any:
            """One column of the candidate rows (inner side wins collisions)."""
            if column_key in inner_columns:
                return _as_array(gather(inner_columns[column_key], row_ids))
            if column_key in outer_batch:
                return _as_array(gather(outer_batch.column(column_key), outer_picks))
            return np.full(processed, None, dtype=object)

        for residual_outer, residual_inner in keys[1:]:
            # ``==`` as the row engine compares the merged row: NULL = NULL.
            keep = keep & (
                candidate_column(residual_outer.key) == candidate_column(residual_inner.key)
            )
        outer_picks = outer_picks[keep]
        inner_row_ids = row_ids[keep]
        metrics.actual_cardinalities[inner_node.operator_id] = len(inner_row_ids)

        result = Batch(
            outer_batch.sources_at(outer_picks) + ((inner_columns, inner_row_ids),),
            len(inner_row_ids),
        )
        self._store_join_entry(
            memo,
            memo_key,
            node,
            result,
            metrics,
            [("index_lookups", lookups), ("rows_processed", processed)],
            own_traces,
        )
        return result

    # -- other operators ---------------------------------------------------------

    def _execute_return(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        if not node.inputs:
            return Batch((), 0)
        batch = self._execute_node(node.inputs[0], metrics, pool, memo)
        output = node.properties.get("output")
        return batch if output is None else batch.project(output)

    def _execute_filter(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        key = self._memo_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        child_batch = self._execute_node(node.inputs[0], metrics, pool, memo)
        metrics.cpu_operations += child_batch.length
        # Only the columns the predicates read are gathered.
        columns = {
            ref.key: child_batch.column(ref.key)
            for predicate in node.predicates
            for ref in predicate.referenced_columns()
        }
        result = child_batch.take(
            filter_positions(node.predicates, columns, range(child_batch.length))
        )
        self._store_over_child(
            memo, key, node, result, metrics, (("cpu_operations", child_batch.length),)
        )
        return result

    def _execute_sort(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        key = self._memo_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        child_batch = self._execute_node(node.inputs[0], metrics, pool, memo)
        length = child_batch.length
        metrics.sort_rows += length
        pages = length // max(1, self.config.page_size_rows)
        metrics.sort_heap_high_water_mark = max(metrics.sort_heap_high_water_mark, pages)
        spilled = 0
        if pages > self.config.sort_heap_pages:
            spilled = (pages - self.config.sort_heap_pages) * 2
            metrics.spill_pages += spilled
        sort_key: Optional[ColumnRef] = node.properties.get("sorted_on")
        if sort_key is None:
            result = child_batch
        else:
            values = child_batch.column(sort_key.key)
            array = numeric_array(values)
            if array is not None:
                # Null-free numeric column: `(is-NULL, value or 0)` reduces
                # to plain value order (0 maps to 0), stable either way.
                order: Sequence[int] = np.argsort(array, kind="stable")
            else:
                order = sorted(
                    range(length), key=lambda p: (values[p] is None, values[p] or 0)
                )
            result = child_batch.take(order)
        deltas = (("sort_rows", length), ("sort_heap_high_water_mark", pages))
        if spilled:
            deltas += (("spill_pages", spilled),)
        self._store_over_child(memo, key, node, result, metrics, deltas)
        return result

    def _execute_group_by(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        child = node.inputs[0]
        child_batch = self._execute_node(child, metrics, pool, memo)
        length = child_batch.length
        metrics.cpu_operations += length
        keys: Tuple[ColumnRef, ...] = tuple(node.properties.get("group_by") or ())
        aggregates = tuple(node.properties.get("aggregates") or ())

        if length:
            for aggregate, column in aggregates:
                if column is not None and column.key not in child_batch:
                    raise PlanError(
                        f"aggregate {aggregate}({column.key}) references a column "
                        f"missing from the grouped input"
                    )
        if length:
            out_rows = self._grouped_rows_vectorized(node, child_batch, keys, aggregates, memo)
            if out_rows is not None:
                return Batch.from_rows(out_rows)

        # The loop oracle.  Keys and aggregate inputs flow into result-row
        # dicts, which must be type-identical to the row engine's (and
        # serializable): numpy scalars are converted per column, not per row.
        # A missing *key* column reads as NULLs, as the row engine's
        # ``row.get`` does; a missing aggregate column was rejected above.
        groups: Dict[Tuple, List[int]] = {}
        if keys:
            key_columns = [
                python_values(self._column_of(child_batch, child, key.key, memo))
                for key in keys
            ]
            if len(key_columns) == 1:
                column = key_columns[0]
                for position in range(length):
                    groups.setdefault((column[position],), []).append(position)
            else:
                for position, group_key in enumerate(zip(*key_columns)):
                    groups.setdefault(group_key, []).append(position)
        elif length:
            groups[()] = list(range(length))
        if not groups and not keys:
            groups[()] = []

        aggregate_columns = [
            (
                aggregate,
                column,
                python_values(self._column_of(child_batch, child, column.key, memo))
                if column is not None
                else None,
            )
            for aggregate, column in aggregates
        ]
        out_rows: List[Dict[str, Any]] = []
        for group_key, members in groups.items():
            out_row: Dict[str, Any] = {}
            for key, value in zip(keys, group_key):
                out_row[key.key] = value
            for aggregate, column, values in aggregate_columns:
                target = column.key if column is not None else "*"
                out_row[f"{aggregate}({target})"] = self._aggregate_values(
                    aggregate, column, values, members
                )
            out_rows.append(out_row)
        return Batch.from_rows(out_rows)

    def _grouped_rows_vectorized(
        self,
        node: PlanNode,
        batch: Batch,
        keys: Tuple[ColumnRef, ...],
        aggregates: Tuple,
        memo: Optional[ExecutionMemo],
    ) -> Optional[List[Dict[str, Any]]]:
        """Group-by kernel: aggregate over argsort-grouped runs of typed keys.

        The vectorized analogue of the ``key tuple -> [positions]`` dict: a
        stable (lex)argsort of the key columns turns each distinct key tuple
        into one ``[start, stop)`` run (the join kernels' :class:`_KeyGroups`
        layout), emitted in first-occurrence order -- exactly the dict path's
        insertion order, because within a run the stable sort keeps positions
        ascending.  COUNT/MIN/MAX reduce whole runs; SUM/AVG add
        *sequentially* within each run in input order, so float summation
        order (and with it every output bit) matches the row engine's
        ``sum()``.  Returns None to decline to the oracle loop -- object
        dtype, NULL-bearing or NaN keys -- and declines per expression the
        same way without giving up the grouped layout.
        """
        length = batch.length
        child = node.inputs[0]
        if keys:
            runs = self._group_runs(batch, child, keys, memo)
            if runs is None:
                return None
            order, run_starts, run_stops = runs
            # First-occurrence emission: ``order[start]`` is each run's
            # earliest input position (stable sort), so sorting runs by it
            # reproduces the dict path's insertion order.
            emit = np.argsort(order[run_starts], kind="stable")
            starts = run_starts[emit]
            stops = run_stops[emit]
            firsts = order[starts]
            key_values = []
            for key in keys:
                array = numeric_array(self._column_of(batch, child, key.key, memo))
                if array is None:
                    return None
                key_values.append(array[firsts].tolist())
        else:
            order = None
            run_starts = starts = np.zeros(1, dtype=np.intp)
            run_stops = stops = np.full(1, length, dtype=np.intp)
            emit = np.zeros(1, dtype=np.intp)
            key_values = []
        sizes = (stops - starts).tolist()

        agg_columns: List[Tuple[str, List[Any]]] = []
        for aggregate, column in aggregates:
            target = column.key if column is not None else "*"
            values = self._run_aggregate(
                aggregate, column, batch, child, memo,
                order, run_starts, emit, starts, stops, sizes, length,
            )
            agg_columns.append((f"{aggregate}({target})", values))

        out_rows: List[Dict[str, Any]] = []
        for g in range(len(sizes)):
            out_row: Dict[str, Any] = {}
            for key, values in zip(keys, key_values):
                out_row[key.key] = values[g]
            for name, values in agg_columns:
                out_row[name] = values[g]
            out_rows.append(out_row)
        return out_rows

    def _group_runs(
        self,
        batch: Batch,
        child: PlanNode,
        keys: Tuple[ColumnRef, ...],
        memo: Optional[ExecutionMemo],
    ) -> Optional[Tuple[Any, Any, Any]]:
        """Stable (lex)argsort run structure of the group-key columns.

        Returns ``(order, starts, stops)`` in the :class:`_KeyGroups` layout,
        or None when any key column declines (object dtype, NULLs, NaNs).  A
        single key shares the join kernels' aux-cached ``("kgroups", ...)``
        grouping; multi-key tuples lexsort with the first key primary and
        cache per memoized child the same way.  NaN keys decline because the
        dict path groups them by object identity.
        """
        if len(keys) == 1:
            groups = self._key_groups(batch, child, keys[0].key, memo)
            if groups is None:
                return None
            unique = groups.unique
            if unique.dtype.kind == "f" and len(unique) and np.isnan(unique[-1]):
                return None
            return groups.order, groups.starts, groups.stops
        key_names = tuple(key.key for key in keys)
        aux_key = None
        if memo is not None:
            child_key = self._memo_key(child)
            if child_key is not None:
                aux_key = ("ggroups", child_key, key_names)
                cached = memo.aux_lookup(aux_key)
                if cached is not None:
                    return cached
        arrays = []
        for key in keys:
            array = numeric_array(self._column_of(batch, child, key.key, memo))
            if array is None or (array.dtype.kind == "f" and np.isnan(array).any()):
                return None
            arrays.append(array)
        order = np.lexsort(tuple(reversed(arrays)))
        count = len(order)
        diff = np.zeros(max(0, count - 1), dtype=bool)
        for array in arrays:
            sorted_vals = array[order]
            diff |= sorted_vals[1:] != sorted_vals[:-1]
        boundaries = np.flatnonzero(diff) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [count]))
        runs = (order, starts, stops)
        if aux_key is not None:
            memo.aux_store(aux_key, runs)
        return runs

    def _run_aggregate(
        self,
        aggregate: str,
        column: Optional[ColumnRef],
        batch: Batch,
        child: PlanNode,
        memo: Optional[ExecutionMemo],
        order: Optional[Any],
        run_starts: Any,
        emit: Any,
        starts: Any,
        stops: Any,
        sizes: List[int],
        length: int,
    ) -> List[Any]:
        """One aggregate expression evaluated per emitted run (Python scalars).

        ``run_starts`` is in sorted-run order (what ``reduceat`` needs),
        ``starts``/``stops``/``sizes`` are permuted to emission order
        (arbitrary-order slicing is fine), ``emit`` maps the former to the
        latter.  A typed null-free column reduces vectorized; anything else
        declines to :meth:`_aggregate_values` over the run's members, which
        is the oracle.
        """
        if column is None:
            # COUNT(*) counts members; any other aggregate without a column
            # is NULL (the oracle's behavior).
            return list(sizes) if aggregate == "COUNT" else [None] * len(sizes)
        values = self._column_of(batch, child, column.key, memo)
        array = numeric_array(values)
        if array is None:
            return self._python_run_aggregate(
                aggregate, column, values, order, starts, stops, length
            )
        if aggregate == "COUNT":
            # Typed non-object arrays are null-free by construction.
            return list(sizes)
        sorted_vals = array if order is None else array[order]
        if aggregate in ("SUM", "AVG"):
            out: List[Any] = []
            for start, stop, size in zip(starts.tolist(), stops.tolist(), sizes):
                # ``tolist`` + built-in ``sum`` adds the run's values left to
                # right as Python objects: bit-identical float rounding to
                # the row engine, arbitrary-precision integer sums.
                total = sum(sorted_vals[start:stop].tolist())
                out.append(total if aggregate == "SUM" else total / size)
            return out
        if aggregate in ("MIN", "MAX"):
            if sorted_vals.dtype.kind == "f" and np.isnan(sorted_vals).any():
                # Python min/max over NaNs is position-dependent; the loop
                # is the oracle.
                return self._python_run_aggregate(
                    aggregate, column, values, order, starts, stops, length
                )
            ufunc = np.minimum if aggregate == "MIN" else np.maximum
            return ufunc.reduceat(sorted_vals, run_starts)[emit].tolist()
        raise PlanError(f"unsupported aggregate {aggregate!r}")

    def _python_run_aggregate(
        self,
        aggregate: str,
        column: Optional[ColumnRef],
        values: Sequence[Any],
        order: Optional[Any],
        starts: Any,
        stops: Any,
        length: int,
    ) -> List[Any]:
        """Declined aggregate expression: the oracle loop per emitted run."""
        pyvals = python_values(values)
        if order is None:
            return [self._aggregate_values(aggregate, column, pyvals, range(length))]
        return [
            self._aggregate_values(aggregate, column, pyvals, order[start:stop])
            for start, stop in zip(starts.tolist(), stops.tolist())
        ]

    @staticmethod
    def _aggregate_values(
        aggregate: str,
        column: Optional[ColumnRef],
        values: Optional[Sequence[Any]],
        members: List[int],
    ) -> Any:
        if aggregate == "COUNT":
            if column is None:
                return len(members)
            return sum(1 for position in members if values[position] is not None)
        if column is None:
            return None
        present = [values[position] for position in members if values[position] is not None]
        if not present:
            return None
        if aggregate == "SUM":
            return sum(present)
        if aggregate == "AVG":
            return sum(present) / len(present)
        if aggregate == "MIN":
            return min(present)
        if aggregate == "MAX":
            return max(present)
        raise PlanError(f"unsupported aggregate {aggregate!r}")
