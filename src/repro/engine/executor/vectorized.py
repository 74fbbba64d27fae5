"""Vectorized batch executor.

Operators exchange :class:`Batch` objects -- per input table, its backing
value arrays plus a *position vector* selecting the live rows -- instead of
lists of per-row dicts.  Scans filter directly over the table's storage
columns (zero-copy), predicates are compiled once per plan into column-wise
closures (:func:`repro.engine.expressions.compile_predicate`), joins compose
their inputs' position vectors and gather only the key columns they read,
and sort/group-by reorder position vectors by a grouping of their key columns.
RETURN reduces the batch to the statement's select list; result rows are only
materialized as dicts once, at the plan root.

Keyed operators
---------------
Joins, SORT and GROUP BY read one key grouping,
:class:`~repro.engine.columns.KeyGroups` -- the form an index has too -- for
every key type: numeric, VARCHAR, integers beyond int64, NULL-bearing.  Each
reads it with the row engine's NULL rule:

* HSJOIN probes the inner's grouping with every outer key at once; a NULL
  key matches nothing and is neither probed nor bloom-filtered.
* NLJOIN over a scanned inner probes the same way, but NULL matches NULL
  (the row engine keys its inner rows by value tuple).  An index-lookup
  inner probes the index; a NULL outer key makes no lookup.
* MSJOIN pairs both inputs' runs in key order and charges what the row
  engine's merge loop charges, the drain of a NULL run included.
* SORT emits the grouping's order: stable on ``(is NULL, value)``.
* GROUP BY aggregates over its runs, NULL one more group, emitted in
  first-occurrence order.

Several key columns become one integer code per row (``_combine``); MSJOIN
merges on its first key and checks the others on each candidate pair.  No
operator has a dict-probe or row-loop fallback.

Equivalence contract
--------------------
This engine is charge-identical to the row-at-a-time engine in
:mod:`repro.engine.executor.executor`: result rows (values *and* dict key
order), per-operator actual cardinalities, every :class:`RuntimeMetrics`
counter, buffer-pool hit sequences, and therefore the simulated
``elapsed_ms`` are bit-identical for every plan.  The differential test suite
(``tests/unit/test_vectorized_executor.py``, with its key pool, and
``tests/property/test_key_grouping.py``) asserts this over randomized
TPC-DS and client plans and every key type; the row engine stays available
via ``DbConfig.executor = "row"`` as the oracle.

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
    NO_ROWS,
    KeyGroups,
    as_index_array,
    gather,
    null_split,
    python_values,
)
from repro.engine.config import PAGE_SIZE_ROWS, SORT_HEAP_PAGES, DbConfig
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


def _key_slots(
    groups: KeyGroups, values: Sequence[Any], nulls_match: bool
) -> Tuple[Any, Optional[Any]]:
    """Each probing row's run in ``groups`` (-1: none), and the probing
    column's NULL mask.  A NULL probes the NULL run when ``nulls_match``,
    nothing otherwise."""
    array, mask = null_split(values)
    if mask is None:
        return groups.find(array), None
    slots = np.full(len(array), len(groups.keys) if nulls_match else -1, dtype=np.intp)
    present = np.flatnonzero(~mask)
    slots[present] = groups.find(array[present])
    return slots, mask


def _combine(groups: Sequence[KeyGroups], slots: Sequence[Any]) -> Tuple[KeyGroups, Any]:
    """Several key columns grouped as one, and probing rows' runs in it.

    A row's code is its run in every column, mixed-radix (a column has
    ``len(keys) + 1`` runs, the NULL run included), grouped again after each column
    so the codes stay dense: equal codes are equal key tuples, NULL being a
    value -- the row engine's tuple keys.  ``slots[k]`` are the probing rows'
    runs in ``groups[k]``; they combine the same way, -1 (no match) wherever
    one column's is.  One column comes back as it is.
    """
    combined, probe = groups[0], slots[0]
    for column, column_slots in zip(groups[1:], slots[1:]):
        radix = len(column.keys) + 1
        codes = np.where((probe < 0) | (column_slots < 0), -1, probe * radix + column_slots)
        combined = KeyGroups(combined.codes() * radix + column.codes())
        probe = combined.find(codes)
    return combined, probe


def _merge_join(outer: KeyGroups, inner: KeyGroups) -> Tuple[Any, Any, int]:
    """The row engine's merge loop over two key groupings, whole-array.

    Returns ``(outer_picks, inner_picks, cpu)`` bit-identical to the loop:
    runs of equal keys pair up in key order and emit their cross product in
    (outer order, inner order).  The loop charges one CPU operation per
    iteration: one per matched run pair, one per candidate row pair, one per
    row it steps past.  It steps past an unmatched run whose key is below the
    other side's last key, never one above -- the other side runs out first.
    Then it drains a NULL run row by row: the inner's if the inner's keys ran
    out first; else the outer's, as long as the inner has rows left.
    """
    out_keys, in_keys = outer.keys, inner.keys
    out_sizes, in_sizes = np.diff(outer.offsets), np.diff(inner.offsets)
    slots = inner.find(out_keys)  # each outer key's run in the inner
    hits, sizes, inner_picks = inner.take_runs(np.repeat(slots, out_sizes))
    outer_picks = np.repeat(outer.row_ids[hits], sizes)
    cpu = len(inner_picks)
    if len(out_keys) and len(in_keys):
        matched = slots >= 0
        inner_unmatched = np.ones(len(in_keys), dtype=bool)
        inner_unmatched[slots[matched]] = False
        cpu += int(np.count_nonzero(matched))
        cpu += int(out_sizes[~matched & (out_keys < in_keys[-1])].sum())
        cpu += int(in_sizes[inner_unmatched & (in_keys < out_keys[-1])].sum())
    if len(out_keys) and (not len(in_keys) or out_keys[-1] > in_keys[-1]):
        cpu += len(inner.null_rows)  # the inner's keys ran out first
    elif len(out_keys) and out_keys[-1] == in_keys[-1]:
        cpu += len(outer.null_rows) if len(inner.null_rows) else 0  # both at once
    elif len(inner.order):
        cpu += len(outer.null_rows)  # the outer's keys ran out first
    return outer_picks, inner_picks, cpu


def _residual_equal(batch: Batch, keys: Sequence[Tuple[ColumnRef, ColumnRef]]) -> Any:
    """Which rows of a join's candidate batch hold every residual equi-key:
    ``==`` on the merged row, as the row engine compares it -- NULL equals
    NULL, and a column both sides carry reads the inner's value."""
    keep = np.ones(batch.length, dtype=bool)
    for outer_key, inner_key in keys:
        keep &= _as_array(batch.column(outer_key.key)) == _as_array(batch.column(inner_key.key))
    return keep


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

_JOIN_MEMO_TAGS = {
    PopType.HSJOIN: "HJ",
    PopType.MSJOIN: "MJ",
    PopType.NLJOIN: "NJ",
}


def _cached_key(node: PlanNode, slot: str, derive: Callable[[PlanNode], Any]) -> Any:
    """``SubtreeKey(derive(node))`` (None: no key), cached on the node: plans
    are never structurally mutated after planning, so each key is built and
    hashed once."""
    key = node.__dict__.get(slot, _KEY_UNSET)
    if key is _KEY_UNSET:
        raw = derive(node)
        try:
            key = None if raw is None else SubtreeKey(raw)
        except TypeError:  # unhashable predicate somewhere in the key
            key = None
        node.__dict__[slot] = key
    return key


def subtree_key(node: PlanNode) -> Optional[SubtreeKey]:
    """Structural identity of a memoizable subtree (None = not memoizable)."""
    return _cached_key(node, "_memo_subtree_key", _raw_subtree_key)


def plan_key(qgm: Qgm) -> Optional[SubtreeKey]:
    """Structural identity of a whole plan: the join tree's subtree key
    extended by the plan top.  With the table data it fixes the plan's rows,
    charges and actual cardinalities (operator ids number the nodes in
    pre-order).  None = the plan keeps no outcome."""
    return _cached_key(qgm.root, "_memo_plan_key", _raw_top_key)


def _raw_top_key(node: PlanNode) -> Any:
    """``node``'s subtree key, or for RETURN / GRPBY / FILTER / SORT over one
    keyed input, that key extended by what the operator does."""
    key = subtree_key(node)
    if key is not None or len(node.inputs) != 1:
        return key
    child = _raw_top_key(node.inputs[0])
    pop, properties = node.pop_type, node.properties
    if child is None:
        return None
    if pop is PopType.RETURN:
        return ("R", child, properties.get("output"))
    if pop is PopType.GRPBY:
        return ("G", child, properties.get("group_by"), properties.get("aggregates"))
    if pop is PopType.FILTER:
        return ("F", child, node.predicates)
    if pop is PopType.SORT:
        return ("S", child, properties.get("sorted_on"))
    return None


def _raw_subtree_key(node: PlanNode) -> Any:
    pop = node.pop_type
    if pop is PopType.TBSCAN:
        return ("TB", node.table, node.table_alias, node.predicates)
    if pop in (PopType.IXSCAN, PopType.FETCH):
        if node.index_name:
            return ("IX", node.table, node.table_alias, node.index_name, node.predicates)
        return ("TB", node.table, node.table_alias, node.predicates)
    if pop is PopType.FILTER and len(node.inputs) == 1:
        child = subtree_key(node.inputs[0])
        if child is not None:
            return ("F", child, node.predicates)
    if pop is PopType.SORT and len(node.inputs) == 1:
        child = subtree_key(node.inputs[0])
        if child is not None:
            return ("S", child, node.properties.get("sorted_on"))
    tag = _JOIN_MEMO_TAGS.get(pop)
    if tag is not None and node.outer is not None and node.inner is not None:
        outer = subtree_key(node.outer)
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
            inner = subtree_key(inner_node)
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
        The budget is state of this one call: the executor is shared by
        every caller -- a service's requests and its learner's budgeted runs,
        and the tests' own threads at once.
        """
        if memo is not None and memo.epoch is not None:
            # Epoch-managed (workload-scoped) memo: pin this execution to the
            # memo's current dict snapshot so a concurrent data change --
            # which resets the shared memo -- can neither corrupt this run's
            # view nor receive stale entries stored by it afterwards.
            memo = memo.pinned()
        metrics = RuntimeMetrics()
        if budget_ms is not None:
            metrics.budget = ExecutionBudget(budget_ms, qgm)
        pool = BufferPool(self.config.buffer_pool_pages)
        batch = self._execute_node(qgm.root, metrics, pool, memo)
        metrics.rows_returned = batch.length
        metrics.logical_reads = pool.logical_reads
        metrics.physical_reads = pool.physical_reads
        elapsed = metrics.elapsed_ms()
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
        # subtree_key maps an index-less IXSCAN to the same "TB" key this
        # handler serves via the fallback path, so the shapes always agree.
        key = subtree_key(node) if memo is not None else None
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
        key = subtree_key(node) if memo is not None else None
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
            child_key = subtree_key(node)
            if child_key is not None:
                aux_key = ("col", child_key, column_key)
                cached = memo.aux_lookup(aux_key)
                if cached is None:
                    cached = batch.column(column_key)
                    memo.aux_store(aux_key, cached)
                return cached
        return batch.column(column_key)

    # -- joins ----------------------------------------------------------------

    def _grouping(
        self,
        batch: Batch,
        node: PlanNode,
        column_keys: Tuple[str, ...],
        memo: Optional[ExecutionMemo],
    ) -> KeyGroups:
        """The :class:`KeyGroups` of ``node``'s output on ``column_keys``
        (several columns :func:`_combine` into one grouping).

        Cached in the memo's aux store per memoized subtree + columns: the
        grouping is a pure function of the subtree's batch.
        """
        aux_key = None
        if memo is not None:
            child_key = subtree_key(node)
            if child_key is not None:
                aux_key = ("groups", child_key, column_keys)
                cached = memo.aux_lookup(aux_key)
                if cached is not None:
                    return cached
        if len(column_keys) == 1:
            values = self._column_of(batch, node, column_keys[0], memo)
            groups = KeyGroups(*null_split(values))
        else:
            columns = [self._grouping(batch, node, (key,), memo) for key in column_keys]
            groups = _combine(columns, [NO_ROWS] * len(columns))[0]
        if aux_key is not None:
            memo.aux_store(aux_key, groups)
        return groups

    def _probe(
        self,
        node: PlanNode,
        outer_batch: Batch,
        inner_batch: Batch,
        keys: List[Tuple[ColumnRef, ColumnRef]],
        memo: Optional[ExecutionMemo],
        nulls_match: bool,
    ) -> Tuple[Any, Any, int, int]:
        """Every outer row probes the inner's grouping of the join keys at once.

        Returns ``(outer_picks, inner_picks, matched, keyed)``: the pairs in
        outer order then inner order (the row engine's loop order), how many
        outer rows matched, and how many have no NULL key.  NULL keys match
        nothing, or each other when ``nulls_match``.
        """
        groups, slots = [], []
        nulls = None
        for outer_key, inner_key in keys:
            column = self._grouping(inner_batch, node.inner, (inner_key.key,), memo)
            values = self._column_of(outer_batch, node.outer, outer_key.key, memo)
            column_slots, mask = _key_slots(column, values, nulls_match)
            groups.append(column)
            slots.append(column_slots)
            if mask is not None:
                nulls = mask if nulls is None else nulls | mask
        grouping, probe = _combine(groups, slots)
        hits, sizes, inner_picks = grouping.take_runs(probe)
        keyed = len(probe) - (0 if nulls is None else int(np.count_nonzero(nulls)))
        return np.repeat(hits, sizes), inner_picks, int(np.count_nonzero(sizes)), keyed

    def _execute_hash_join(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        assert node.outer is not None and node.inner is not None
        key = subtree_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        outer_batch = self._execute_node(node.outer, metrics, pool, memo)
        inner_batch = self._execute_node(node.inner, metrics, pool, memo)
        keys = equi_join_keys(node, set(node.outer.aliases()), set(node.inner.aliases()))

        own_deltas: List[Tuple[str, int]] = [("hash_build_rows", inner_batch.length)]
        metrics.hash_build_rows += inner_batch.length
        inner_pages = inner_batch.length // PAGE_SIZE_ROWS
        metrics.sort_heap_high_water_mark = max(
            metrics.sort_heap_high_water_mark, inner_pages
        )
        own_deltas.append(("sort_heap_high_water_mark", inner_pages))
        if inner_pages > SORT_HEAP_PAGES:
            spilled = (inner_pages - SORT_HEAP_PAGES) * 2
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

        # An outer row with a NULL key is neither probed nor bloom-filtered;
        # one whose key the build lacks is probed, or filtered by the bloom.
        outer_picks, inner_picks, matched, keyed = self._probe(
            node, outer_batch, inner_batch, keys, memo, nulls_match=False
        )
        if node.properties.get("bloom_filter"):
            probed, bloomed = matched, keyed - matched
        else:
            probed, bloomed = keyed, 0
        metrics.hash_probe_rows += probed
        metrics.bloom_filtered_rows += bloomed
        own_deltas.append(("hash_probe_rows", probed))
        own_deltas.append(("bloom_filtered_rows", bloomed))
        result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
        self._store_join_entry(memo, key, node, result, metrics, own_deltas)
        return result

    def _execute_merge_join(
        self,
        node: PlanNode,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        memo: Optional[ExecutionMemo],
    ) -> Batch:
        assert node.outer is not None and node.inner is not None
        key = subtree_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        outer_batch = self._execute_node(node.outer, metrics, pool, memo)
        inner_batch = self._execute_node(node.inner, metrics, pool, memo)
        keys = equi_join_keys(node, set(node.outer.aliases()), set(node.inner.aliases()))
        if not keys:
            raise PlanError("MSJOIN requires at least one equi-join predicate")
        outer_key, inner_key = keys[0]
        outer_picks, inner_picks, cpu = _merge_join(
            self._grouping(outer_batch, node.outer, (outer_key.key,), memo),
            self._grouping(inner_batch, node.inner, (inner_key.key,), memo),
        )
        metrics.cpu_operations += cpu
        result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
        if len(keys) > 1:
            # Every candidate pair was charged; the residual keys filter them.
            result = result.take(np.flatnonzero(_residual_equal(result, keys[1:])))
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
        key = subtree_key(node) if memo is not None else None
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
        if keys:
            # The row engine keys its inner rows by value tuple: NULL = NULL.
            outer_picks, inner_picks, _, _ = self._probe(
                node, outer_batch, inner_batch, keys, memo, nulls_match=True
            )
        else:
            outer_picks, inner_picks = _cross_picks(outer_batch.length, inner_batch.length)
        result = Batch.joined(outer_batch, outer_picks, inner_batch, inner_picks)
        self._store_join_entry(memo, key, node, result, metrics, [("cpu_operations", rescan_cpu)])
        return result

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

        # A NULL outer key makes no lookup.
        probe, nulls = null_split(self._column_of(outer_batch, node.outer, outer_key.key, memo))
        outer_rows = np.arange(len(probe), dtype=np.intp)
        if nulls is not None:
            outer_rows = np.flatnonzero(~nulls)
            probe = probe[outer_rows]
        # One lookup per outer row with a key: charged before any is made, so
        # the budget can stop the plan ahead of the probing.
        lookups = len(probe)
        metrics.index_lookups += lookups
        if metrics.budget is not None:
            metrics.budget.check(metrics, pool)
        counts, row_ids = index_data.probe(probe)
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

        candidates = Batch(
            outer_batch.sources_at(np.repeat(outer_rows, counts))
            + ((inner_columns, row_ids),),
            processed,
        )
        predicates = inner_node.predicates
        keep = _residual_equal(candidates, keys[1:])
        if predicates and processed:
            mask = conjunction_mask(predicates, inner_columns)
            if mask is None:
                # Not vectorizable: the closure path, once per touched row.
                touched = np.zeros(data.row_count, dtype=bool)
                touched[row_ids] = True
                survivors = filter_positions(predicates, inner_columns, np.flatnonzero(touched))
                mask = np.zeros_like(touched)
                mask[as_index_array(survivors)] = True
            keep &= mask[row_ids]
        result = candidates if keep.all() else candidates.take(np.flatnonzero(keep))
        metrics.actual_cardinalities[inner_node.operator_id] = result.length
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
        key = subtree_key(node) if memo is not None else None
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
        key = subtree_key(node) if memo is not None else None
        hit = self._memo_hit(key, node, metrics, pool, memo)
        if hit is not None:
            return hit
        child_batch = self._execute_node(node.inputs[0], metrics, pool, memo)
        length = child_batch.length
        metrics.sort_rows += length
        pages = length // PAGE_SIZE_ROWS
        metrics.sort_heap_high_water_mark = max(metrics.sort_heap_high_water_mark, pages)
        spilled = 0
        if pages > SORT_HEAP_PAGES:
            spilled = (pages - SORT_HEAP_PAGES) * 2
            metrics.spill_pages += spilled
        sort_key: Optional[ColumnRef] = node.properties.get("sorted_on")
        if sort_key is None:
            result = child_batch
        else:
            # The grouping's order is the row engine's stable sort on
            # ``(is NULL, value)``: keys ascending, NULLs last.
            values = child_batch.column(sort_key.key)
            result = child_batch.take(KeyGroups(*null_split(values)).order)
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
        """Aggregate over the runs of the group keys' grouping.

        Groups leave in first-occurrence order, as the row engine's dict
        inserts them: a run's first row is its earliest (the grouping's sort
        is stable).  A NULL key is one more group; a missing key column reads
        as NULLs, as the row engine's ``row.get`` does.  The output is a batch
        over one array per key and per aggregate.
        """
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
        columns: Dict[str, Sequence[Any]] = {}
        if keys:
            groups = self._grouping(child_batch, child, tuple(key.key for key in keys), memo)
            order, sizes = groups.order, np.diff(groups.bounds)
            runs = np.flatnonzero(sizes)  # the NULL run may be empty
            emit = runs[np.argsort(order[groups.bounds[runs]])]
            starts, sizes = groups.bounds[emit], sizes[emit]
            for key in keys:
                values = _as_array(self._column_of(child_batch, child, key.key, memo))
                columns[key.key] = values[order[starts]]
        else:
            # One group of every row -- of none, on an empty input.
            order = None
            starts, sizes = np.zeros(1, dtype=np.intp), np.full(1, length, dtype=np.intp)
        for aggregate, column in aggregates:
            values = None
            if column is not None:
                values = self._column_of(child_batch, child, column.key, memo)
            target = column.key if column is not None else "*"
            aggregated = np.empty(len(starts), dtype=object)
            aggregated[:] = _run_aggregate(aggregate, values, order, starts, sizes)
            columns[f"{aggregate}({target})"] = aggregated
        return Batch(((columns, None),), len(starts))


def _run_aggregate(
    aggregate: str, values: Optional[Sequence[Any]], order: Optional[Any], starts: Any, sizes: Any
) -> List[Any]:
    """One aggregate over each run ``order[starts[g]:starts[g] + sizes[g]]``.

    NULLs are skipped: COUNT counts the rest, an aggregate of none is NULL.
    Each run's values reach the built-in ``sum`` / ``min`` / ``max`` as a
    list of Python values in input order, as the row engine's do, so every
    output bit matches (float rounding, integers beyond int64, which of two
    equal values MIN keeps).  ``values`` None is ``COUNT(*)`` (any other
    aggregate of it is NULL).
    """
    if values is None:
        return sizes.tolist() if aggregate == "COUNT" else [None] * len(sizes)
    array, mask = null_split(values)
    ordered = array if order is None else array[order]
    counts = sizes
    if mask is not None:
        present = ~mask if order is None else ~mask[order]
        ordered = ordered[present]
        before = np.concatenate(([0], np.cumsum(present)))
        starts, counts = before[starts], before[starts + sizes] - before[starts]
    if aggregate == "COUNT":
        return counts.tolist()
    reduce = {"SUM": sum, "AVG": sum, "MIN": min, "MAX": max}.get(aggregate)
    if reduce is None:
        raise PlanError(f"unsupported aggregate {aggregate!r}")
    listed = ordered.tolist()
    spans = zip(starts.tolist(), counts.tolist())
    if aggregate == "AVG":
        return [
            sum(listed[start : start + count]) / count if count else None
            for start, count in spans
        ]
    return [reduce(listed[start : start + count]) if count else None for start, count in spans]
