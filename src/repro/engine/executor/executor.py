"""Row-at-a-time plan executor with runtime simulation.

Plans are executed for real against the in-memory tables (producing correct
result rows and *actual* per-operator cardinalities), while a deterministic
runtime model -- buffer pool, sort spills, per-row CPU -- converts the work
performed into a simulated elapsed time.  The combination gives the learning
engine exactly what ``db2batch`` gives the paper: true cardinalities and a
repeatable "runtime" to rank plans by, including the pathologies (index-scan
flooding, sort spills, oversized hash builds) the optimizer's estimates miss.

This module is the *legacy* engine: every operator materializes a qualified
``dict`` per row.  The default engine is the vectorized batch executor in
:mod:`repro.engine.executor.vectorized`, which produces bit-identical rows,
metrics and simulated elapsed times while exchanging column batches instead
of row dicts; this row engine is kept as the differential-testing oracle and
is selected with ``DbConfig.executor = "row"``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.catalog import Catalog
from repro.engine.config import PAGE_SIZE_ROWS, SORT_HEAP_PAGES, DbConfig
from repro.engine.executor.bufferpool import BufferPool
from repro.engine.executor.metrics import (
    ExecutionBudget,
    RuntimeMetrics,
    record_node_metric_deltas,
    snapshot_metrics,
)
from repro.engine.expressions import ColumnRef, Comparison, Predicate, Row
from repro.engine.plan.physical import PlanNode, PopType, Qgm
from repro.engine.storage import TableData
from repro.errors import PlanError
from repro.obs.tracing import current_execution_span, execution_tracing


class ExecutionResult:
    """Rows produced plus the runtime metrics and simulated elapsed time.

    ``rows`` may be given eagerly (a list of dicts, the row engine) or as the
    output ``batch`` of the vectorized engine, materialized on first access:
    the learning tier executes thousands of candidate plans per sweep and
    ranks them purely on metrics/elapsed time, so building one dict per
    result row at every plan root is wasted work there.  Every consumer that
    does read ``rows`` (the serving tier, the differential tests) sees
    exactly the rows an eager construction would have produced, as a list of
    its own.

    A served request whose plan's outcome the execution memo keeps gets a
    replay (see :class:`repro.engine.executor.memo.PlanOutcome`): eager rows
    copied from the kept ones, over the ``metrics`` and
    ``actual_cardinalities`` of the one execution it stored, which every
    replay of it shares -- so a result is read-only; only its ``rows``
    belong to the caller.
    """

    def __init__(
        self,
        rows: Optional[List[Row]] = None,
        metrics: Optional[RuntimeMetrics] = None,
        elapsed_ms: float = 0.0,
        actual_cardinalities: Optional[Dict[int, int]] = None,
        batch=None,
    ):
        if rows is None and batch is None:
            rows = []
        self._rows = rows
        #: The vectorized engine's output batch (None from the row engine).
        self.batch = batch
        self._row_count = len(rows) if rows is not None else batch.length
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.elapsed_ms = elapsed_ms
        self.actual_cardinalities = actual_cardinalities or {}

    @property
    def rows(self) -> List[Row]:
        if self._rows is None:
            self._rows = self.batch.to_rows()
        return self._rows

    @property
    def row_count(self) -> int:
        return self._row_count

    def max_q_error(self, qgm: Qgm) -> float:
        """The plan's worst per-operator cardinality q-error (1.0 = perfect).

        An operator's q-error is max(est/actual, actual/est), both floored at
        1, over the operators whose actual cardinality this execution
        observed.  This is the runtime-feedback signal the serving tier's
        monitor thresholds on: a large q-error anywhere in the plan marks the
        query as mis-estimated and therefore a candidate for background
        learning.
        """
        worst = 1.0
        for node in qgm.root.walk():
            actual = self.actual_cardinalities.get(node.operator_id)
            if actual is not None:
                estimated = max(1.0, float(node.estimated_cardinality))
                observed = max(1.0, float(actual))
                worst = max(worst, estimated / observed, observed / estimated)
        return worst


def equi_join_keys(
    node: PlanNode, outer_aliases: set, inner_aliases: set
) -> List[Tuple[ColumnRef, ColumnRef]]:
    """Pairs of (outer column, inner column) for the join's equi-predicates."""
    keys = []
    for predicate in node.join_predicates:
        left, right = predicate.left, predicate.right
        if not isinstance(left, ColumnRef) or not isinstance(right, ColumnRef):
            continue
        if left.qualifier in outer_aliases and right.qualifier in inner_aliases:
            keys.append((left, right))
        elif right.qualifier in outer_aliases and left.qualifier in inner_aliases:
            keys.append((right, left))
    return keys


def _sort_key(row: Row, column: ColumnRef) -> Tuple[bool, Any]:
    """The order SORT and MSJOIN put rows in (stably): NULLs last."""
    value = row.get(column.key)
    return (value is None, value if value is not None else 0)


def index_qualifying_row_ids(node: PlanNode, index_data, alias: str) -> Any:
    """Row ids an index scan qualifies, as an array in the scan's visit order.

    Shared by the row and vectorized engines so both resolve sargable
    predicates -- equality, IN lists, ranges -- identically.
    """
    from repro.engine.expressions import Between, InList, Literal

    key_column = index_data.definition.column
    key_ref = ColumnRef(alias, key_column)
    equality_values: Optional[List[Any]] = None
    range_low: Optional[Any] = None
    range_high: Optional[Any] = None
    for predicate in node.predicates:
        if isinstance(predicate, Comparison) and predicate.left == key_ref and isinstance(predicate.right, Literal):
            if predicate.op == "=":
                equality_values = [predicate.right.value]
            elif predicate.op in (">", ">="):
                range_low = predicate.right.value
            elif predicate.op in ("<", "<="):
                range_high = predicate.right.value
        elif isinstance(predicate, Between) and predicate.column == key_ref:
            range_low, range_high = predicate.low.value, predicate.high.value
        elif isinstance(predicate, InList) and predicate.column == key_ref:
            equality_values = list(predicate.values)

    if equality_values is not None:
        found = [index_data.lookup(value) for value in equality_values]
        return np.concatenate(found) if found else np.zeros(0, dtype=np.intp)
    if range_low is not None or range_high is not None:
        return index_data.lookup_range(range_low, range_high)
    # No sargable predicate: full index scan.
    return index_data.scan()


class Executor:
    """Executes QGM plans against the catalog's in-memory data."""

    def __init__(self, catalog: Catalog, config: Optional[DbConfig] = None):
        self.catalog = catalog
        self.config = config or catalog.config

    # ------------------------------------------------------------------

    def execute(
        self, qgm: Qgm, memo=None, budget_ms: Optional[float] = None
    ) -> ExecutionResult:
        """Execute ``qgm``, recording every node's row count by operator id.

        The plan is only read, never written.  ``memo`` is accepted for
        interface parity with the vectorized engine and ignored: the row
        engine always executes cold.  ``budget_ms`` raises
        :class:`~repro.errors.PlanBudgetExceeded` exactly when the
        plan's ``elapsed_ms`` is above it, as early as that is certain (see
        :class:`~repro.engine.executor.metrics.ExecutionBudget`).
        """
        metrics = RuntimeMetrics()
        if budget_ms is not None:
            metrics.budget = ExecutionBudget(budget_ms, qgm)
        buffer_pool = BufferPool(self.config.buffer_pool_pages)
        rows = self._execute_node(qgm.root, metrics, buffer_pool)
        metrics.rows_returned = len(rows)
        metrics.logical_reads = buffer_pool.logical_reads
        metrics.physical_reads = buffer_pool.physical_reads
        elapsed = metrics.elapsed_ms()
        return ExecutionResult(
            rows=rows,
            metrics=metrics,
            elapsed_ms=elapsed,
            actual_cardinalities=metrics.actual_cardinalities,
        )

    # ------------------------------------------------------------------

    def _execute_node(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        handler = {
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
        }.get(node.pop_type)
        if handler is None:
            raise PlanError(f"no executor for operator {node.pop_type}")
        parent = current_execution_span()
        if parent is None:
            rows = handler(node, metrics, pool)
            self._node_finished(node, len(rows), metrics, pool)
        else:
            rows = self._execute_node_traced(node, handler, metrics, pool, parent)
        return rows

    def _node_finished(
        self, node: PlanNode, row_count: int, metrics: RuntimeMetrics, pool: BufferPool
    ) -> None:
        """Record the node's actual cardinality, then enforce the budget."""
        metrics.actual_cardinalities[node.operator_id] = row_count
        if metrics.budget is not None:
            metrics.budget.check(metrics, pool)

    def _execute_node_traced(
        self,
        node: PlanNode,
        handler,
        metrics: RuntimeMetrics,
        pool: BufferPool,
        parent,
    ) -> List[Row]:
        """Run ``handler`` under a per-node child span.

        Spans only *read* metrics (a snapshot before and after), so traced
        and untraced execution stay bit-identical.  The handler runs with
        this node's span installed as the thread's execution span, so its
        recursive ``_execute_node`` calls parent under it; metric deltas are
        therefore per *subtree*, matching the span's own wall time.  The
        budget is enforced inside the span, so it is this node's span that an
        abort marks.
        """
        before = snapshot_metrics(metrics)
        with parent.child(node.pop_type.name.lower()) as span:
            with execution_tracing(span):
                rows = handler(node, metrics, pool)
                self._node_finished(node, len(rows), metrics, pool)
            span.set("operator_id", node.operator_id)
            if node.table:
                span.set("table", node.table)
                if node.table_alias and node.table_alias != node.table:
                    span.set("alias", node.table_alias)
            span.set("rows", len(rows))
            record_node_metric_deltas(span, before, snapshot_metrics(metrics))
        return rows

    # -- leaf operators -----------------------------------------------------

    def _table_for(self, node: PlanNode) -> TableData:
        if not node.table:
            raise PlanError(f"scan node #{node.operator_id} has no table")
        return self.catalog.table_data(node.table)

    def _rows_per_page(self, data: TableData) -> int:
        return max(1, data.row_count // max(1, data.page_count))

    @staticmethod
    def _qualify(row: Dict[str, Any], alias: str) -> Row:
        return {f"{alias}.{column}": value for column, value in row.items()}

    def _execute_table_scan(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        data = self._table_for(node)
        alias = node.table_alias or node.table or ""
        metrics.sequential_pages += data.page_count
        pool.access_sequential(node.table or "", 0, data.page_count)
        output: List[Row] = []
        predicates = node.predicates
        for raw in data.rows():
            metrics.rows_processed += 1
            row = self._qualify(raw, alias)
            if all(predicate.evaluate(row) for predicate in predicates):
                output.append(row)
        return output

    def _execute_index_scan(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        data = self._table_for(node)
        alias = node.table_alias or node.table or ""
        index_data = data.index(node.index_name) if node.index_name else None
        if index_data is None:
            return self._execute_table_scan(node, metrics, pool)

        row_ids = self._index_qualifying_row_ids(node, index_data, alias)
        rows_per_page = self._rows_per_page(data)
        output: List[Row] = []
        for row_id in row_ids.tolist():
            metrics.rows_processed += 1
            metrics.index_lookups += 1
            page = row_id // rows_per_page
            hit = pool.access(node.table or "", page)
            if not hit:
                metrics.random_pages += 1
            row = self._qualify(data.row(row_id), alias)
            if all(predicate.evaluate(row) for predicate in node.predicates):
                output.append(row)
        return output

    def _index_qualifying_row_ids(self, node: PlanNode, index_data, alias: str) -> Any:
        """Row ids the index scan qualifies, in the scan's visit order."""
        return index_qualifying_row_ids(node, index_data, alias)

    # -- joins ----------------------------------------------------------------

    @staticmethod
    def _join_keys(
        node: PlanNode, outer_aliases: set, inner_aliases: set
    ) -> List[Tuple[ColumnRef, ColumnRef]]:
        """Pairs of (outer column, inner column) for the join's equi-predicates."""
        return equi_join_keys(node, outer_aliases, inner_aliases)

    def _execute_hash_join(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        assert node.outer is not None and node.inner is not None
        outer_rows = self._execute_node(node.outer, metrics, pool)
        inner_rows = self._execute_node(node.inner, metrics, pool)
        outer_aliases = set(node.outer.aliases())
        inner_aliases = set(node.inner.aliases())
        keys = self._join_keys(node, outer_aliases, inner_aliases)

        metrics.hash_build_rows += len(inner_rows)
        inner_pages = len(inner_rows) // PAGE_SIZE_ROWS
        metrics.sort_heap_high_water_mark = max(
            metrics.sort_heap_high_water_mark, inner_pages
        )
        if inner_pages > SORT_HEAP_PAGES:
            metrics.spill_pages += (inner_pages - SORT_HEAP_PAGES) * 2

        if not keys:
            # Cross product.
            output = []
            for outer_row in outer_rows:
                for inner_row in inner_rows:
                    metrics.cpu_operations += 1
                    merged = dict(outer_row)
                    merged.update(inner_row)
                    output.append(merged)
            return output

        hash_table: Dict[Tuple, List[Row]] = {}
        bloom: Optional[set] = set() if node.properties.get("bloom_filter") else None
        for inner_row in inner_rows:
            key = tuple(inner_row.get(inner_key.key) for _, inner_key in keys)
            if any(part is None for part in key):
                continue
            hash_table.setdefault(key, []).append(inner_row)
            if bloom is not None:
                bloom.add(key)

        output = []
        for outer_row in outer_rows:
            key = tuple(outer_row.get(outer_key.key) for outer_key, _ in keys)
            if any(part is None for part in key):
                continue
            if bloom is not None and key not in bloom:
                metrics.bloom_filtered_rows += 1
                continue
            metrics.hash_probe_rows += 1
            for inner_row in hash_table.get(key, []):
                merged = dict(outer_row)
                merged.update(inner_row)
                output.append(merged)
        return output

    def _execute_merge_join(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        assert node.outer is not None and node.inner is not None
        outer_rows = self._execute_node(node.outer, metrics, pool)
        inner_rows = self._execute_node(node.inner, metrics, pool)
        outer_aliases = set(node.outer.aliases())
        inner_aliases = set(node.inner.aliases())
        keys = self._join_keys(node, outer_aliases, inner_aliases)
        if not keys:
            raise PlanError("MSJOIN requires at least one equi-join predicate")
        outer_key, inner_key = keys[0]

        outer_sorted = sorted(outer_rows, key=lambda row: _sort_key(row, outer_key))
        inner_sorted = sorted(inner_rows, key=lambda row: _sort_key(row, inner_key))

        output: List[Row] = []
        i = j = 0
        residual_keys = keys[1:]
        while i < len(outer_sorted) and j < len(inner_sorted):
            metrics.cpu_operations += 1
            left_value = outer_sorted[i].get(outer_key.key)
            right_value = inner_sorted[j].get(inner_key.key)
            if left_value is None:
                i += 1
                continue
            if right_value is None:
                j += 1
                continue
            if left_value < right_value:
                i += 1
            elif left_value > right_value:
                j += 1
            else:
                # Gather the block of equal inner keys and join it.
                j_end = j
                while j_end < len(inner_sorted) and inner_sorted[j_end].get(inner_key.key) == left_value:
                    j_end += 1
                i_end = i
                while i_end < len(outer_sorted) and outer_sorted[i_end].get(outer_key.key) == left_value:
                    i_end += 1
                for oi in range(i, i_end):
                    for ji in range(j, j_end):
                        metrics.cpu_operations += 1
                        candidate = dict(outer_sorted[oi])
                        candidate.update(inner_sorted[ji])
                        if all(
                            candidate.get(ok.key) == candidate.get(ik.key)
                            for ok, ik in residual_keys
                        ):
                            output.append(candidate)
                i = i_end
                j = j_end
        return output

    def _execute_nested_loop_join(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        assert node.outer is not None and node.inner is not None
        outer_rows = self._execute_node(node.outer, metrics, pool)
        inner_node = node.inner
        outer_aliases = set(node.outer.aliases())
        inner_aliases = set(inner_node.aliases())
        keys = self._join_keys(node, outer_aliases, inner_aliases)

        if (
            inner_node.is_scan
            and inner_node.properties.get("nljoin_lookup")
            and inner_node.index_name
            and keys
        ):
            return self._nljoin_index_lookup(
                node, outer_rows, inner_node, keys, metrics, pool
            )

        inner_rows = self._execute_node(inner_node, metrics, pool)
        # Re-scanning the inner for every outer row: charge the CPU for it --
        # known from the input sizes, so the budget can stop the plan before
        # the rows are produced.
        metrics.cpu_operations += len(outer_rows) * max(1, len(inner_rows))
        if metrics.budget is not None:
            metrics.budget.check(metrics, pool)
        inner_by_key: Dict[Tuple, List[Row]] = {}
        if keys:
            for inner_row in inner_rows:
                key = tuple(inner_row.get(ik.key) for _, ik in keys)
                inner_by_key.setdefault(key, []).append(inner_row)
        output: List[Row] = []
        for outer_row in outer_rows:
            if keys:
                key = tuple(outer_row.get(ok.key) for ok, _ in keys)
                matches = inner_by_key.get(key, [])
            else:
                matches = inner_rows
            for inner_row in matches:
                merged = dict(outer_row)
                merged.update(inner_row)
                output.append(merged)
        return output

    def _nljoin_index_lookup(
        self,
        node: PlanNode,
        outer_rows: List[Row],
        inner_node: PlanNode,
        keys: List[Tuple[ColumnRef, ColumnRef]],
        metrics: RuntimeMetrics,
        pool: BufferPool,
    ) -> List[Row]:
        """Inner side evaluated as one index lookup per outer row."""
        data = self._table_for(inner_node)
        alias = inner_node.table_alias or inner_node.table or ""
        index_data = data.index(inner_node.index_name)
        rows_per_page = self._rows_per_page(data)
        outer_key, inner_key = keys[0]
        lookup_on_index = index_data.definition.column == inner_key.column
        inner_matched = 0

        # One lookup per outer row with a key: charged before any is made,
        # so the budget can stop the plan ahead of the probing.
        keyed = ((outer_row, outer_row.get(outer_key.key)) for outer_row in outer_rows)
        probes = [(outer_row, value) for outer_row, value in keyed if value is not None]
        metrics.index_lookups += len(probes)
        if metrics.budget is not None:
            metrics.budget.check(metrics, pool)

        output: List[Row] = []
        for outer_row, value in probes:
            if lookup_on_index:
                row_ids = index_data.lookup(value).tolist()
            else:
                row_ids = [
                    row_id
                    for row_id in range(data.row_count)
                    if data.column_values(inner_key.column)[row_id] == value
                ]
            for row_id in row_ids:
                metrics.rows_processed += 1
                page = row_id // rows_per_page
                if not pool.access(inner_node.table or "", page):
                    metrics.random_pages += 1
                inner_row = self._qualify(data.row(row_id), alias)
                if not all(p.evaluate(inner_row) for p in inner_node.predicates):
                    continue
                candidate = dict(outer_row)
                candidate.update(inner_row)
                if all(
                    candidate.get(ok.key) == candidate.get(ik.key)
                    for ok, ik in keys[1:]
                ):
                    inner_matched += 1
                    output.append(candidate)
        metrics.actual_cardinalities[inner_node.operator_id] = inner_matched
        return output

    # -- other operators ---------------------------------------------------------

    def _execute_return(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        if not node.inputs:
            return []
        rows = self._execute_node(node.inputs[0], metrics, pool)
        output = node.properties.get("output")
        if output is None:
            return rows
        return [{key: row.get(key) for key in output} for row in rows]

    def _execute_filter(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        rows = self._execute_node(node.inputs[0], metrics, pool)
        metrics.cpu_operations += len(rows)
        return [row for row in rows if all(p.evaluate(row) for p in node.predicates)]

    def _execute_sort(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        rows = self._execute_node(node.inputs[0], metrics, pool)
        metrics.sort_rows += len(rows)
        pages = len(rows) // PAGE_SIZE_ROWS
        metrics.sort_heap_high_water_mark = max(metrics.sort_heap_high_water_mark, pages)
        if pages > SORT_HEAP_PAGES:
            metrics.spill_pages += (pages - SORT_HEAP_PAGES) * 2
        key: Optional[ColumnRef] = node.properties.get("sorted_on")
        if key is None:
            return rows
        return sorted(rows, key=lambda row: _sort_key(row, key))

    def _execute_group_by(
        self, node: PlanNode, metrics: RuntimeMetrics, pool: BufferPool
    ) -> List[Row]:
        rows = self._execute_node(node.inputs[0], metrics, pool)
        metrics.cpu_operations += len(rows)
        keys: Tuple[ColumnRef, ...] = tuple(node.properties.get("group_by") or ())
        aggregates = tuple(node.properties.get("aggregates") or ())

        if rows:
            # An aggregate referencing a column its input does not produce is
            # a planner bug; surface it instead of aggregating silent NULLs
            # (``row.get`` would).  Group *keys* keep the NULL-fill semantics.
            available = rows[0]
            for aggregate, column in aggregates:
                if column is not None and column.key not in available:
                    raise PlanError(
                        f"aggregate {aggregate}({column.key}) references a column "
                        f"missing from the grouped input"
                    )

        groups: Dict[Tuple, List[Row]] = {}
        for row in rows:
            group_key = tuple(row.get(key.key) for key in keys)
            groups.setdefault(group_key, []).append(row)
        if not groups and not keys:
            groups[()] = []

        output: List[Row] = []
        for group_key, members in groups.items():
            out_row: Row = {}
            for key, value in zip(keys, group_key):
                out_row[key.key] = value
            for aggregate, column in aggregates:
                out_row[self._aggregate_name(aggregate, column)] = self._aggregate(
                    aggregate, column, members
                )
            output.append(out_row)
        return output

    @staticmethod
    def _aggregate_name(aggregate: str, column: Optional[ColumnRef]) -> str:
        target = column.key if column is not None else "*"
        return f"{aggregate}({target})"

    @staticmethod
    def _aggregate(aggregate: str, column: Optional[ColumnRef], rows: List[Row]) -> Any:
        if aggregate == "COUNT":
            if column is None:
                return len(rows)
            return sum(1 for row in rows if row.get(column.key) is not None)
        values = [row.get(column.key) for row in rows if column is not None]
        values = [value for value in values if value is not None]
        if not values:
            return None
        if aggregate == "SUM":
            return sum(values)
        if aggregate == "AVG":
            return sum(values) / len(values)
        if aggregate == "MIN":
            return min(values)
        if aggregate == "MAX":
            return max(values)
        raise PlanError(f"unsupported aggregate {aggregate!r}")
