"""Catalog statistics: per-table and per-column summaries.

The cost-based optimizer estimates predicate selectivities and join
cardinalities from these statistics.  They use the classic System-R
assumptions (uniformity within histogram buckets, independence between
predicates, containment of join keys), which is precisely why the optimizer
goes wrong on skewed and correlated data -- the estimation errors GALO's
learning engine detects and repairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columns import ColumnVector
from repro.engine.schema import TableSchema
from repro.engine.storage import TableData

#: Number of equi-depth histogram buckets collected per numeric column.
HISTOGRAM_BUCKETS = 20
#: Number of most-frequent values tracked per column.
FREQUENT_VALUES = 10


@dataclass
class ColumnStatistics:
    """Summary statistics for one column."""

    column: str
    n_rows: int = 0
    n_nulls: int = 0
    n_distinct: int = 0
    min_value: Optional[Any] = None
    max_value: Optional[Any] = None
    #: Equi-depth bucket boundaries (ascending) for numeric columns.
    histogram: List[float] = field(default_factory=list)
    #: Most frequent values with their counts, descending by count.
    frequent_values: List[Tuple[Any, int]] = field(default_factory=list)

    @property
    def null_fraction(self) -> float:
        if self.n_rows == 0:
            return 0.0
        return self.n_nulls / self.n_rows

    def selectivity_equals(self, value: Any) -> float:
        """Estimated selectivity of ``column = value``."""
        if self.n_rows == 0:
            return 0.0
        if value is None:
            return self.null_fraction
        for frequent_value, count in self.frequent_values:
            if frequent_value == value:
                return count / self.n_rows
        if self.n_distinct <= 0:
            return 1.0 / max(1, self.n_rows)
        # Remaining (non-frequent) values are assumed uniform.
        frequent_rows = sum(count for _, count in self.frequent_values)
        frequent_distinct = len(self.frequent_values)
        remaining_distinct = max(1, self.n_distinct - frequent_distinct)
        remaining_rows = max(0, self.n_rows - self.n_nulls - frequent_rows)
        return max(1.0, remaining_rows / remaining_distinct) / self.n_rows

    def selectivity_range(
        self, low: Optional[Any], high: Optional[Any], *,
        low_inclusive: bool = True, high_inclusive: bool = True,
    ) -> float:
        """Estimated selectivity of a range predicate using the histogram.

        Non-numeric columns fall back to a fixed guess of 1/3 per open side,
        mirroring the textbook default selectivities.
        """
        if self.n_rows == 0:
            return 0.0
        if not self.histogram or self.min_value is None or self.max_value is None:
            fraction = 1.0
            if low is not None:
                fraction *= 1.0 / 3.0
            if high is not None:
                fraction *= 1.0 / 3.0
            return max(fraction, 1.0 / max(1, self.n_rows))
        try:
            low_f = float(low) if low is not None else float(self.min_value)
            high_f = float(high) if high is not None else float(self.max_value)
        except (TypeError, ValueError):
            return 1.0 / 3.0
        covered = self._histogram_fraction(low_f, high_f)
        covered *= 1.0 - self.null_fraction
        return min(1.0, max(covered, 1.0 / max(1, self.n_rows)))

    def _histogram_fraction(self, low: float, high: float) -> float:
        """Fraction of rows whose value falls in ``[low, high]`` per histogram."""
        if high < low:
            return 0.0
        boundaries = self.histogram
        n_buckets = len(boundaries) - 1
        if n_buckets <= 0:
            return 1.0
        per_bucket = 1.0 / n_buckets
        fraction = 0.0
        for i in range(n_buckets):
            bucket_low = boundaries[i]
            bucket_high = boundaries[i + 1]
            if bucket_high < low or bucket_low > high:
                continue
            if bucket_high == bucket_low:
                fraction += per_bucket
                continue
            overlap_low = max(bucket_low, low)
            overlap_high = min(bucket_high, high)
            fraction += per_bucket * max(
                0.0, (overlap_high - overlap_low) / (bucket_high - bucket_low)
            )
        return min(1.0, fraction)


@dataclass
class TableStatistics:
    """Summary statistics for one table."""

    table: str
    cardinality: int = 0
    pages: int = 1
    columns: Dict[str, ColumnStatistics] = field(default_factory=dict)
    #: Statistics epoch at which an explicit RUNSTATS collected this object
    #: (stamped by :meth:`repro.engine.database.Database.runstats`); ``None``
    #: for implicit collections (seed stats built during data loads).  Lets
    #: callers tell a re-collection apart from a cache of the old epoch
    #: without comparing histograms.
    collected_epoch: Optional[int] = None

    def column(self, name: str) -> ColumnStatistics:
        if name not in self.columns:
            # Unknown column: return an empty stats object with safe defaults.
            return ColumnStatistics(column=name, n_rows=self.cardinality,
                                    n_distinct=max(1, self.cardinality // 10))
        return self.columns[name]


def collect_column_statistics(column: str, values: Sequence[Any]) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` for one column.

    A typed storage column is summarized from one sort of its array view:
    runs of equal values give the distinct values and their counts, the
    ``float64`` cast of the sorted array gives min / max / histogram.  Every
    other input takes the value loop (:func:`_collect_from_values`), which is
    also the definition the kernel's output must equal.
    """
    ordered = _sorted_typed_values(values)
    if ordered is None:
        return _collect_from_values(column, values)
    n_rows = len(values)
    stats = ColumnStatistics(column=column, n_rows=n_rows, n_nulls=n_rows - len(ordered))
    if not len(ordered):
        return stats

    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    counts = np.diff(starts, append=len(ordered))
    stats.n_distinct = len(starts)
    if len(starts) > FREQUENT_VALUES:
        # Only a value whose count reaches the tenth-largest can make the list.
        keep = counts >= np.partition(counts, -FREQUENT_VALUES)[-FREQUENT_VALUES]
        starts, counts = starts[keep], counts[keep]
    stats.frequent_values = sorted(
        zip(ordered[starts].tolist(), counts.tolist()), key=_frequency_order
    )[:FREQUENT_VALUES]

    # int64 -> float64 rounds like float(int) and keeps the order.
    as_floats = ordered.astype(np.float64).tolist()
    stats.min_value = as_floats[0]
    stats.max_value = as_floats[-1]
    stats.histogram = _equi_depth_boundaries(as_floats, HISTOGRAM_BUCKETS)
    return stats


def _sorted_typed_values(values: Sequence[Any]) -> Optional[Any]:
    """Non-NULL values of a typed storage column, sorted (None = value loop).

    Declines whatever the array view does not carry exactly: plain sequences,
    ``object`` arrays (VARCHAR, integers beyond int64), Python values of
    another type than the dtype's own (the ints or bools of a DECIMAL column
    come back from a ``float64`` array as floats) and NaN (the loop counts NaN
    objects by identity).
    """
    if not isinstance(values, ColumnVector):
        return None
    array, mask = values.arrays()
    if array.dtype == object:
        return None
    own_type = int if array.dtype.kind == "i" else float
    if not set(map(type, values.tolist())) <= {own_type, type(None)}:
        return None
    if mask is not None:
        array = array[~mask]
    if own_type is float and np.isnan(array).any():
        return None
    # Equal values are interchangeable except 0.0 and -0.0.  A column holding
    # a negative zero takes the (10x slower) stable sort, which keeps the
    # zeros in column order: the first to occur heads their run and stands
    # for both, as it does in the loop's dict and in ``sorted``.
    signed_zeros = own_type is float and np.signbit(array[array == 0]).any()
    return np.sort(array, kind="stable" if signed_zeros else None)


def _frequency_order(item: Tuple[Any, int]) -> Tuple[int, str]:
    """Sort key of ``frequent_values``: descending count, then the value's text."""
    return -item[1], str(item[0])


def _collect_from_values(column: str, values: Sequence[Any]) -> ColumnStatistics:
    """The value loop: one Python step per value, any value type."""
    n_rows = len(values)
    non_null = [value for value in values if value is not None]
    n_nulls = n_rows - len(non_null)
    stats = ColumnStatistics(column=column, n_rows=n_rows, n_nulls=n_nulls)
    if not non_null:
        return stats

    counts: Dict[Any, int] = {}
    for value in non_null:
        counts[value] = counts.get(value, 0) + 1
    stats.n_distinct = len(counts)
    stats.frequent_values = sorted(counts.items(), key=_frequency_order)[:FREQUENT_VALUES]

    numeric = all(isinstance(value, (int, float)) for value in non_null)
    if numeric:
        ordered = sorted(float(value) for value in non_null)
        stats.min_value = ordered[0]
        stats.max_value = ordered[-1]
        stats.histogram = _equi_depth_boundaries(ordered, HISTOGRAM_BUCKETS)
    else:
        ordered_str = sorted(str(value) for value in non_null)
        stats.min_value = ordered_str[0]
        stats.max_value = ordered_str[-1]
    return stats


def _equi_depth_boundaries(ordered: List[float], buckets: int) -> List[float]:
    """Equi-depth bucket boundaries over an ascending list of values."""
    if not ordered:
        return []
    n = len(ordered)
    buckets = min(buckets, max(1, n))
    boundaries = [ordered[0]]
    for i in range(1, buckets):
        boundaries.append(ordered[min(n - 1, (i * n) // buckets)])
    boundaries.append(ordered[-1])
    # Ensure monotonically non-decreasing boundaries.
    for i in range(1, len(boundaries)):
        if boundaries[i] < boundaries[i - 1]:
            boundaries[i] = boundaries[i - 1]
    return boundaries


def collect_table_statistics(schema: TableSchema, data: TableData) -> TableStatistics:
    """RUNSTATS: compute statistics for every column of ``data``."""
    stats = TableStatistics(
        table=schema.name,
        cardinality=data.row_count,
        pages=data.page_count,
    )
    for column in schema.columns:
        stats.columns[column.name] = collect_column_statistics(
            column.name, data.column_values(column.name)
        )
    return stats


def join_selectivity(
    left: ColumnStatistics, right: ColumnStatistics
) -> float:
    """Estimated selectivity of an equi-join using 1 / max(ndv_left, ndv_right)."""
    ndv_left = max(1, left.n_distinct)
    ndv_right = max(1, right.n_distinct)
    return 1.0 / max(ndv_left, ndv_right)
