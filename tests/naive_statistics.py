"""The per-value RUNSTATS loop, kept verbatim as the differential-test oracle.

This is ``collect_column_statistics`` (and its histogram helper) exactly as
``repro.engine.statistics`` shipped it before the collector moved onto the
typed column arrays.  It shares no code with the array kernel: the tests
require the kernel's ``ColumnStatistics`` to be ``==`` to this loop's, value
types included, the way ``tests/naive_optimizer.py`` pins the join enumerator
(:func:`assert_equals_value_loop` is that requirement, shared by the unit
differentials and the hypothesis property).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.engine.schema import TableSchema
from repro.engine.statistics import ColumnStatistics, TableStatistics
from repro.engine.storage import TableData

HISTOGRAM_BUCKETS = 20
FREQUENT_VALUES = 10


def collect_column_statistics(column: str, values: Sequence[Any]) -> ColumnStatistics:
    """Compute :class:`ColumnStatistics` from raw column values."""
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
    stats.frequent_values = sorted(
        counts.items(), key=lambda item: (-item[1], str(item[0]))
    )[:FREQUENT_VALUES]

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
    """RUNSTATS through the value loop, over the columns' Python value lists."""
    stats = TableStatistics(
        table=schema.name,
        cardinality=data.row_count,
        pages=data.page_count,
    )
    for column in schema.columns:
        stats.columns[column.name] = collect_column_statistics(
            column.name, data.column_values(column.name).tolist()
        )
    return stats


def value_types(stats: ColumnStatistics):
    """The Python type of every value a ``ColumnStatistics`` carries."""
    return (
        [(type(value), type(count)) for value, count in stats.frequent_values],
        type(stats.min_value),
        type(stats.max_value),
        [type(boundary) for boundary in stats.histogram],
    )


def assert_equals_value_loop(collected: ColumnStatistics, values) -> None:
    """``collected`` is what the pre-kernel loop computes from ``values``:
    dataclass ``==``, the same Python types (no NumPy scalar may leak) and the
    same text, which also tells ``-0.0`` from ``0.0``."""
    expected = collect_column_statistics(collected.column, values)
    assert collected == expected
    assert value_types(collected) == value_types(expected)
    assert repr(collected) == repr(expected)
