"""In-memory storage for table data.

Rows are stored column-wise as :class:`repro.engine.columns.ColumnVector`
objects: a plain Python value list (the authoritative, sequence-compatible
representation every existing caller sees) plus a lazily built typed ndarray
and null-mask view that the vectorized executor and predicate compiler
consume directly.  Single-column hash indexes map a key value to the list of
row positions holding it; a *cluster ratio* records how well the physical row
order follows the index order, which the runtime simulator uses to model
random-I/O flooding.

Index builds and the cached sorted-key range probes use ``np.argsort`` /
``np.searchsorted`` when the column has a clean numeric typed view; the
bisect-over-Python-lists path remains both the fallback and the behavioral
oracle -- entries, key order and returned row ids are identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.engine.columns import ColumnVector
from repro.engine.config import DbConfig
from repro.engine.schema import Index, TableSchema
from repro.engine.types import coerce_value
from repro.errors import CatalogError


@dataclass
class IndexData:
    """Materialized hash index: key value -> sorted list of row ids.

    Range probes use a lazily built sorted key list plus, when the keys are
    numeric, a ``searchsorted``-ready cache of the keys and their concatenated
    row ids; a full scan uses a lazily built order over every key.  All three
    are invalidated whenever rows are inserted (``TableData`` appends to the
    index entries).
    """

    definition: Index
    entries: Dict[Any, List[int]] = field(default_factory=dict)
    _sorted_keys: Optional[List[Any]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: Every key, ``NULL`` included, in full-index-scan order.
    _scan_order: Optional[List[Any]] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: ``(keys ndarray, row-id offsets, concatenated row ids)`` aligned with
    #: ``sorted_keys()``; built lazily for numeric keys, None otherwise.
    _range_cache: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def lookup(self, value: Any) -> List[int]:
        return self.entries.get(value, [])

    def invalidate_sorted_keys(self) -> None:
        """Drop the cached key order (called after entries are rebuilt)."""
        self._sorted_keys = None
        self._scan_order = None
        self._range_cache = None

    def sorted_keys(self) -> List[Any]:
        """Non-``NULL`` key values in ascending order (cached)."""
        if self._sorted_keys is None:
            self._sorted_keys = sorted(
                key for key in self.entries if key is not None
            )
        return self._sorted_keys

    def scan_order(self) -> List[Any]:
        """Every key in the order a full index scan visits them (cached).

        Keys order by their text, numbers among equal texts by value, ``NULL``
        last -- the order both executors have always scanned in, which is not
        ``sorted_keys()``'s numeric order.
        """
        if self._scan_order is None:
            self._scan_order = sorted(
                self.entries,
                key=lambda k: (k is None, str(k), k if isinstance(k, (int, float)) else 0),
            )
        return self._scan_order

    def _build_range_cache(self) -> Optional[tuple]:
        """``searchsorted`` probe cache for numeric keys (None = use bisect)."""
        keys = self.sorted_keys()
        if not keys or not all(isinstance(key, (int, float)) for key in keys):
            return None
        try:
            keys_array = np.asarray(keys)
        except (OverflowError, TypeError, ValueError):
            return None
        if keys_array.dtype == object:
            return None
        entries = self.entries
        counts = np.fromiter(
            (len(entries[key]) for key in keys), dtype=np.intp, count=len(keys)
        )
        offsets = np.zeros(len(keys) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        row_ids = np.fromiter(
            (row_id for key in keys for row_id in entries[key]),
            dtype=np.intp,
            count=int(offsets[-1]),
        )
        return keys_array, offsets, row_ids

    def lookup_range(self, low: Any, high: Any) -> List[int]:
        """Return row ids whose key falls in ``[low, high]`` (inclusive)."""
        keys = self.sorted_keys()
        if self._range_cache is None:
            self._range_cache = self._build_range_cache() or ()
        cache = self._range_cache
        if cache:
            keys_array, offsets, all_row_ids = cache
            try:
                start = 0 if low is None else int(np.searchsorted(keys_array, low, side="left"))
                stop = (
                    len(keys)
                    if high is None
                    else int(np.searchsorted(keys_array, high, side="right"))
                )
            except (TypeError, ValueError):
                start = 0 if low is None else bisect_left(keys, low)
                stop = len(keys) if high is None else bisect_right(keys, high)
            selected = all_row_ids[offsets[start] : offsets[stop]]
            return np.sort(selected).tolist()
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_right(keys, high)
        row_ids: List[int] = []
        entries = self.entries
        for key in keys[start:stop]:
            row_ids.extend(entries[key])
        row_ids.sort()
        return row_ids


class TableData:
    """Column-wise storage for one table plus its indexes."""

    def __init__(self, schema: TableSchema, config: Optional[DbConfig] = None):
        self.schema = schema
        self.config = config or DbConfig()
        self._columns: Dict[str, ColumnVector] = {
            column.name: ColumnVector(column.data_type) for column in schema.columns
        }
        self._indexes: Dict[str, IndexData] = {}
        self._row_count = 0

    # -- loading -----------------------------------------------------------

    def insert_rows(self, rows: Iterable[Dict[str, Any]]) -> int:
        """Append ``rows`` (dicts keyed by column name); returns rows added.

        Indexes are maintained incrementally: only the new rows' (value ->
        row id) pairs are appended, so a bulk load of N batches stays O(N
        rows) instead of the O(N^2) a per-batch full rebuild costs.  New row
        ids are strictly larger than every existing one, so appending keeps
        each entry's row-id list sorted.  The batch is coerced column by
        column before any column grows (a value that cannot be coerced leaves
        the table as it was) and appended with one ``extend`` per column,
        which also invalidates that column's typed-array view once; the view
        is rebuilt on the next vectorized access.
        """
        batch = list(rows)
        if not batch:
            return 0
        coerced = []
        for column in self.schema.columns:
            name, data_type = column.name, column.data_type
            coerced.append([coerce_value(row.get(name), data_type) for row in batch])
        for column, values in zip(self.schema.columns, coerced):
            self._columns[column.name].extend(values)
        first_new_row = self._row_count
        self._row_count += len(batch)
        for index_data in self._indexes.values():
            self._append_to_index(index_data, first_new_row)
        return len(batch)

    def _append_to_index(self, index_data: IndexData, first_new_row: int) -> None:
        """Index the rows from ``first_new_row`` on (cached key order drops)."""
        values = self._columns[index_data.definition.column]
        entries = index_data.entries
        for row_id in range(first_new_row, self._row_count):
            entries.setdefault(values[row_id], []).append(row_id)
        index_data.invalidate_sorted_keys()

    def _fill_index(self, index_data: IndexData) -> None:
        index_data.invalidate_sorted_keys()
        values = self._columns[index_data.definition.column]
        entries = self._grouped_entries(values)
        if entries is None:
            entries = {}
            for row_id, value in enumerate(values):
                entries.setdefault(value, []).append(row_id)
        index_data.entries = entries

    @staticmethod
    def _grouped_entries(values: ColumnVector) -> Optional[Dict[Any, List[int]]]:
        """Value -> ascending row ids via ``argsort`` grouping (None = loop).

        Only taken for numeric typed columns: keys come out as Python scalars
        (``tolist``), per-key row ids ascend (stable sort), and NULL rows form
        the ``None`` entry -- exactly what the element-wise build produces.
        """
        array, mask = values.arrays()
        if array.dtype == object:
            return None
        if mask is not None:
            non_null = np.flatnonzero(~mask)
            keyed = array[non_null]
        else:
            non_null = None
            keyed = array
        order = np.argsort(keyed, kind="stable")
        sorted_ids = non_null[order] if non_null is not None else order
        sorted_vals = keyed[order]
        entries: Dict[Any, List[int]] = {}
        if len(sorted_vals):
            boundaries = np.flatnonzero(sorted_vals[1:] != sorted_vals[:-1]) + 1
            starts = np.concatenate(([0], boundaries))
            stops = np.concatenate((boundaries, [len(sorted_vals)]))
            keys = sorted_vals[starts].tolist()
            for key, start, stop in zip(keys, starts, stops):
                entries[key] = sorted_ids[start:stop].tolist()
        if mask is not None:
            entries[None] = np.flatnonzero(mask).tolist()
        return entries

    def build_index(self, definition: Index) -> IndexData:
        if definition.column not in self._columns:
            raise CatalogError(
                f"cannot index missing column {definition.column!r} "
                f"on table {self.schema.name!r}"
            )
        index_data = IndexData(definition=definition)
        self._fill_index(index_data)
        self._indexes[definition.name] = index_data
        return index_data

    # -- access ------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def page_count(self) -> int:
        """Number of storage pages occupied by the table."""
        rows_per_page = max(
            1, (self.config.page_size_rows * 100) // max(1, self.schema.row_width)
        )
        return max(1, -(-self._row_count // rows_per_page))

    def column_values(self, column_name: str) -> ColumnVector:
        if column_name not in self._columns:
            raise CatalogError(
                f"table {self.schema.name!r} has no column {column_name!r}"
            )
        return self._columns[column_name]

    def column_arrays(self) -> Dict[str, ColumnVector]:
        """Column name -> backing column vector, in schema order.

        The returned mapping references the live storage columns (no copy);
        the vectorized executor reads them directly -- element-wise through
        the sequence protocol or wholesale through each vector's typed view.
        Callers must treat both the mapping and the columns as read-only.
        """
        return self._columns

    def row(self, row_id: int) -> Dict[str, Any]:
        return {
            name: values[row_id] for name, values in self._columns.items()
        }

    def rows(self, row_ids: Optional[Sequence[int]] = None) -> Iterator[Dict[str, Any]]:
        """Yield rows as dicts, either all of them or the given ``row_ids``."""
        if row_ids is None:
            for row_id in range(self._row_count):
                yield self.row(row_id)
        else:
            for row_id in row_ids:
                yield self.row(row_id)

    def index(self, index_name: str) -> IndexData:
        try:
            return self._indexes[index_name]
        except KeyError as exc:
            raise CatalogError(
                f"table {self.schema.name!r} has no index {index_name!r}"
            ) from exc

    def index_on(self, column_name: str) -> Optional[IndexData]:
        for index_data in self._indexes.values():
            if index_data.definition.column == column_name:
                return index_data
        return None

    @property
    def indexes(self) -> Dict[str, IndexData]:
        return dict(self._indexes)
