"""In-memory storage for table data.

Rows are stored column-wise as :class:`repro.engine.columns.ColumnVector`
objects: a plain Python value list (the authoritative, sequence-compatible
representation every existing caller sees) plus a lazily built typed ndarray
and null-mask view that the vectorized executor and predicate compiler
consume directly.  An index's *cluster ratio* records how well the physical
row order follows the index order, which the runtime simulator uses to model
random-I/O flooding.

A single-column index (:class:`IndexData`) is the column's
:class:`~repro.engine.columns.KeyGroups` -- the one key grouping the engine
has, which the executor's joins, SORT and GROUP BY build over their inputs
too: the sorted distinct non-``NULL`` keys, an offsets array, every row id
concatenated key by key (ascending within a key), plus the ``NULL`` rows.
Equality, IN-list, range, full-scan and whole-column probes are
``searchsorted`` calls and slices of those arrays and return row-id
*arrays*.  Nothing is maintained per row: an insert only grows the columns,
and the index rebuilds itself on the first read that finds the table longer
than what it was built from -- N batches with no read between them cost one
build, not N.  ``tests/naive_index.py`` keeps the dict-of-lists index as the
``==`` oracle.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columns import NO_ROWS, ColumnVector, KeyGroups, expand_slices
from repro.engine.config import PAGE_SIZE_ROWS
from repro.engine.schema import Index, TableSchema
from repro.engine.types import coerce_value
from repro.errors import CatalogError

#: What typed (int64 / float64) keys compare with; anything else matches no
#: key (``searchsorted`` would silently compare the keys' *text* with it).
_NUMBERS = (int, float, np.integer, np.floating)


class _BuiltIndex:
    """One index build: the column's grouping and the rows it covers."""

    __slots__ = ("groups", "row_count", "scan")

    def __init__(self, groups: KeyGroups, row_count: int):
        self.groups = groups
        #: Rows of the column this build covers (its staleness stamp).
        self.row_count = row_count
        #: Every row id in full-scan order; derived on the first full scan.
        self.scan: Optional[Any] = None


def _build_index(column: ColumnVector, row_count: int) -> _BuiltIndex:
    """Group ``column``'s first ``row_count`` rows by key."""
    array, mask = column.arrays()
    return _BuiltIndex(
        KeyGroups(array[:row_count], None if mask is None else mask[:row_count]),
        row_count,
    )


class IndexData:
    """A single-column index: the column's :class:`KeyGroups`, kept current.

    Every method returns row ids as an ``intp`` array the caller must not
    write to (``lookup`` and ``scan`` hand out views of the index's own
    arrays).  The grouping is rebuilt lazily, on the first call after the
    table has grown; views handed out before stay valid (and stale).
    Numbers of different types compare as NumPy compares them (in float64:
    exact below 2**53), ``object`` keys as Python does.
    """

    __slots__ = ("definition", "_table", "_built")

    def __init__(self, definition: Index, table: "TableData"):
        self.definition = definition
        self._table = table
        self._built: Optional[_BuiltIndex] = None

    def _arrays(self) -> _BuiltIndex:
        built = self._built
        row_count = self._table.row_count
        if built is None or built.row_count != row_count:
            column = self._table.column_values(self.definition.column)
            built = self._built = _build_index(column, row_count)
        return built

    def lookup(self, value: Any) -> Any:
        """Row ids whose key equals ``value``, ascending (``None``: the NULL rows)."""
        groups = self._arrays().groups
        if value is None:
            return groups.null_rows
        keys = groups.keys
        if keys.dtype != object and not isinstance(value, _NUMBERS):
            return NO_ROWS
        try:
            slot = int(keys.searchsorted(value))
        except TypeError:  # object keys that do not order against ``value``
            return NO_ROWS
        if slot == len(keys) or keys[slot] != value:
            return NO_ROWS
        return groups.row_ids[groups.offsets[slot] : groups.offsets[slot + 1]]

    def probe(self, values: Any) -> Tuple[Any, Any]:
        """Look up a whole array of non-``NULL`` values.

        Returns ``(counts, row_ids)``: ``counts[i]`` rows match ``values[i]``
        and ``row_ids`` lists them value after value, ascending within one --
        ``np.concatenate([lookup(v) for v in values])`` without the loop.
        """
        groups = self._arrays().groups
        hits, sizes, row_ids = groups.take_runs(groups.find(values))
        counts = np.zeros(len(values), dtype=np.intp)
        counts[hits] = sizes
        return counts, row_ids

    def lookup_range(self, low: Any, high: Any) -> Any:
        """Row ids whose key is in ``[low, high]``, ascending (``None`` = open)."""
        groups = self._arrays().groups
        keys = groups.keys
        start = 0 if low is None else int(keys.searchsorted(low, side="left"))
        stop = len(keys) if high is None else int(keys.searchsorted(high, side="right"))
        return np.sort(groups.row_ids[groups.offsets[start] : groups.offsets[max(start, stop)]])

    def scan(self) -> Any:
        """Every row id in the order a full index scan visits them.

        Keys order by their *text* (so 10 before 9, the order both executors
        have always scanned in -- not the key array's numeric order), each
        key's rows ascending, ``NULL`` rows last.
        """
        built = self._arrays()
        if built.scan is None:
            groups = built.groups
            texts = list(map(str, groups.keys.tolist()))
            by_text = np.asarray(
                sorted(range(len(texts)), key=texts.__getitem__), dtype=np.intp
            )
            starts = groups.offsets[:-1][by_text]
            counts = groups.offsets[1:][by_text] - starts
            built.scan = np.concatenate(
                (groups.row_ids[expand_slices(starts, counts)], groups.null_rows)
            )
        return built.scan


class TableData:
    """Column-wise storage for one table plus its indexes."""

    def __init__(self, schema: TableSchema):
        self.schema = schema
        self._columns: Dict[str, ColumnVector] = {
            column.name: ColumnVector(column.data_type) for column in schema.columns
        }
        self._indexes: Dict[str, IndexData] = {}
        self._row_count = 0

    # -- loading -----------------------------------------------------------

    def insert_rows(self, rows: Iterable[Dict[str, Any]]) -> int:
        """Append ``rows`` (dicts keyed by column name); returns rows added.

        The batch is coerced column by column before any column grows (a
        value that cannot be coerced leaves the table as it was) and appended
        with one ``extend`` per column, which also invalidates that column's
        typed-array view once; the view is rebuilt on the next vectorized
        access.  Indexes are not touched: each notices on its next read that
        the table has grown and rebuilds then, so a bulk load of N batches
        costs one index build, not N.
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
        self._row_count += len(batch)
        return len(batch)

    def build_index(self, definition: Index) -> IndexData:
        if definition.column not in self._columns:
            raise CatalogError(
                f"cannot index missing column {definition.column!r} "
                f"on table {self.schema.name!r}"
            )
        index_data = IndexData(definition, self)
        self._indexes[definition.name] = index_data
        return index_data

    # -- access ------------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def page_count(self) -> int:
        """Number of storage pages occupied by the table."""
        rows_per_page = max(1, (PAGE_SIZE_ROWS * 100) // max(1, self.schema.row_width))
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
        """Rows as dicts, either all of them or the given ``row_ids``."""
        return map(self.row, range(self._row_count) if row_ids is None else row_ids)

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
