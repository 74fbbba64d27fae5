"""In-memory storage for table data.

Rows are stored column-wise as :class:`repro.engine.columns.ColumnVector`
objects: a plain Python value list (the authoritative, sequence-compatible
representation every existing caller sees) plus a lazily built typed ndarray
and null-mask view that the vectorized executor and predicate compiler
consume directly.  An index's *cluster ratio* records how well the physical
row order follows the index order, which the runtime simulator uses to model
random-I/O flooding.

A single-column index has one form (:class:`IndexData`): the sorted distinct
non-``NULL`` keys, an offsets array, and every row id concatenated key by key
(ascending within a key), plus the ``NULL`` rows.  One stable ``argsort`` over
the column's typed view builds it; equality, IN-list, range, full-scan and
whole-column probes are ``searchsorted`` calls and slices of those arrays and
return row-id *arrays*.  Nothing is maintained per row: an insert only grows
the columns, and the index rebuilds itself on the first read that finds the
table longer than what it was built from -- N batches with no read between
them cost one build, not N.  VARCHAR keys and integers beyond int64 keep the
same arrays with ``object`` dtype (Python comparisons inside the same NumPy
calls); that is the one declared degrade.  ``tests/naive_index.py`` keeps the
dict-of-lists index as the ``==`` oracle.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columns import ColumnVector, expand_slices
from repro.engine.config import DbConfig
from repro.engine.schema import Index, TableSchema
from repro.engine.types import coerce_value
from repro.errors import CatalogError

_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False  # handed out by every lookup that misses

#: What typed (int64 / float64) keys compare with; anything else matches no
#: key (``searchsorted`` would silently compare the keys' *text* with it).
_NUMBERS = (int, float, np.integer, np.floating)


class _BuiltIndex:
    """The arrays of one index build; never mutated, replaced as a whole."""

    __slots__ = ("keys", "offsets", "row_ids", "null_rows", "row_count", "scan")

    def __init__(self, keys, offsets, row_ids, null_rows, row_count):
        self.keys = keys
        self.offsets = offsets
        self.row_ids = row_ids
        self.null_rows = null_rows
        #: Rows of the column this build covers (its staleness stamp).
        self.row_count = row_count
        #: Every row id in full-scan order; derived on the first full scan.
        self.scan: Optional[Any] = None


def _build_index(column: ColumnVector, row_count: int) -> _BuiltIndex:
    """Group ``column``'s first ``row_count`` rows by key with one stable
    ``argsort``.

    Stability keeps each key's row ids ascending.  An ``object`` typed view
    (strings, integers beyond int64) sorts and compares as Python values
    inside the same calls.
    """
    array, mask = column.arrays()
    array = array[:row_count]
    if mask is None:
        present, null_rows = None, _NO_ROWS
    else:
        mask = mask[:row_count]
        present, null_rows = np.flatnonzero(~mask), np.flatnonzero(mask)
    keyed = array if present is None else array[present]
    order = np.argsort(keyed, kind="stable")
    ordered = keyed[order]
    starts = _NO_ROWS
    if len(ordered):
        changes = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        starts = np.concatenate(([0], changes)).astype(np.intp)
    return _BuiltIndex(
        keys=ordered[starts],
        offsets=np.append(starts, len(ordered)),
        row_ids=order if present is None else present[order],
        null_rows=null_rows,
        row_count=len(array),
    )


class IndexData:
    """A single-column index: sorted keys + offsets + concatenated row ids.

    Every method returns row ids as an ``intp`` array the caller must not
    write to (``lookup`` and ``scan`` hand out views of the index's own
    arrays).  The arrays are rebuilt lazily, on the first call after the
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
        built = self._arrays()
        if value is None:
            return built.null_rows
        keys = built.keys
        if keys.dtype != object and not isinstance(value, _NUMBERS):
            return _NO_ROWS
        try:
            slot = int(keys.searchsorted(value))
        except TypeError:  # object keys that do not order against ``value``
            return _NO_ROWS
        if slot == len(keys) or keys[slot] != value:
            return _NO_ROWS
        return built.row_ids[built.offsets[slot] : built.offsets[slot + 1]]

    def probe(self, values: Any) -> Tuple[Any, Any]:
        """Look up a whole array of non-``NULL`` values with two ``searchsorted``.

        Returns ``(counts, row_ids)``: ``counts[i]`` rows match ``values[i]``
        and ``row_ids`` lists them value after value, ascending within one --
        ``np.concatenate([lookup(v) for v in values])`` without the loop.
        """
        built = self._arrays()
        keys = built.keys
        if keys.dtype == object or values.dtype.kind in "biufO":
            try:
                starts = built.offsets[keys.searchsorted(values, side="left")]
                stops = built.offsets[keys.searchsorted(values, side="right")]
            except TypeError:  # keys and values of types that do not order
                pass
            else:
                counts = stops - starts
                return counts, built.row_ids[expand_slices(starts, counts)]
        return np.zeros(len(values), dtype=np.intp), _NO_ROWS

    def lookup_range(self, low: Any, high: Any) -> Any:
        """Row ids whose key is in ``[low, high]``, ascending (``None`` = open)."""
        built = self._arrays()
        keys = built.keys
        start = 0 if low is None else int(keys.searchsorted(low, side="left"))
        stop = len(keys) if high is None else int(keys.searchsorted(high, side="right"))
        return np.sort(built.row_ids[built.offsets[start] : built.offsets[max(start, stop)]])

    def scan(self) -> Any:
        """Every row id in the order a full index scan visits them.

        Keys order by their *text* (so 10 before 9, the order both executors
        have always scanned in -- not the key array's numeric order), each
        key's rows ascending, ``NULL`` rows last.
        """
        built = self._arrays()
        if built.scan is None:
            texts = list(map(str, built.keys.tolist()))
            by_text = np.asarray(
                sorted(range(len(texts)), key=texts.__getitem__), dtype=np.intp
            )
            starts = built.offsets[:-1][by_text]
            counts = built.offsets[1:][by_text] - starts
            built.scan = np.concatenate(
                (built.row_ids[expand_slices(starts, counts)], built.null_rows)
            )
        return built.scan


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
