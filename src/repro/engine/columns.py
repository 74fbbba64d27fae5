"""Typed, NumPy-backed column vectors behind the list-of-values interface.

``ColumnVector`` is the storage unit :class:`repro.engine.storage.TableData`
holds per column.  It is *sequence-compatible* with the plain Python lists it
replaces -- ``len``, ``[i]``, iteration and ``append`` all behave identically
and always yield plain Python values (``None`` for SQL NULL) -- so the row
engine and every existing caller keep working unchanged.  On top of that a
column exposes a lazily built **typed view** via
:meth:`ColumnVector.arrays`:

* INTEGER / DATE columns -> ``int64`` array, DECIMAL -> ``float64``,
  VARCHAR (and anything that does not fit its dtype, e.g. out-of-int64-range
  integers) -> ``object``;
* SQL NULLs are carried in an explicit boolean **null mask** (``True`` =
  NULL).  Typed arrays store ``0`` at masked slots; ``object`` arrays embed
  ``None`` directly (the mask is still built, so ``IS NULL`` vectorizes for
  string columns too).

The typed view is what predicate evaluation
(:func:`repro.engine.expressions.filter_positions`), the batch executor's
gather kernels, RUNSTATS
(:func:`repro.engine.statistics.collect_column_statistics`) and
:class:`KeyGroups` consume.  ``KeyGroups`` is the engine's one key grouping
-- one stable ``argsort`` of a column's values, ``object`` dtype included --
and serves both an index (:class:`repro.engine.storage.IndexData`) and every
keyed operator of the vectorized executor: joins, SORT and GROUP BY.  The
typed view is a
cache over the authoritative Python value list: appends invalidate it, the
next vectorized access rebuilds it.  Loads happen once, scans happen thousands of times per
learning sweep, so the rebuild cost is amortized away.  Lifetime tracks
*storage*, not statistics: RUNSTATS reads columns but never mutates them, so
a stats-only epoch bump (see ``Database.invalidate_plan_cache``) leaves
typed views -- like the index arrays built from them and memoized gathers --
intact.

Representation invariant for gathered (executor-internal) columns: a **typed
(non-object) ndarray never contains NULLs** -- :func:`gather` widens to an
``object`` array with embedded ``None`` the moment a NULL is selected.
:func:`null_split` therefore finds a column's NULLs by dtype alone: none in a
numeric ndarray, the embedded ``None`` in an ``object`` one.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.types import DataType

#: Typed view of a column: ``(values array, null mask or None)``.  The mask is
#: ``None`` when the column holds no NULLs.
TypedArrays = Tuple[Any, Optional[Any]]

_NUMPY_DTYPES = {
    DataType.INTEGER: "int64",
    DataType.DATE: "int64",
    DataType.DECIMAL: "float64",
    DataType.VARCHAR: "object",
}


class ColumnVector:
    """One table column: a Python value list plus a lazy typed-array view."""

    __slots__ = ("data_type", "_values", "_typed")

    def __init__(self, data_type: DataType, values: Optional[Iterable[Any]] = None):
        self.data_type = data_type
        self._values: List[Any] = list(values) if values is not None else []
        #: Cached ``(array, mask)`` view; None = not built since last append.
        self._typed: Optional[TypedArrays] = None

    # -- sequence protocol (plain Python values, None = NULL) ----------------

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: Any) -> Any:
        return self._values[index]

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnVector({self.data_type.value}, n={len(self._values)})"

    def __eq__(self, other: Any) -> bool:
        """Value equality against other columns or plain sequences."""
        if isinstance(other, ColumnVector):
            return self._values == other._values
        if isinstance(other, (list, tuple)):
            return self._values == list(other)
        return NotImplemented

    def append(self, value: Any) -> None:
        self._values.append(value)
        self._typed = None

    def extend(self, values: Iterable[Any]) -> None:
        self._values.extend(values)
        self._typed = None

    def tolist(self) -> List[Any]:
        """The authoritative Python value list (treat as read-only)."""
        return self._values

    # -- typed view ----------------------------------------------------------

    def arrays(self) -> TypedArrays:
        """The ``(typed array, null mask)`` view of this column.

        The view is rebuilt lazily after appends.  A column whose values do
        not fit the schema dtype (e.g. integers beyond int64) degrades to an
        ``object`` array rather than failing -- predicates then compare its
        values with Python's own comparisons, preserving exact semantics.
        """
        if self._typed is None:
            self._typed = self._build_typed()
        return self._typed

    def _build_typed(self) -> TypedArrays:
        values = self._values
        count = len(values)
        mask: Optional[Any] = None
        has_null = any(value is None for value in values)
        if has_null:
            mask = np.fromiter(
                (value is None for value in values), dtype=bool, count=count
            )
        dtype = _NUMPY_DTYPES[self.data_type]
        if dtype != "object":
            try:
                if has_null:
                    array = np.fromiter(
                        (0 if value is None else value for value in values),
                        dtype=dtype,
                        count=count,
                    )
                else:
                    array = np.fromiter(values, dtype=dtype, count=count)
                return array, mask
            except (OverflowError, TypeError, ValueError):
                pass  # fall through to the object representation
        array = np.empty(count, dtype=object)
        for position, value in enumerate(values):
            array[position] = value
        return array, mask


# ---------------------------------------------------------------------------
# Gather / conversion kernels shared by the vectorized executor
# ---------------------------------------------------------------------------


def as_index_array(picks: Sequence[int]) -> Any:
    """``picks`` as an integer ndarray usable for fancy indexing."""
    if isinstance(picks, np.ndarray):
        return picks
    if isinstance(picks, range):
        return np.arange(picks.start, picks.stop, picks.step, dtype=np.intp)
    return np.asarray(picks, dtype=np.intp)


def expand_slices(starts: Any, counts: Any) -> Any:
    """Positions ``starts[i] .. starts[i] + counts[i] - 1``, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - counts), counts) + np.arange(total, dtype=np.intp)


def gather(values: Sequence[Any], picks: Sequence[int]) -> Sequence[Any]:
    """Rows of ``values`` at ``picks``, vectorized when the input is typed.

    Returns an ndarray for typed inputs (``object`` dtype with embedded
    ``None`` whenever a NULL is selected, keeping the null-free invariant for
    numeric arrays) and a plain list otherwise.
    """
    if isinstance(values, ColumnVector):
        array, mask = values.arrays()
        index = as_index_array(picks)
        out = array[index]
        if mask is not None and array.dtype != object:
            taken_mask = mask[index]
            if taken_mask.any():
                out = out.astype(object)
                out[taken_mask] = None
        return out
    if isinstance(values, np.ndarray):
        return values[as_index_array(picks)]
    return [values[p] for p in picks]


def python_values(values: Sequence[Any]) -> List[Any]:
    """``values`` as plain Python objects.

    Used at representation boundaries -- result-row materialization, group-by
    keys/aggregates -- where numpy scalars must not leak into row dicts (JSON
    serialization in the serving tier, exact type parity with the row engine).
    """
    if isinstance(values, np.ndarray):
        return values.tolist()
    return list(values)


def null_split(values: Sequence[Any]) -> TypedArrays:
    """A gathered executor column as ``(array, null mask or None)``.

    A typed ndarray is null-free by construction; an ``object`` array (or a
    plain list, which becomes one) carries its NULLs as embedded ``None``.
    """
    array = values if isinstance(values, np.ndarray) else np.asarray(values, dtype=object)
    if array.dtype != object:
        return array, None
    mask = array == None  # noqa: E711 -- elementwise on an object array
    return array, (mask if mask.any() else None)


#: The empty row-id array (read-only: shared by every grouping and lookup).
NO_ROWS = np.zeros(0, dtype=np.intp)
NO_ROWS.flags.writeable = False


class KeyGroups:
    """One column grouped by key: the engine's one key grouping.

    ``keys`` are the sorted distinct non-``NULL`` values, ``row_ids`` every
    non-``NULL`` row concatenated key by key (ascending within a key, so
    ``row_ids[offsets[k]:offsets[k + 1]]`` are the rows of ``keys[k]``), and
    ``null_rows`` the ``NULL`` rows, ascending.  One stable ``argsort`` over
    the typed values builds it; VARCHAR keys and integers beyond int64 use
    the same calls on ``object`` arrays (Python comparisons).

    The same arrays read as *runs*: ``order`` is ``row_ids`` then
    ``null_rows``, and run ``k`` is ``order[bounds[k]:bounds[k + 1]]`` -- one
    run per key, then the ``NULL`` rows as run ``len(keys)`` (empty without
    NULLs).  ``order`` is the row engine's stable ``(is NULL, value)`` sort.

    An index (:class:`repro.engine.storage.IndexData`) is one of these over a
    table column; the executor builds one per keyed operator input and reads
    it in one of three ways:

    * **as probes** -- :meth:`find` maps a whole array of values to runs.  A
      hash join drops the ``NULL`` run; a nested-loop join over a scanned
      inner probes it with the outer ``NULL`` rows (the row engine's tuple
      equality: ``NULL`` matches ``NULL``).
    * **as an order** -- SORT emits ``order``; a merge join walks both inputs'
      runs in it, draining a ``NULL`` run as the row engine's loop does.
    * **as runs** -- GROUP BY aggregates run by run, ``NULL`` one more group.

    Several key columns group as one through :meth:`codes` (see the
    executor's ``_combine``).  The arrays are shared (memo, index) and must
    not be written to.
    """

    __slots__ = ("keys", "offsets", "row_ids", "null_rows", "order", "bounds")

    def __init__(self, array: Any, mask: Optional[Any] = None):
        if mask is None:
            present, null_rows = None, NO_ROWS
        else:
            present, null_rows = np.flatnonzero(~mask), np.flatnonzero(mask)
        keyed = array if present is None else array[present]
        sort = np.argsort(keyed, kind="stable")
        ordered = keyed[sort]
        count = len(ordered)
        row_ids = sort if present is None else present[sort]
        self.order = np.concatenate((row_ids, null_rows)) if len(null_rows) else row_ids
        changes = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
        self.bounds = np.concatenate(
            ([0] if count else [], changes, [count, len(self.order)])
        ).astype(np.intp, copy=False)
        self.keys = ordered[self.bounds[:-2]]
        self.offsets = self.bounds[:-1]
        self.row_ids = self.order[:count]
        self.null_rows = self.order[count:]

    def find(self, values: Any) -> Any:
        """The slot of each value's key -- ``keys[slot] == value`` -- or -1
        where no key equals it.  ``values`` hold no ``NULL``.

        Numbers of different types compare as NumPy compares them (in
        float64: exact below 2**53), ``object`` keys as Python does; values
        that do not order against the keys match none.
        """
        keys = self.keys
        if len(keys) and (keys.dtype == object or values.dtype.kind in "biufO"):
            try:
                slots = np.minimum(keys.searchsorted(values), len(keys) - 1)
                return np.where(keys[slots] == values, slots, -1)
            except TypeError:  # keys and values of types that do not order
                pass
        return np.full(len(values), -1, dtype=np.intp)

    def take_runs(self, slots: Any) -> Tuple[Any, Any, Any]:
        """The rows of run ``slots[i]`` for each ``i`` (-1: none).

        Returns ``(hits, sizes, rows)``: the ``i`` with a run, ascending, the
        sizes of their runs, and those runs' rows one run after another -- a
        probe's matches in probe order, then run order.
        ``take_runs(find(values))`` looks a whole array up at once.
        """
        hits = np.flatnonzero(slots >= 0)
        runs = slots[hits]
        starts = self.bounds[runs]
        sizes = self.bounds[runs + 1] - starts
        return hits, sizes, self.order[expand_slices(starts, sizes)]

    def codes(self) -> Any:
        """Each row's run (``NULL`` rows: ``len(keys)``): equal keys, equal codes."""
        codes = np.empty(len(self.order), dtype=np.intp)
        codes[self.order] = np.repeat(
            np.arange(len(self.bounds) - 1, dtype=np.intp), np.diff(self.bounds)
        )
        return codes


def nbytes_of(values: Any) -> int:
    """Estimated payload bytes of one column/positions payload (memo sizing)."""
    if isinstance(values, np.ndarray):
        if values.dtype == object:
            return int(values.size) * 32
        return int(values.nbytes)
    if isinstance(values, range):
        # A predicate-free scan's positions: the range object, not its rows.
        return sys.getsizeof(values)
    if isinstance(values, ColumnVector):
        return len(values) * 32
    try:
        return len(values) * 32
    except TypeError:
        return 0
