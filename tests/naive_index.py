"""The dict-of-lists index, kept as the differential-test oracle.

This is ``IndexData`` as ``repro.engine.storage`` shipped it before an index
became three arrays: a dict from key value to the ascending list of row ids
holding it (``None`` keys the NULL rows), filled one row at a time, probed
with ``dict.get`` and ``bisect``.  It shares no code with the array form: the
tests require every ``IndexData`` call to return -- as an array -- exactly
the row ids this returns as a list, in the same order, the way
``tests/naive_statistics.py`` pins RUNSTATS (:func:`assert_equals_dict_index`
is that requirement, shared by the unit differentials and the hypothesis
property).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Dict, Iterable, List, Sequence

import numpy as np


class NaiveIndex:
    """Key value -> ascending row ids, built by the element-wise loop."""

    def __init__(self, values: Iterable[Any]):
        self.entries: Dict[Any, List[int]] = {}
        for row_id, value in enumerate(values):
            self.entries.setdefault(value, []).append(row_id)

    def lookup(self, value: Any) -> List[int]:
        return self.entries.get(value, [])

    def lookup_in(self, values: Sequence[Any]) -> List[int]:
        """An IN-list: each value's rows, in list order (repeats repeat)."""
        row_ids: List[int] = []
        for value in values:
            row_ids.extend(self.lookup(value))
        return row_ids

    def sorted_keys(self) -> List[Any]:
        return sorted(key for key in self.entries if key is not None)

    def lookup_range(self, low: Any, high: Any) -> List[int]:
        """Row ids whose key falls in ``[low, high]`` (inclusive), ascending."""
        keys = self.sorted_keys()
        start = 0 if low is None else bisect_left(keys, low)
        stop = len(keys) if high is None else bisect_right(keys, high)
        row_ids: List[int] = []
        for key in keys[start:stop]:
            row_ids.extend(self.entries[key])
        row_ids.sort()
        return row_ids

    def scan_order(self) -> List[Any]:
        """Every key in full-index-scan order: by text, numbers among equal
        texts by value, ``NULL`` last."""
        return sorted(
            self.entries,
            key=lambda k: (k is None, str(k), k if isinstance(k, (int, float)) else 0),
        )

    def scan(self) -> List[int]:
        row_ids: List[int] = []
        for key in self.scan_order():
            row_ids.extend(self.entries[key])
        return row_ids


def row_ids_of(result: Any) -> List[int]:
    """An ``IndexData`` answer as a list, checked to be a row-id array."""
    assert isinstance(result, np.ndarray) and result.dtype == np.intp, repr(result)
    return result.tolist()


def assert_equals_dict_index(
    index: Any, values: Sequence[Any], probes: Sequence[Any], bounds: Sequence[Any]
) -> NaiveIndex:
    """Every read ``IndexData`` offers == the dict-of-lists index's answer.

    ``probes`` are looked up one by one and -- the non-NULL ones, type by
    type -- as one ``probe`` array; ``bounds`` (which must order against the
    keys) are paired every way, ``None`` included, into ranges.
    """
    naive = NaiveIndex(values)
    for value in probes:
        assert row_ids_of(index.lookup(value)) == naive.lookup(value), value
    # ``probe`` takes one column's worth of keys: one type per call.
    for kind in (int, float, str):
        keyed = [value for value in probes if type(value) is kind]
        if keyed:
            array = np.asarray(keyed, dtype=object if kind is str else None)
            counts, row_ids = index.probe(array)
            assert counts.tolist() == [len(naive.lookup(value)) for value in keyed]
            assert row_ids_of(row_ids) == naive.lookup_in(keyed)
    for low in list(bounds) + [None]:
        for high in list(bounds) + [None]:
            assert row_ids_of(index.lookup_range(low, high)) == naive.lookup_range(
                low, high
            ), (low, high)
    assert row_ids_of(index.scan()) == naive.scan()
    return naive
