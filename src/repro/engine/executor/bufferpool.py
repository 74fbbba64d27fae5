"""A small LRU buffer pool used by the runtime simulator.

The pool tracks which (table, page) pairs are resident.  Index scans over
poorly clustered data touch pages in key order rather than physical order;
when the working set exceeds the pool, pages are evicted and re-read -- the
"flooding" problem behind the paper's Figure 4 pattern.  Logical and physical
read counts feed the simulated elapsed time.

Page-access *traces* (what the vectorized executor and the memo's trace
replay feed through :meth:`BufferPool.access_many`) are replayed with array
ops whenever no eviction can occur: if the resident set plus the trace's
distinct pages fit the capacity, the per-access outcome is fully determined
by last-occurrence order and set membership, so the per-page LRU loop is
skipped.  Traces that may evict fall back to the loop, which is the oracle
(:meth:`access` is its per-page form); the differential property tests in
``tests/property`` pin the two paths together.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np

#: Traces shorter than this replay through the plain loop: below a few dozen
#: pages the ndarray round trip costs more than it saves.
_VECTOR_MIN_PAGES = 32

#: Sentinel distinguishing "not resident" from the stored value (None).
_ABSENT = object()


class BufferPool:
    """LRU cache of pages identified by (table_name, page_number)."""

    def __init__(self, capacity_pages: int):
        self.capacity = max(1, capacity_pages)
        self._pages: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        self.logical_reads = 0
        self.physical_reads = 0

    def access(self, table: str, page: int) -> bool:
        """Touch one page; returns True if it was a hit."""
        key = (table, page)
        self.logical_reads += 1
        if key in self._pages:
            self._pages.move_to_end(key)
            return True
        self.physical_reads += 1
        self._pages[key] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    def access_sequential(self, table: str, first_page: int, page_count: int) -> int:
        """Touch a run of consecutive pages; returns the number of misses."""
        count = max(0, page_count)
        if not self._pages:
            # Fast path: a sequential run into an empty pool is all misses
            # and its final LRU order is just the run itself (clipped to the
            # last ``capacity`` pages).  This is the first access of nearly
            # every plan -- and of every memo-trace replay into a cold pool
            # -- so skipping the per-page LRU bookkeeping is a real win.
            first_resident = first_page + max(0, count - self.capacity)
            self._pages = OrderedDict(
                ((table, page), None)
                for page in range(first_resident, first_page + count)
            )
            self.logical_reads += count
            self.physical_reads += count
            return count
        return self.access_many(table, range(first_page, first_page + count))

    def access_many(self, table: str, pages) -> int:
        """Touch ``pages`` in order; returns the number of misses.

        Semantically identical to calling :meth:`access` per page.  Traces
        that provably cannot evict replay through :meth:`_access_many_array`
        (hit/miss counts and the final LRU order from last-occurrence
        accounting); everything else takes the inlined per-page loop -- the
        oracle the array path is validated against.
        """
        misses = self._access_many_array(table, pages)
        if misses is not None:
            return misses
        resident = self._pages
        capacity = self.capacity
        popitem = resident.popitem
        move_to_end = resident.move_to_end
        touched = 0
        misses = 0
        for page in pages:
            key = (table, page)
            touched += 1
            if key in resident:
                move_to_end(key)
            else:
                misses += 1
                resident[key] = None
                if len(resident) > capacity:
                    popitem(last=False)
        self.logical_reads += touched
        self.physical_reads += misses
        return misses

    def _access_many_array(self, table: str, pages) -> "int | None":
        """Replay a trace with array ops when no eviction is possible.

        Decline (return None) unless ``len(resident) + len(distinct pages)``
        fits the capacity: under that bound the oracle never evicts, so each
        distinct non-resident page misses exactly once (its first touch),
        every other access hits, and the final LRU order is the untouched
        residents (original relative order) followed by the touched pages in
        last-occurrence order -- a pop + reinsert per *distinct* page instead
        of a bookkeeping step per *access*.
        """
        try:
            count = len(pages)
        except TypeError:
            return None
        if count < _VECTOR_MIN_PAGES:
            return None
        array = pages if isinstance(pages, np.ndarray) else np.asarray(pages)
        if array.dtype == object:
            return None
        # ``unique`` over the reversed trace: ``reversed_first[j]`` is the
        # first occurrence of ``distinct[j]`` in the reversed trace, i.e. its
        # *last* occurrence in the forward trace (negated rank).
        distinct, reversed_first = np.unique(array[::-1], return_index=True)
        resident = self._pages
        if len(resident) + distinct.size > self.capacity:
            return None
        pop = resident.pop
        misses = 0
        # Ascending last-occurrence order = descending first-occurrence
        # position in the reversed trace.
        for page in distinct[np.argsort(-reversed_first, kind="stable")].tolist():
            key = (table, page)
            if pop(key, _ABSENT) is _ABSENT:
                misses += 1
            resident[key] = None
        self.logical_reads += count
        self.physical_reads += misses
        return misses

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def reset_counters(self) -> None:
        self.logical_reads = 0
        self.physical_reads = 0
