"""A small LRU buffer pool used by the runtime simulator.

The pool tracks which (table, page) pairs are resident.  Index scans over
poorly clustered data touch pages in key order rather than physical order;
when the working set exceeds the pool, pages are evicted and re-read -- the
"flooding" problem behind the paper's Figure 4 pattern.  Logical and physical
read counts feed the simulated elapsed time.

A per-row page-access sequence is a :class:`PageTrace`: an immutable page
array that also carries its *summary* -- its distinct pages in last-use order
-- computed the first time a pool asks for it and kept for as long as the
trace lives (the executing plan, then every memo entry the trace is composed
into, until the memo resets with the storage epoch).  When the resident set
plus those distinct pages fit the capacity no eviction can occur, the outcome
of every access is determined by set membership and last-use order, and
:meth:`BufferPool.access_many` moves one dict entry per *distinct* page
instead of one per access -- what a memo hit replaying a few thousand
accesses over a few dozen pages into a fresh pool costs.  Short traces, traces
that may evict and plain page sequences take the per-page loop, which is the
oracle (:meth:`BufferPool.access` is its one-page form); the differential
property tests in ``tests/property`` pin the two paths together.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional, Tuple

import numpy as np

#: Traces shorter than this replay through the plain loop: below a few dozen
#: accesses the summary costs more than it saves.
_SUMMARY_MIN_ACCESSES = 32

#: Sentinel distinguishing "not resident" from the stored value (None).
_ABSENT = object()


class PageTrace:
    """An immutable sequence of page numbers, in access order."""

    __slots__ = ("pages", "_last_use_order")

    def __init__(self, pages: Any):
        self.pages = pages
        self._last_use_order: Optional[List[int]] = None

    def __len__(self) -> int:
        return len(self.pages)

    def last_use_order(self) -> List[int]:
        """The distinct pages, ordered by their last access (computed once)."""
        order = self._last_use_order
        if order is None:
            # ``unique`` over the reversed trace: ``first_seen[j]`` is where
            # ``distinct[j]`` first occurs from the end, so descending
            # ``first_seen`` is ascending last use.
            distinct, first_seen = np.unique(self.pages[::-1], return_index=True)
            order = self._last_use_order = distinct[np.argsort(-first_seen)].tolist()
        return order


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
        # A run of distinct pages is its own last-use order: the loop already
        # costs one dict move per page.
        return self.access_many(table, range(first_page, first_page + count))

    def access_many(self, table: str, pages) -> int:
        """Touch ``pages`` in order; returns the number of misses.

        Semantically identical to calling :meth:`access` per page.  A
        :class:`PageTrace` whose distinct pages fit beside the resident set
        cannot evict: each distinct non-resident page misses exactly once
        (its first touch), every other access hits, and the final LRU order
        is the untouched residents (original relative order) followed by the
        touched pages in last-use order -- a pop + reinsert per distinct
        page.  Everything else takes the per-page loop, the oracle the
        summary path is validated against.
        """
        resident = self._pages
        misses = 0
        if isinstance(pages, PageTrace):
            touched = len(pages)
            if touched >= _SUMMARY_MIN_ACCESSES:
                distinct = pages.last_use_order()
                if len(resident) + len(distinct) <= self.capacity:
                    pop = resident.pop
                    for page in distinct:
                        key = (table, page)
                        if pop(key, _ABSENT) is _ABSENT:
                            misses += 1
                        resident[key] = None
                    self.logical_reads += touched
                    self.physical_reads += misses
                    return misses
            pages = pages.pages.tolist()
        capacity = self.capacity
        popitem = resident.popitem
        move_to_end = resident.move_to_end
        touched = 0
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

    @property
    def resident_pages(self) -> int:
        return len(self._pages)
