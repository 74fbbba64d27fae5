"""Optimizer cost model.

Costs are expressed in *timerons*, DB2's synthetic cost unit.  The ``OPT_*``
constants below are deliberately calibrated differently from the runtime
simulator's ``RUN_*`` family (:mod:`repro.engine.executor.metrics`) -- a cost
model is a model, and its systematic biases (an optimistic sequential transfer
rate, ignorance of buffer-pool flooding, no knowledge of merge-join early
termination) are what create the problem patterns GALO learns.  The
calibration is a fixed part of this reproduction, not a setting.
"""

from __future__ import annotations

import math

from repro.engine.catalog import Catalog
from repro.engine.config import PAGE_SIZE_ROWS, SORT_HEAP_PAGES
from repro.engine.schema import Index

#: Timerons per page read sequentially / at random, and per row of CPU work.
OPT_SEQ_PAGE_COST = 1.0
OPT_RAND_PAGE_COST = 4.0
OPT_CPU_ROW_COST = 0.01
#: Multiplier on sequential page cost.  The paper's Figure 7 pattern is an
#: overestimated table-scan cost caused by a mis-set transfer rate; > 1 here
#: for the same effect.
OPT_TRANSFER_RATE = 1.8
#: Timerons per row sorted, hashed into a build side, and probed.
OPT_SORT_ROW_COST = 0.03
OPT_HASH_BUILD_ROW_COST = 0.025
OPT_HASH_PROBE_ROW_COST = 0.012


class CostModel:
    """Per-operator cost formulas used by the cost-based optimizer."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog

    # -- scans -------------------------------------------------------------

    def table_scan_cost(self, table: str, output_rows: float) -> float:
        """Full sequential scan: every page read at the (believed) transfer rate."""
        stats = self.catalog.statistics(table)
        io_cost = stats.pages * OPT_SEQ_PAGE_COST * OPT_TRANSFER_RATE
        cpu_cost = stats.cardinality * OPT_CPU_ROW_COST
        return io_cost + cpu_cost

    def index_scan_cost(
        self,
        table: str,
        index: Index,
        matching_rows: float,
        fetch: bool = True,
    ) -> float:
        """Index scan plus (optionally) a FETCH of the qualifying data pages.

        The optimizer trusts the index's recorded ``cluster_ratio``: a well
        clustered index turns row fetches into near-sequential page reads, a
        poorly clustered one into random I/O.  The recorded ratio can be stale
        or optimistic, which is how the Figure 4 flooding pattern arises.
        """
        stats = self.catalog.statistics(table)
        key_stats = stats.column(index.column)
        leaf_pages = max(1.0, stats.pages * 0.1)
        index_io = math.log2(max(2.0, key_stats.n_distinct or 2)) * 0.1 + (
            leaf_pages * (matching_rows / max(1.0, stats.cardinality))
        )
        cost = index_io * OPT_RAND_PAGE_COST
        if fetch:
            rows_per_page = max(1.0, stats.cardinality / max(1, stats.pages))
            pages_fetched = min(float(stats.pages), matching_rows / rows_per_page
                                + matching_rows * (1.0 - index.cluster_ratio))
            random_fraction = 1.0 - index.cluster_ratio
            sequential_fraction = index.cluster_ratio
            cost += pages_fetched * (
                random_fraction * OPT_RAND_PAGE_COST
                + sequential_fraction * OPT_SEQ_PAGE_COST
            )
        cost += matching_rows * OPT_CPU_ROW_COST
        return cost

    # -- joins ----------------------------------------------------------------

    def hash_join_cost(
        self,
        outer_rows: float,
        inner_rows: float,
        output_rows: float,
        bloom_filter: bool = False,
    ) -> float:
        """Hash join: build on the inner input, probe with the outer input."""
        build = inner_rows * OPT_HASH_BUILD_ROW_COST
        probe = outer_rows * OPT_HASH_PROBE_ROW_COST
        spill = 0.0
        inner_pages = inner_rows / PAGE_SIZE_ROWS
        if inner_pages > SORT_HEAP_PAGES:
            spill_pages = inner_pages - SORT_HEAP_PAGES
            spill = spill_pages * OPT_SEQ_PAGE_COST * 2.0
        bloom_saving = 0.0
        if bloom_filter:
            # The bloom filter skips hash probes for outer rows that cannot match.
            expected_match_fraction = min(1.0, output_rows / max(outer_rows, 1e-9))
            bloom_saving = (
                outer_rows
                * (1.0 - expected_match_fraction)
                * OPT_HASH_PROBE_ROW_COST
                * 0.8
            )
        cpu = output_rows * OPT_CPU_ROW_COST
        return max(0.0, build + probe + spill + cpu - bloom_saving)

    def merge_join_cost(
        self,
        outer_rows: float,
        inner_rows: float,
        output_rows: float,
        outer_sorted: bool,
        inner_sorted: bool,
    ) -> float:
        """Sort-merge join: sort whichever inputs are not already ordered."""
        cost = 0.0
        if not outer_sorted:
            cost += self.sort_cost(outer_rows)
        if not inner_sorted:
            cost += self.sort_cost(inner_rows)
        cost += (outer_rows + inner_rows) * OPT_CPU_ROW_COST
        cost += output_rows * OPT_CPU_ROW_COST
        return cost

    def nested_loop_join_cost(
        self,
        outer_rows: float,
        inner_lookup_cost: float,
        output_rows: float,
    ) -> float:
        """Nested-loop join: re-evaluate the inner access once per outer row."""
        cost = outer_rows * inner_lookup_cost
        cost += output_rows * OPT_CPU_ROW_COST
        return cost

    def index_lookup_cost(self, table: str, index: Index, rows_per_lookup: float) -> float:
        """Cost of one index probe on the inner of a nested-loop join."""
        stats = self.catalog.statistics(table)
        key_stats = stats.column(index.column)
        traverse = math.log2(max(2.0, key_stats.n_distinct or 2)) * 0.02
        random_fraction = 1.0 - index.cluster_ratio
        fetch = rows_per_lookup * (
            random_fraction * OPT_RAND_PAGE_COST * 0.5
            + index.cluster_ratio * OPT_SEQ_PAGE_COST * 0.1
            + OPT_CPU_ROW_COST
        )
        return traverse + fetch

    # -- other operators -----------------------------------------------------

    def sort_cost(self, rows: float) -> float:
        """External-sort cost with spill past the sort heap."""
        if rows <= 1:
            return OPT_SORT_ROW_COST
        cpu = rows * math.log2(max(2.0, rows)) * OPT_SORT_ROW_COST * 0.1
        pages = rows / PAGE_SIZE_ROWS
        spill = 0.0
        if pages > SORT_HEAP_PAGES:
            spill = (pages - SORT_HEAP_PAGES) * OPT_SEQ_PAGE_COST * 2.0
        return cpu + spill

    def group_by_cost(self, rows: float, groups: float) -> float:
        return rows * OPT_CPU_ROW_COST + groups * OPT_CPU_ROW_COST
