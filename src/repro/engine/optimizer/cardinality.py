"""Cardinality estimation.

Classic System-R estimation: histogram / frequent-value selectivities for
local predicates, independence between predicates, and ``1 / max(ndv)`` for
equi-joins.  These assumptions are exactly what breaks on skewed and
correlated data, producing the estimation errors whose consequences GALO's
knowledge base captures (the paper's Figures 4, 7, 8).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.engine.catalog import Catalog
from repro.engine.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Or,
    Predicate,
)
from repro.engine.sql.binder import BoundQuery
from repro.engine.statistics import ColumnStatistics, TableStatistics, join_selectivity


class CardinalityEstimator:
    """Estimates scan and join cardinalities from catalog statistics."""

    def __init__(self, catalog: Catalog, query: BoundQuery):
        self.catalog = catalog
        self.query = query
        self._stats_by_alias: Dict[str, TableStatistics] = {
            table.alias: catalog.statistics(table.table) for table in query.tables
        }

    # -- base tables ---------------------------------------------------------

    def table_cardinality(self, alias: str) -> float:
        return float(self._stats_by_alias[alias].cardinality)

    def column_statistics(self, ref: ColumnRef) -> ColumnStatistics:
        return self._stats_by_alias[ref.qualifier].column(ref.column)

    def scan_cardinality(self, alias: str, predicates: Sequence[Predicate]) -> float:
        """Estimated output cardinality of scanning ``alias`` with ``predicates``."""
        cardinality = self.table_cardinality(alias)
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.predicate_selectivity(predicate)
        return max(cardinality * selectivity, 1e-4)

    # -- predicates -----------------------------------------------------------

    def predicate_selectivity(self, predicate: Predicate) -> float:
        """Estimated selectivity of a single local predicate."""
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate)
        if isinstance(predicate, Between):
            stats = self.column_statistics(predicate.column)
            return stats.selectivity_range(predicate.low.value, predicate.high.value)
        if isinstance(predicate, InList):
            stats = self.column_statistics(predicate.column)
            selectivity = sum(stats.selectivity_equals(value) for value in predicate.values)
            return min(1.0, selectivity)
        if isinstance(predicate, IsNull):
            stats = self.column_statistics(predicate.column)
            fraction = stats.null_fraction
            return (1.0 - fraction) if predicate.negated else max(fraction, 1e-6)
        if isinstance(predicate, Or):
            # Union bound capped at 1.
            return min(1.0, sum(self.predicate_selectivity(child) for child in predicate.children))
        return 1.0 / 3.0

    def _comparison_selectivity(self, predicate: Comparison) -> float:
        column_side: Optional[ColumnRef] = None
        literal_side: Optional[Literal] = None
        for left, right in ((predicate.left, predicate.right), (predicate.right, predicate.left)):
            if isinstance(left, ColumnRef) and isinstance(right, Literal):
                column_side, literal_side = left, right
                break
        if column_side is None or literal_side is None:
            # column-to-column comparison on the same table: default guess.
            return 0.1
        stats = self.column_statistics(column_side)
        value = literal_side.value
        op = predicate.op
        if column_side is not predicate.left and op in ("<", "<=", ">", ">="):
            # Normalize "literal op column" to "column op' literal".
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        if op == "=":
            return stats.selectivity_equals(value)
        if op == "<>":
            return max(0.0, 1.0 - stats.selectivity_equals(value))
        if op in ("<", "<="):
            return stats.selectivity_range(None, value)
        if op in (">", ">="):
            return stats.selectivity_range(value, None)
        return 1.0 / 3.0

    # -- joins ------------------------------------------------------------------

    def join_cardinality(
        self,
        outer_cardinality: float,
        inner_cardinality: float,
        join_predicates: Sequence[Comparison],
    ) -> float:
        """Estimated cardinality of joining two streams on ``join_predicates``."""
        if not join_predicates:
            return max(outer_cardinality * inner_cardinality, 1e-4)
        selectivity = 1.0
        for predicate in join_predicates:
            left = predicate.left
            right = predicate.right
            if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
                selectivity *= join_selectivity(
                    self.column_statistics(left), self.column_statistics(right)
                )
            else:
                selectivity *= 0.1
        return max(outer_cardinality * inner_cardinality * selectivity, 1e-4)
