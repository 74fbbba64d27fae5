"""The cost-based optimizer facade.

``Optimizer.optimize`` runs the full two-stage pipeline of the paper's
Section 1.2 -- query rewrite followed by cost-based planning -- and returns a
QGM.  An optional OPTGUIDELINES document turns the call into the third-stage
*re-optimization*: guideline elements that apply are built as forced plan
fragments and the optimizer plans coherently around them.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from repro.engine.catalog import Catalog
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.optimizer.costmodel import CostModel
from repro.engine.optimizer.guidelines import (
    GuidelineDocument,
    build_forced_plan,
    parse_guidelines,
)
from repro.engine.optimizer.joinenum import JoinEnumerator
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import PlanNode, Qgm
from repro.engine.sql.binder import BoundQuery, bind
from repro.engine.sql.parser import parse_select


class Optimizer:
    """Two-stage optimizer (query rewrite + cost-based) with guideline support."""

    def __init__(self, catalog: Catalog, consider_bloom_filters: bool = False):
        self.catalog = catalog
        #: Whether the cost-based enumeration considers bloom-filter hash joins.
        #: DB2 does not always pick them; keeping this off by default lets the
        #: learning engine discover them as rewrites (the Figure 4 pattern).
        self.consider_bloom_filters = consider_bloom_filters

    # ------------------------------------------------------------------

    def bind_sql(self, sql: str) -> BoundQuery:
        """Parse and bind a SQL string against the catalog."""
        return bind(parse_select(sql), self.catalog, sql)

    def optimize(
        self,
        query: BoundQuery,
        guidelines: Union[GuidelineDocument, str, None] = None,
        query_name: str = "",
    ) -> Qgm:
        """Optimize a bound query block into a QGM."""
        if isinstance(guidelines, str):
            guidelines = parse_guidelines(guidelines)

        rewritten = rewrite_query(query)
        estimator = CardinalityEstimator(self.catalog, rewritten)
        cost_model = CostModel(self.catalog)
        builder = PlanBuilder(self.catalog, rewritten, estimator, cost_model)

        forced_fragments: List[PlanNode] = []
        if guidelines is not None and not guidelines.is_empty:
            # Overlapping fragments are dropped by the enumerator.
            for element in guidelines.elements:
                fragment = build_forced_plan(builder, rewritten, element)
                if fragment is not None:
                    forced_fragments.append(fragment)

        enumerator = JoinEnumerator(
            builder, rewritten, consider_bloom_filters=self.consider_bloom_filters
        )
        join_tree = enumerator.enumerate(forced_fragments)
        return Qgm(
            builder.finish_plan(join_tree), sql=query.sql, query_name=query_name, query=query
        )
