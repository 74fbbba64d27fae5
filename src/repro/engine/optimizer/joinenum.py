"""System-R style join enumeration (dynamic programming over alias sets).

For small queries a classic left-deep dynamic program is used; beyond
``GREEDY_THRESHOLD`` tables the enumerator falls back to a greedy
cheapest-next-join heuristic (mirroring how industrial optimizers bound the
search space for the 30-way joins found in TPC-DS).

Forced sub-plans (from OPTGUIDELINES) enter the DP as pre-built "macro leaves":
their internal join order and methods are fixed, the optimizer plans around
them, and everything is re-costed coherently -- which is exactly the paper's
re-optimization story.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.engine.expressions import Comparison
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.plan.physical import JOIN_TYPES, PlanNode, PopType
from repro.engine.sql.binder import BoundQuery
from repro.errors import PlanError

#: Above this many leaves the enumerator switches to the greedy heuristic.
GREEDY_THRESHOLD = 9


class JoinEnumerator:
    """Enumerates join orders/methods and returns the cheapest annotated plan."""

    def __init__(self, builder: PlanBuilder, query: BoundQuery,
                 consider_bloom_filters: bool = False):
        self.builder = builder
        self.query = query
        self.consider_bloom_filters = consider_bloom_filters

    # ------------------------------------------------------------------

    def enumerate(self, forced_fragments: Sequence[PlanNode] = ()) -> PlanNode:
        """Find the cheapest plan joining every table of the query.

        ``forced_fragments`` are pre-built sub-plans (from guidelines) whose
        aliases must not be re-planned.  A fragment overlapping an earlier one
        is dropped: a previously honoured guideline already fixed part of its
        subtree, and the optimizer ignores the conflicting one.
        """
        leaves: List[PlanNode] = []
        covered: Set[str] = set()
        for fragment in forced_fragments:
            aliases = self.builder.aliases_of(fragment)
            if not aliases.isdisjoint(covered):
                continue
            covered |= aliases
            leaves.append(fragment)
        for alias in self.query.aliases:
            if alias in covered:
                continue
            leaves.append(self.builder.best_access_path(alias))

        if not leaves:
            raise PlanError("query has no tables to plan")
        if len(leaves) == 1:
            return leaves[0]
        if len(leaves) > GREEDY_THRESHOLD:
            return self._greedy(leaves)
        return self._dynamic_programming(leaves)

    # ------------------------------------------------------------------

    def _join_candidates(
        self, outer: PlanNode, inner: PlanNode, join_predicates: Tuple[Comparison, ...]
    ) -> List[PlanNode]:
        """Every join operator over two annotated inputs, in ``JOIN_TYPES`` order."""
        candidates = []
        for join_type in JOIN_TYPES:
            candidates.append(
                self.builder.make_join(
                    join_type, outer, inner, join_predicates=join_predicates
                )
            )
            if join_type is PopType.HSJOIN and self.consider_bloom_filters:
                candidates.append(
                    self.builder.make_join(
                        join_type, outer, inner, bloom_filter=True,
                        join_predicates=join_predicates,
                    )
                )
        return candidates

    def _best_join(self, outer: PlanNode, inner: PlanNode) -> Optional[PlanNode]:
        # The connecting predicates are the same in both orientations:
        # resolved once per pair, handed to every candidate.
        join_predicates = self.builder.join_predicates_between(outer, inner)
        if not join_predicates:
            return None
        candidates = self._join_candidates(outer, inner, join_predicates)
        candidates += self._join_candidates(inner, outer, join_predicates)
        return min(candidates, key=lambda node: node.estimated_cost)

    # ------------------------------------------------------------------

    def _dynamic_programming(self, leaves: List[PlanNode]) -> PlanNode:
        """Left-deep DP over subsets of leaves (cross products only as a last resort)."""
        n = len(leaves)
        best: Dict[FrozenSet[int], PlanNode] = {}
        for i, leaf in enumerate(leaves):
            best[frozenset([i])] = leaf

        for size in range(2, n + 1):
            for subset in itertools.combinations(range(n), size):
                subset_key = frozenset(subset)
                best_plan: Optional[PlanNode] = None
                for inner_index in subset:
                    rest = subset_key - {inner_index}
                    outer_plan = best.get(rest)
                    if outer_plan is None:
                        continue
                    joined = self._best_join(outer_plan, leaves[inner_index])
                    if joined is None:
                        continue
                    if best_plan is None or joined.estimated_cost < best_plan.estimated_cost:
                        best_plan = joined
                if best_plan is not None:
                    best[subset_key] = best_plan

        full = frozenset(range(n))
        if full in best:
            return best[full]
        # Disconnected query graph: greedily stitch the connected components
        # together with cross products.
        return self._greedy(leaves, allow_cross_products=True)

    def _greedy(self, leaves: List[PlanNode], allow_cross_products: bool = True) -> PlanNode:
        """Cheapest-next-join greedy heuristic for very large queries."""
        fragments = list(leaves)
        while len(fragments) > 1:
            best_pair: Optional[Tuple[int, int]] = None
            best_plan: Optional[PlanNode] = None
            for i in range(len(fragments)):
                for j in range(i + 1, len(fragments)):
                    joined = self._best_join(fragments[i], fragments[j])
                    if joined is None:
                        continue
                    if best_plan is None or joined.estimated_cost < best_plan.estimated_cost:
                        best_plan = joined
                        best_pair = (i, j)
            if best_plan is None:
                if not allow_cross_products:
                    raise PlanError("query graph is disconnected and cross products are disabled")
                # Cross product between the two smallest fragments.
                fragments.sort(key=lambda node: node.estimated_cardinality)
                outer, inner = fragments[0], fragments[1]
                cross = self.builder.make_join(PopType.NLJOIN, outer, inner)
                fragments = fragments[2:] + [cross]
                continue
            i, j = best_pair  # type: ignore[misc]
            remaining = [f for k, f in enumerate(fragments) if k not in (i, j)]
            remaining.append(best_plan)
            fragments = remaining
        return fragments[0]
