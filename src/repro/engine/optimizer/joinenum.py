"""System-R style join enumeration (dynamic programming over alias sets).

For small queries a classic left-deep dynamic program is used; beyond
``GREEDY_THRESHOLD`` tables the enumerator falls back to a greedy
cheapest-next-join heuristic (mirroring how industrial optimizers bound the
search space for the 30-way joins found in TPC-DS).  Either way a pair of
inputs is resolved once (``PlanBuilder.join_pair``), its candidates are priced
as plain floats (``PlanBuilder.price_join``) and only the winner of a DP
subset, or of a greedy step, is built (``PlanBuilder.make_join``).  The
dynamic program skips what cannot win -- the repeat of a two-leaf subset's one
pair, and an extension whose inputs alone cost no less than the incumbent --
which changes no plan: ``tests/naive_optimizer.py`` prices and builds
everything and must return the same plans, node by node.

Forced sub-plans (from OPTGUIDELINES) enter the DP as pre-built "macro leaves":
their internal join order and methods are fixed, the optimizer plans around
them, and everything is re-costed coherently -- which is exactly the paper's
re-optimization story.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set

from repro.engine.optimizer.builder import JoinPair, PlanBuilder
from repro.engine.plan.physical import JOIN_TYPES, PlanNode, PopType
from repro.engine.sql.binder import BoundQuery
from repro.errors import PlanError

#: Above this many leaves the enumerator switches to the greedy heuristic.
GREEDY_THRESHOLD = 9


class JoinChoice(NamedTuple):
    """A priced join candidate: everything ``make_join`` needs to build it."""

    cost: float
    join_type: PopType
    bloom_filter: bool
    outer: PlanNode
    inner: PlanNode
    pair: JoinPair


class JoinEnumerator:
    """Enumerates join orders/methods and returns the cheapest annotated plan."""

    def __init__(self, builder: PlanBuilder, query: BoundQuery,
                 consider_bloom_filters: bool = False):
        self.builder = builder
        self.query = query
        self.consider_bloom_filters = consider_bloom_filters
        #: (operator, bloom filter) of every candidate of one orientation, in
        #: the order ties are broken: the first of equally cheap ones wins.
        operators: List[Tuple[PopType, bool]] = []
        for join_type in JOIN_TYPES:
            operators.append((join_type, False))
            if join_type is PopType.HSJOIN and consider_bloom_filters:
                operators.append((join_type, True))
        self._operators = tuple(operators)

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

    def _cheapest_join(self, left: PlanNode, right: PlanNode) -> Optional[JoinChoice]:
        """The cheapest join operator over a connected pair, priced but not built.

        The first of equally cheap candidates wins, and they are priced with
        ``left`` as the outer before ``right`` as the outer, within an
        orientation HSJOIN, bloom-filter HSJOIN when considered, MSJOIN,
        NLJOIN -- plans depend on that order.  Everything the candidates
        share is resolved once per pair (``PlanBuilder.join_pair``): the
        connecting predicates, the join cardinality, and what each input
        costs as a merge input and as a nested loop's inner.
        """
        builder = self.builder
        pair = builder.join_pair(left, right)
        if not pair.join_predicates:
            return None
        output_rows = pair.output_rows
        best: Optional[JoinChoice] = None
        for outer, inner in ((pair.left, pair.right), (pair.right, pair.left)):
            for join_type, bloom_filter in self._operators:
                cost = builder.price_join(join_type, outer, inner, output_rows, bloom_filter)
                if best is None or cost < best.cost:
                    best = JoinChoice(
                        cost, join_type, bloom_filter, outer.node, inner.node, pair
                    )
        return best

    def _build(self, choice: JoinChoice) -> PlanNode:
        return self.builder.make_join(
            choice.join_type,
            choice.outer,
            choice.inner,
            bloom_filter=choice.bloom_filter,
            pair=choice.pair,
        )

    # ------------------------------------------------------------------

    def _dynamic_programming(self, leaves: List[PlanNode]) -> PlanNode:
        """Left-deep DP over subsets of leaves (cross products only as a last resort).

        A subset's plan is the cheapest way of extending a smaller subset's
        plan by one leaf; only that one is built.  Two kinds of extension are
        not even priced, neither of which can change the outcome:

        * the second extension of a two-leaf subset -- it is the first one's
          pair handed over the other way round, so it prices the same six
          candidates and can tie the incumbent, never beat it;
        * an extension whose two inputs already cost, summed, no less than
          the subset's incumbent.  Every candidate costs ``outer' + inner' +
          operator`` with ``outer' >= outer.estimated_cost``, ``inner' >=
          inner.estimated_cost`` and ``operator >= 0``
          (``PlanBuilder.price_join``), float addition is monotone, and the
          first of equally cheap candidates wins, so none of its candidates
          could replace the incumbent.  Exact, not a heuristic.
        """
        n = len(leaves)
        best: Dict[FrozenSet[int], PlanNode] = {}
        for i, leaf in enumerate(leaves):
            best[frozenset([i])] = leaf

        for size in range(2, n + 1):
            for subset in itertools.combinations(range(n), size):
                subset_key = frozenset(subset)
                cheapest: Optional[JoinChoice] = None
                for inner_index in subset[:1] if size == 2 else subset:
                    outer_plan = best.get(subset_key - {inner_index})
                    if outer_plan is None:
                        continue
                    leaf = leaves[inner_index]
                    if (
                        cheapest is not None
                        and outer_plan.estimated_cost + leaf.estimated_cost >= cheapest.cost
                    ):
                        continue
                    choice = self._cheapest_join(outer_plan, leaf)
                    if choice is None:
                        continue
                    if cheapest is None or choice.cost < cheapest.cost:
                        cheapest = choice
                if cheapest is not None:
                    best[subset_key] = self._build(cheapest)

        full = frozenset(range(n))
        if full in best:
            return best[full]
        # Disconnected query graph: greedily stitch the connected components
        # together with cross products.
        return self._greedy(leaves)

    def _greedy(self, leaves: List[PlanNode]) -> PlanNode:
        """Cheapest-next-join greedy heuristic for very large queries."""
        fragments = list(leaves)
        while len(fragments) > 1:
            cheapest: Optional[JoinChoice] = None
            for i in range(len(fragments)):
                for j in range(i + 1, len(fragments)):
                    choice = self._cheapest_join(fragments[i], fragments[j])
                    if choice is None:
                        continue
                    if cheapest is None or choice.cost < cheapest.cost:
                        cheapest = choice
            if cheapest is None:
                # Cross product between the two smallest fragments.
                fragments.sort(key=lambda node: node.estimated_cardinality)
                outer, inner = fragments[0], fragments[1]
                joined = self.builder.make_join(PopType.NLJOIN, outer, inner)
            else:
                outer, inner = cheapest.outer, cheapest.inner
                joined = self._build(cheapest)
            fragments = [f for f in fragments if f is not outer and f is not inner]
            fragments.append(joined)
        return fragments[0]
