"""The naive plan-construction oracle the optimizer differentials compare against.

``PlanBuilder`` knows the alias set of every node it builds, derives the
connecting predicates of a pair of alias sets once and resolves a node as a
join input once per key; ``JoinEnumerator`` resolves a pair of inputs once,
prices its candidates as plain floats, builds one node per DP subset and
skips the extensions that cannot win.  The classes here do none of that:
every alias set is a fresh ``PlanNode.aliases()`` walk, every predicate lookup
a fresh ``BoundQuery.joins_between`` scan, every input resolved afresh, every
extension of every subset tried, every candidate join of every pair fully
built -- SORT wrappers, index-lookup leaf and all -- without being handed
anything resolved earlier and compared by the cost annotated on the built
node, and the overlap check on forced fragments walks each fragment again --
the way the optimizer worked before the bookkeeping, the pricing and the
bound existed.  The DP and greedy loops live here too, so nothing of the
production enumerator's search runs on the oracle's side.  Plans must come
out equal node by node.
"""

import itertools

from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.optimizer.costmodel import CostModel
from repro.engine.optimizer.guidelines import build_forced_plan
from repro.engine.optimizer.joinenum import JoinEnumerator
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import JOIN_TYPES, PlanNode, PopType, Qgm


class NaiveBuilder(PlanBuilder):
    def aliases_of(self, node):
        return frozenset(node.aliases())

    def connecting_predicates(self, left, right):
        return tuple(self.query.joins_between(left, right))

    def _join_input(self, node, aliases, join_predicates):
        self._join_inputs.clear()
        return super()._join_input(node, aliases, join_predicates)


class NaiveEnumerator(JoinEnumerator):
    def _naive_candidates(self, outer, inner):
        if not self.builder.join_predicates_between(outer, inner):
            return []
        candidates = []
        for join_type in JOIN_TYPES:
            candidates.append(self.builder.make_join(join_type, outer, inner))
            if join_type is PopType.HSJOIN and self.consider_bloom_filters:
                candidates.append(
                    self.builder.make_join(join_type, outer, inner, bloom_filter=True)
                )
        return candidates

    def _best_join(self, outer, inner):
        candidates = self._naive_candidates(outer, inner) + self._naive_candidates(inner, outer)
        if not candidates:
            return None
        return min(candidates, key=lambda node: node.estimated_cost)


    def _dynamic_programming(self, leaves):
        n = len(leaves)
        best = {frozenset([i]): leaf for i, leaf in enumerate(leaves)}
        for size in range(2, n + 1):
            for subset in itertools.combinations(range(n), size):
                subset_key = frozenset(subset)
                best_plan = None
                for inner_index in subset:
                    outer_plan = best.get(subset_key - {inner_index})
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
        return self._greedy(leaves)

    def _greedy(self, leaves):
        fragments = list(leaves)
        while len(fragments) > 1:
            best_pair = None
            best_plan = None
            for i in range(len(fragments)):
                for j in range(i + 1, len(fragments)):
                    joined = self._best_join(fragments[i], fragments[j])
                    if joined is None:
                        continue
                    if best_plan is None or joined.estimated_cost < best_plan.estimated_cost:
                        best_plan = joined
                        best_pair = (i, j)
            if best_plan is None:
                fragments.sort(key=lambda node: node.estimated_cardinality)
                cross = self.builder.make_join(PopType.NLJOIN, fragments[0], fragments[1])
                fragments = fragments[2:] + [cross]
                continue
            remaining = [f for k, f in enumerate(fragments) if k not in best_pair]
            remaining.append(best_plan)
            fragments = remaining
        return fragments[0]


def naive_optimize(database, query, guidelines=None, consider_bloom_filters=False):
    """``Optimizer.optimize`` over the naive builder and enumerator."""
    rewritten = rewrite_query(query)
    builder = NaiveBuilder(
        database.catalog,
        rewritten,
        CardinalityEstimator(database.catalog, rewritten),
        CostModel(database.catalog),
    )
    forced_fragments = []
    covered = set()
    for element in guidelines.elements if guidelines is not None else ():
        fragment = build_forced_plan(builder, rewritten, element)
        if fragment is None:
            continue
        aliases = set(fragment.aliases())
        if aliases & covered:
            continue
        covered |= aliases
        forced_fragments.append(fragment)
    enumerator = NaiveEnumerator(
        builder, rewritten, consider_bloom_filters=consider_bloom_filters
    )
    root = builder.finish_plan(enumerator.enumerate(forced_fragments))
    return Qgm(root, sql=query.sql)


def plan_rows(qgm):
    """Everything the optimizer decides about a plan, node by node."""
    return [
        (
            node.pop_type,
            node.operator_id,
            node.table_alias,
            node.index_name,
            tuple(node.aliases()),
            node.predicates,
            node.join_predicates,
            sorted((key, repr(value)) for key, value in node.properties.items()),
            node.estimated_cardinality,
            node.estimated_cost,
        )
        for node in qgm.root.walk()
    ]
