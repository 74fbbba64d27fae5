"""The naive plan-construction oracle the optimizer differentials compare against.

``PlanBuilder`` knows the alias set of every node it builds and derives the
connecting predicates of a pair of alias sets once; ``JoinEnumerator``
resolves them once per pair and hands them to every candidate.  The classes
here do none of that: every alias set is a fresh ``PlanNode.aliases()`` walk,
every predicate lookup a fresh ``BoundQuery.joins_between`` scan, every
candidate join built without being told its predicates, and the overlap
check on forced fragments walks each fragment again -- the way the optimizer
worked before the bookkeeping existed.  Plans must come out equal node by
node.
"""

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


def naive_optimize(database, query, guidelines=None, consider_bloom_filters=False):
    """``Optimizer.optimize`` over the naive builder and enumerator."""
    rewritten = rewrite_query(query)
    builder = NaiveBuilder(
        database.catalog,
        rewritten,
        CardinalityEstimator(database.catalog, rewritten),
        CostModel(database.catalog, database.config),
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
    top = builder.finish_plan(enumerator.enumerate(forced_fragments))
    root = PlanNode(
        pop_type=PopType.RETURN,
        inputs=[top],
        estimated_cardinality=top.estimated_cardinality,
        estimated_cost=top.estimated_cost,
    )
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
