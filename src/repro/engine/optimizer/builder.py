"""Plan construction and annotation shared by the optimizer, the random plan
generator, and the guideline processor.

A :class:`PlanBuilder` knows how to build access paths and join nodes for one
bound query, annotating every node with the optimizer's estimated cardinality
and cumulative cost.  Keeping this in one place guarantees that a plan forced
through a guideline, a plan drawn by the Random Plan Generator and a plan found
by dynamic programming are all costed identically -- which the paper relies on
when it re-optimizes a query "through the optimizer again".

A join is resolved, priced and built in three steps that share their terms:
``join_pair`` resolves two inputs once (connecting predicates, join
cardinality, and per input its key, its cost as a merge input and its cost as
a nested loop's inner), ``price_join`` sums one operator over two resolved
inputs, and ``make_join`` builds the node and annotates it through that same
``price_join`` -- so the join enumerator's priced candidate and the node later
built for it carry the same float, and every candidate of a pair reuses what
was resolved for the first.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.engine.catalog import Catalog
from repro.engine.expressions import (
    Between,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Predicate,
)
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.optimizer.costmodel import CostModel
from repro.engine.plan.physical import (
    PlanNode,
    PopType,
    filter_node,
    group_by,
    index_scan,
    join,
    sort,
    table_scan,
)
from repro.engine.schema import Index
from repro.engine.sql.binder import BoundQuery, BoundTable
from repro.errors import PlanError


def sargable_column(predicate: Predicate) -> Optional[ColumnRef]:
    """Return the column a predicate constrains if an index could serve it."""
    if isinstance(predicate, Comparison) and isinstance(predicate.left, ColumnRef):
        if isinstance(predicate.right, Literal):
            return predicate.left
    if isinstance(predicate, Comparison) and isinstance(predicate.right, ColumnRef):
        if isinstance(predicate.left, Literal):
            return predicate.right
    if isinstance(predicate, (Between, InList)):
        return predicate.column
    return None


class JoinInput(NamedTuple):
    """One input of a join and the terms its cost enters a join's cost with.

    Resolved once per pair of inputs (:meth:`PlanBuilder.join_pair`): a
    pair's candidate joins -- every operator, both orientations -- use each
    input as the outer and as the inner and differ only in which terms they
    sum (:meth:`PlanBuilder.price_join`).
    """

    node: PlanNode
    aliases: FrozenSet[str]
    #: The input's column in the connecting predicates; None without any.
    key: Optional[ColumnRef]
    #: Cumulative cost as a merge-join input: the node's, plus a SORT on
    #: ``key`` unless there is no key or the node is already sorted on it.
    merge_cost: float
    #: The table and its index on ``key`` when the node is a scan a nested
    #: loop can probe once per outer row.
    lookup: Optional[Tuple[BoundTable, Index]]
    #: Cost of one evaluation as the inner of a nested-loop join.
    lookup_cost: float


class JoinPair(NamedTuple):
    """Two inputs resolved for joining: what all their candidate joins share."""

    left: JoinInput
    right: JoinInput
    join_predicates: Tuple[Comparison, ...]
    output_rows: float


class PlanBuilder:
    """Builds cost-annotated plan nodes for one bound query.

    A builder lives for one ``optimize`` / ``generate`` call and keeps the
    alias-set bookkeeping of that call: the qualifier set of every join
    predicate, the connecting predicates of every pair of alias sets asked
    for, the alias set of every node it has built or been handed, and every
    node resolved as a join input on a key.  All four are pure functions of
    the bound query and of subtrees the builder never mutates, so they are
    derived once instead of once per candidate join; they die with the
    builder.
    """

    def __init__(
        self,
        catalog: Catalog,
        query: BoundQuery,
        estimator: Optional[CardinalityEstimator] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self.catalog = catalog
        self.query = query
        self.estimator = estimator or CardinalityEstimator(catalog, query)
        self.cost_model = cost_model or CostModel(catalog)
        #: ``query.join_predicates`` in order, each with its qualifier set.
        self._join_qualifiers: Tuple[Tuple[Comparison, FrozenSet[str]], ...] = tuple(
            (predicate, predicate.referenced_qualifiers())
            for predicate in query.join_predicates
        )
        self._connecting: Dict[
            Tuple[FrozenSet[str], FrozenSet[str]], Tuple[Comparison, ...]
        ] = {}
        #: ``id(node)`` -> (node, alias set of its subtree).  The entry holds
        #: the node, so its id cannot be recycled while the entry exists.
        self._alias_sets: Dict[int, Tuple[PlanNode, FrozenSet[str]]] = {}
        #: (``id(node)``, join key) -> the node resolved as a join input on
        #: that key (it holds the node too): a leaf meets the same key in
        #: every subset the dynamic program extends by it.
        self._join_inputs: Dict[Tuple[int, Optional[ColumnRef]], JoinInput] = {}

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------

    def candidate_access_paths(self, alias: str) -> List[PlanNode]:
        """All access paths for ``alias``: one TBSCAN plus one IXSCAN per usable index."""
        bound = self.query.table_for_alias(alias)
        predicates = tuple(self.query.predicates_for(alias))
        output_rows = self.estimator.scan_cardinality(alias, predicates)

        candidates: List[PlanNode] = []
        tbscan = table_scan(bound.table, alias, predicates)
        tbscan.estimated_cardinality = output_rows
        tbscan.estimated_cost = self.cost_model.table_scan_cost(bound.table, output_rows)
        candidates.append(tbscan)

        sargable = {
            ref.column for ref in map(sargable_column, predicates) if ref is not None
        }
        join_columns = self._join_columns(alias)
        for index in bound.schema.indexes:
            usable = index.column in sargable or index.column in join_columns
            if not usable:
                continue
            matching = self._index_matching_rows(alias, index, predicates)
            ixscan = index_scan(bound.table, alias, index.name, predicates, fetch=True)
            ixscan.estimated_cardinality = output_rows
            ixscan.estimated_cost = self.cost_model.index_scan_cost(
                bound.table, index, matching, fetch=True
            )
            ixscan.properties["sorted_on"] = ColumnRef(alias, index.column)
            candidates.append(ixscan)
        return candidates

    def best_access_path(self, alias: str) -> PlanNode:
        """Cheapest access path for ``alias`` according to the optimizer."""
        candidates = self.candidate_access_paths(alias)
        return min(candidates, key=lambda node: node.estimated_cost)

    def forced_access_path(
        self, alias: str, method: str, index_name: Optional[str] = None
    ) -> PlanNode:
        """Build the access path a guideline dictates for ``alias``."""
        bound = self.query.table_for_alias(alias)
        predicates = tuple(self.query.predicates_for(alias))
        output_rows = self.estimator.scan_cardinality(alias, predicates)
        method = method.upper()
        if method == "TBSCAN":
            node = table_scan(bound.table, alias, predicates)
            node.estimated_cardinality = output_rows
            node.estimated_cost = self.cost_model.table_scan_cost(bound.table, output_rows)
            return node
        if method == "IXSCAN":
            index = self._resolve_index(bound.schema.indexes, alias, index_name)
            matching = self._index_matching_rows(alias, index, predicates)
            node = index_scan(bound.table, alias, index.name, predicates, fetch=True)
            node.estimated_cardinality = output_rows
            node.estimated_cost = self.cost_model.index_scan_cost(
                bound.table, index, matching, fetch=True
            )
            node.properties["sorted_on"] = ColumnRef(alias, index.column)
            return node
        raise PlanError(f"unsupported access method {method!r}")

    def _resolve_index(
        self, indexes: Sequence[Index], alias: str, index_name: Optional[str]
    ) -> Index:
        if not indexes:
            raise PlanError(f"table instance {alias!r} has no indexes for IXSCAN")
        if index_name:
            cleaned = index_name.strip('"')
            for index in indexes:
                if index.name == cleaned or index.column.upper() == cleaned.upper():
                    return index
        join_columns = self._join_columns(alias)
        for index in indexes:
            if index.column in join_columns:
                return index
        return indexes[0]

    def _index_matching_rows(
        self, alias: str, index: Index, predicates: Sequence[Predicate]
    ) -> float:
        """Rows the index scan qualifies before residual predicates are applied."""
        table_rows = self.estimator.table_cardinality(alias)
        selectivity = 1.0
        key = ColumnRef(alias, index.column)
        for predicate in predicates:
            if sargable_column(predicate) == key:
                selectivity *= self.estimator.predicate_selectivity(predicate)
        return max(1.0, table_rows * selectivity)

    def _join_columns(self, alias: str) -> Set[str]:
        columns: Set[str] = set()
        for predicate in self.query.join_predicates:
            for side in (predicate.left, predicate.right):
                if isinstance(side, ColumnRef) and side.qualifier == alias:
                    columns.add(side.column)
        return columns

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def aliases_of(self, node: PlanNode) -> FrozenSet[str]:
        """Table instances covered by ``node``'s subtree.

        Known without a walk for every node this builder created (joins,
        SORT wrappers, nested-loop lookups); walked once for anything else
        (access paths, fragments built elsewhere).
        """
        known = self._alias_sets.get(id(node))
        if known is not None:
            return known[1]
        return self._remember_aliases(node, frozenset(node.aliases()))

    def _remember_aliases(self, node: PlanNode, aliases: FrozenSet[str]) -> FrozenSet[str]:
        self._alias_sets[id(node)] = (node, aliases)
        return aliases

    def connecting_predicates(
        self, left: FrozenSet[str], right: FrozenSet[str]
    ) -> Tuple[Comparison, ...]:
        """``query.joins_between(left, right)`` as a tuple, derived once per pair.

        The predicates come out in the bound query's ``join_predicates`` order
        whichever side is called left, so one derivation fills both
        orientations.
        """
        connecting = self._connecting.get((left, right))
        if connecting is None:
            connecting = tuple(
                predicate
                for predicate, qualifiers in self._join_qualifiers
                if not qualifiers.isdisjoint(left) and not qualifiers.isdisjoint(right)
            )
            self._connecting[(left, right)] = connecting
            self._connecting[(right, left)] = connecting
        return connecting

    def join_predicates_between(self, outer: PlanNode, inner: PlanNode) -> Tuple[Comparison, ...]:
        return self.connecting_predicates(self.aliases_of(outer), self.aliases_of(inner))

    def join_pair(self, left: PlanNode, right: PlanNode) -> JoinPair:
        """Resolve two annotated inputs for joining, in either orientation."""
        left_aliases = self.aliases_of(left)
        right_aliases = self.aliases_of(right)
        join_predicates = self.connecting_predicates(left_aliases, right_aliases)
        output_rows = self.estimator.join_cardinality(
            left.estimated_cardinality, right.estimated_cardinality, join_predicates
        )
        return JoinPair(
            self._join_input(left, left_aliases, join_predicates),
            self._join_input(right, right_aliases, join_predicates),
            join_predicates,
            output_rows,
        )

    def _join_input(
        self,
        node: PlanNode,
        aliases: FrozenSet[str],
        join_predicates: Tuple[Comparison, ...],
    ) -> JoinInput:
        key = self._join_key_for(aliases, join_predicates)
        known = self._join_inputs.get((id(node), key))
        if known is not None:
            return known
        merge_cost = node.estimated_cost
        if key is not None and node.properties.get("sorted_on") != key:
            merge_cost += self.cost_model.sort_cost(node.estimated_cardinality)
        # Unless its index can be probed, the whole subtree is re-evaluated
        # for every outer row of a nested loop.
        lookup: Optional[Tuple[BoundTable, Index]] = None
        lookup_cost = max(node.estimated_cost, 1e-3)
        if key is not None and node.pop_type.is_scan:
            bound = self.query.table_for_alias(node.table_alias or "")
            index = bound.schema.index_on(key.column)
            if index is not None:
                lookup = (bound, index)
                table_rows = self.estimator.table_cardinality(bound.alias)
                key_stats = self.estimator.column_statistics(key)
                rows_per_lookup = table_rows / max(1, key_stats.n_distinct or 1)
                lookup_cost = self.cost_model.index_lookup_cost(
                    bound.table, index, rows_per_lookup
                )
        resolved = JoinInput(node, aliases, key, merge_cost, lookup, lookup_cost)
        self._join_inputs[(id(node), key)] = resolved
        return resolved

    def price_join(
        self,
        join_type: PopType,
        outer: JoinInput,
        inner: JoinInput,
        output_rows: float,
        bloom_filter: bool = False,
    ) -> float:
        """Cumulative cost of one join over two resolved inputs, nothing built.

        The one place a join's cost is summed: the join enumerator prices a
        pair's candidates through this and ``make_join`` annotates the node it
        builds through this, from inputs resolved by the same ``join_pair``,
        so a priced candidate and the built node carry the same float.  Every
        sum is ``outer' + inner' + operator`` with ``outer'`` and ``inner'``
        no less than the inputs' own costs (a merge input only adds a SORT)
        and ``operator >= 0`` -- the premise of the enumerator's bound.
        """
        outer_node = outer.node
        inner_node = inner.node
        outer_rows = outer_node.estimated_cardinality
        inner_rows = inner_node.estimated_cardinality
        if join_type is PopType.HSJOIN:
            return outer_node.estimated_cost + inner_node.estimated_cost + (
                self.cost_model.hash_join_cost(
                    outer_rows, inner_rows, output_rows, bloom_filter=bloom_filter
                )
            )
        if join_type is PopType.MSJOIN:
            return outer.merge_cost + inner.merge_cost + self.cost_model.merge_join_cost(
                outer_rows, inner_rows, output_rows, outer_sorted=True, inner_sorted=True
            )
        if join_type is PopType.NLJOIN:
            return outer_node.estimated_cost + inner_node.estimated_cost + (
                self.cost_model.nested_loop_join_cost(
                    outer_rows, inner.lookup_cost, output_rows
                )
            )
        raise PlanError(f"{join_type} is not a join operator")

    def join_cost(
        self,
        join_type: PopType,
        outer: PlanNode,
        inner: PlanNode,
        join_predicates: Tuple[Comparison, ...],
        output_rows: float,
        bloom_filter: bool = False,
    ) -> float:
        """:meth:`price_join` for a caller holding the two nodes and what
        connects them, not their resolved inputs."""
        return self.price_join(
            join_type,
            self._join_input(outer, self.aliases_of(outer), join_predicates),
            self._join_input(inner, self.aliases_of(inner), join_predicates),
            output_rows,
            bloom_filter,
        )

    def make_join(
        self,
        join_type: PopType,
        outer: PlanNode,
        inner: PlanNode,
        bloom_filter: bool = False,
        pair: Optional[JoinPair] = None,
    ) -> PlanNode:
        """Build and annotate a join node over two annotated inputs.

        ``pair`` lets a caller that already resolved the two inputs (the join
        enumerator does, once per pair, before pricing its candidates) skip
        resolving them again; it is a pure function of the two subtrees, so
        passing it is an optimization, never a semantic change.
        """
        if pair is None:
            pair = self.join_pair(outer, inner)
        if pair.left.node is outer:
            outer_input, inner_input = pair.left, pair.right
        else:
            outer_input, inner_input = pair.right, pair.left
        estimated_cost = self.price_join(
            join_type, outer_input, inner_input, pair.output_rows, bloom_filter
        )

        if join_type is PopType.MSJOIN:
            outer = self._sorted_for_merge(outer_input)
            inner = self._sorted_for_merge(inner_input)
        elif join_type is PopType.NLJOIN:
            inner = self._nljoin_inner(inner_input)

        node = join(join_type, outer, inner, pair.join_predicates, bloom_filter=bloom_filter)
        node.estimated_cardinality = pair.output_rows
        node.estimated_cost = estimated_cost
        if join_type is PopType.MSJOIN and outer_input.key is not None:
            node.properties["sorted_on"] = outer_input.key
        self._remember_aliases(node, outer_input.aliases | inner_input.aliases)
        return node

    def _sorted_for_merge(self, merge_input: JoinInput) -> PlanNode:
        """The input's node, under a SORT on its merge-join key unless already
        sorted on it."""
        node, key = merge_input.node, merge_input.key
        if key is None or node.properties.get("sorted_on") == key:
            return node
        sort_node = sort(node, key)
        sort_node.estimated_cardinality = node.estimated_cardinality
        sort_node.estimated_cost = merge_input.merge_cost
        sort_node.properties["sorted_on"] = key
        self._remember_aliases(sort_node, merge_input.aliases)
        return sort_node

    def _nljoin_inner(self, inner_input: JoinInput) -> PlanNode:
        """The inner of a nested-loop join: an index lookup when its scan can
        be probed once per outer row, the node itself otherwise."""
        if inner_input.lookup is None:
            return inner_input.node
        inner = inner_input.node
        bound, index = inner_input.lookup
        lookup = index_scan(bound.table, bound.alias, index.name, inner.predicates, fetch=True)
        lookup.estimated_cardinality = inner.estimated_cardinality
        lookup.estimated_cost = inner.estimated_cost
        lookup.properties["nljoin_lookup"] = True
        lookup.properties["sorted_on"] = inner_input.key
        self._remember_aliases(lookup, inner_input.aliases)
        return lookup

    @staticmethod
    def _join_key_for(
        aliases: FrozenSet[str], join_predicates: Tuple[Comparison, ...]
    ) -> Optional[ColumnRef]:
        """The column on the ``aliases`` side participating in the join predicates."""
        for predicate in join_predicates:
            for side in (predicate.left, predicate.right):
                if isinstance(side, ColumnRef) and side.qualifier in aliases:
                    return side
        return None

    # ------------------------------------------------------------------
    # plan tops
    # ------------------------------------------------------------------

    def finish_plan(self, node: PlanNode) -> PlanNode:
        """The plan top over join tree ``node``: the GRPBY / SORT operators the
        query requires under a RETURN that emits the statement's select list
        (``SELECT *`` and aggregates emit whatever reaches RETURN)."""
        result = node
        if self.query.has_aggregation:
            keys = tuple(self.query.group_by)
            aggregates = tuple(
                (item.aggregate, item.column)
                for item in self.query.select_items
                if item.is_aggregate
            )
            groups = max(1.0, result.estimated_cardinality ** 0.5)
            grpby = group_by(result, keys, aggregates)
            grpby.estimated_cardinality = groups
            grpby.estimated_cost = result.estimated_cost + self.cost_model.group_by_cost(
                result.estimated_cardinality, groups
            )
            result = grpby
        if self.query.order_by:
            key = self.query.order_by[0]
            if result.properties.get("sorted_on") != key:
                sort_node = sort(result, key)
                sort_node.estimated_cardinality = result.estimated_cardinality
                sort_node.estimated_cost = result.estimated_cost + self.cost_model.sort_cost(
                    result.estimated_cardinality
                )
                sort_node.properties["sorted_on"] = key
                result = sort_node
        root = PlanNode(
            pop_type=PopType.RETURN,
            inputs=[result],
            estimated_cardinality=result.estimated_cardinality,
            estimated_cost=result.estimated_cost,
        )
        if not (self.query.select_star or self.query.has_aggregation):
            root.properties["output"] = tuple(
                item.column.key for item in self.query.select_items
            )
        return root
