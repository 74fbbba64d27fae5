"""Unit tests for the cost-based optimizer, rewrite phase, and join enumeration."""

import itertools

import pytest

from bench.config import POPULATION_SEED
from bench.inputs import distinct_pool
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import remap_guideline_document
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.optimizer.builder import PlanBuilder, sargable_column
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.optimizer.guidelines import (
    GuidelineDocument,
    guideline_from_plan,
    parse_guidelines,
)
from repro.engine.optimizer.joinenum import GREEDY_THRESHOLD, JoinEnumerator
from repro.engine.optimizer.optimizer import Optimizer
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import JOIN_TYPES, PopType
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select
from repro.workloads import generate_client_queries, generate_tpcds_queries
from tests.conftest import learn_first_queries
from tests.naive_optimizer import NaiveEnumerator, naive_optimize, plan_rows


def bind_sql(db, sql):
    return bind(parse_select(sql), db.catalog, sql)


THREE_WAY = (
    "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND i_category = 'Jewelry' "
    "GROUP BY i_category"
)


class TestCardinalityEstimator:
    def test_table_cardinality(self, mini_db):
        query = bind_sql(mini_db, "SELECT i_category FROM item")
        estimator = CardinalityEstimator(mini_db.catalog, query)
        assert estimator.table_cardinality("ITEM") == 1200

    def test_scan_cardinality_with_predicate_is_smaller(self, mini_db):
        query = bind_sql(mini_db, "SELECT i_category FROM item WHERE i_category = 'Jewelry'")
        estimator = CardinalityEstimator(mini_db.catalog, query)
        filtered = estimator.scan_cardinality("ITEM", query.predicates_for("ITEM"))
        assert 0 < filtered < 1200

    def test_join_cardinality_uses_max_ndv(self, mini_db):
        query = bind_sql(
            mini_db,
            "SELECT i_category FROM sales, item WHERE s_item_sk = i_item_sk",
        )
        estimator = CardinalityEstimator(mini_db.catalog, query)
        join_card = estimator.join_cardinality(8000, 1200, query.join_predicates)
        # PK-FK join should be roughly the size of the fact side.
        assert 4000 <= join_card <= 16000

    def test_cross_product_cardinality(self, mini_db):
        query = bind_sql(mini_db, "SELECT i_category FROM item")
        estimator = CardinalityEstimator(mini_db.catalog, query)
        assert estimator.join_cardinality(10, 20, []) == pytest.approx(200)

    def test_independence_underestimates_correlated_predicates(self, mini_db):
        # i_class is determined by i_category in the mini database, so the
        # independence assumption must underestimate the conjunction.
        query = bind_sql(
            mini_db,
            "SELECT i_category FROM item WHERE i_category = 'Music' AND i_class = 'class_1'",
        )
        estimator = CardinalityEstimator(mini_db.catalog, query)
        estimate = estimator.scan_cardinality("ITEM", query.predicates_for("ITEM"))
        actual = mini_db.execute_sql(
            "SELECT i_item_sk FROM item WHERE i_category = 'Music' AND i_class = 'class_1'"
        ).row_count
        assert estimate < actual


class TestRewritePhase:
    def test_constant_propagation_across_join(self, mini_db):
        query = bind_sql(
            mini_db,
            "SELECT i_category FROM sales, item WHERE s_item_sk = i_item_sk AND i_item_sk = 17",
        )
        rewritten = rewrite_query(query)
        sales_predicates = [str(p) for p in rewritten.predicates_for("SALES")]
        assert any("s_item_sk = 17" in text.lower() or "S.s_item_sk = 17" in text for text in sales_predicates)

    def test_duplicate_join_predicates_removed(self, mini_db):
        query = bind_sql(
            mini_db,
            "SELECT i_category FROM sales, item "
            "WHERE s_item_sk = i_item_sk AND i_item_sk = s_item_sk",
        )
        rewritten = rewrite_query(query)
        assert len(rewritten.join_predicates) == 1

    def test_join_transitivity_adds_edges(self, mini_db):
        # SALES joins ITEM and OUTLET joins SALES on the same column chain ->
        # no new edge here; use a chain through the same key instead.
        query = bind_sql(
            mini_db,
            "SELECT s_price FROM sales, item, outlet "
            "WHERE s_item_sk = i_item_sk AND s_outlet_sk = o_outlet_sk",
        )
        rewritten = rewrite_query(query)
        # No spurious edges appear for unrelated keys.
        assert len(rewritten.join_predicates) == 2

    def test_original_query_not_mutated(self, mini_db):
        query = bind_sql(
            mini_db,
            "SELECT i_category FROM sales, item WHERE s_item_sk = i_item_sk AND i_item_sk = 3",
        )
        before = len(query.predicates_for("SALES"))
        rewrite_query(query)
        assert len(query.predicates_for("SALES")) == before


class TestPlanBuilder:
    def test_sargable_column_detection(self):
        ref = ColumnRef("I", "i_item_sk")
        assert sargable_column(Comparison("=", ref, Literal(5))) == ref
        assert sargable_column(Comparison("=", Literal(5), ref)) == ref
        assert sargable_column(Comparison("=", ref, ColumnRef("S", "s_item_sk"))) is None

    def test_candidate_access_paths_include_tbscan(self, mini_db):
        query = bind_sql(mini_db, "SELECT s_price FROM sales WHERE s_item_sk = 10")
        builder = PlanBuilder(mini_db.catalog, query)
        candidates = builder.candidate_access_paths("SALES")
        types = {node.pop_type for node in candidates}
        assert PopType.TBSCAN in types
        assert PopType.IXSCAN in types

    def test_best_access_path_annotated(self, mini_db):
        query = bind_sql(mini_db, "SELECT s_price FROM sales WHERE s_item_sk = 10")
        builder = PlanBuilder(mini_db.catalog, query)
        best = builder.best_access_path("SALES")
        assert best.estimated_cost > 0
        assert best.estimated_cardinality > 0

    def test_forced_access_path_ixscan(self, mini_db):
        query = bind_sql(mini_db, "SELECT s_price FROM sales WHERE s_item_sk = 10")
        builder = PlanBuilder(mini_db.catalog, query)
        forced = builder.forced_access_path("SALES", "IXSCAN", "S_ITEM_IDX")
        assert forced.pop_type is PopType.IXSCAN
        assert forced.index_name == "S_ITEM_IDX"

    def test_merge_join_inserts_sorts(self, mini_db):
        query = bind_sql(
            mini_db, "SELECT s_price FROM sales, item WHERE s_item_sk = i_item_sk"
        )
        builder = PlanBuilder(mini_db.catalog, query)
        outer = builder.forced_access_path("SALES", "TBSCAN")
        inner = builder.forced_access_path("ITEM", "TBSCAN")
        msjoin = builder.make_join(PopType.MSJOIN, outer, inner)
        child_types = {child.pop_type for child in msjoin.inputs}
        assert PopType.SORT in child_types

    def test_join_cost_accumulates(self, mini_db):
        query = bind_sql(
            mini_db, "SELECT s_price FROM sales, item WHERE s_item_sk = i_item_sk"
        )
        builder = PlanBuilder(mini_db.catalog, query)
        outer = builder.best_access_path("SALES")
        inner = builder.best_access_path("ITEM")
        joined = builder.make_join(PopType.HSJOIN, outer, inner)
        assert joined.estimated_cost > max(outer.estimated_cost, inner.estimated_cost)


class TestOptimizer:
    def test_plan_covers_all_tables(self, mini_db):
        qgm = mini_db.explain(THREE_WAY)
        assert sorted(qgm.aliases()) == ["DATE_DIM", "ITEM", "SALES"]

    def test_plan_has_return_and_grpby(self, mini_db):
        qgm = mini_db.explain(THREE_WAY)
        types = [node.pop_type for node in qgm.nodes()]
        assert types[0] is PopType.RETURN
        assert PopType.GRPBY in types

    def test_single_table_query(self, mini_db):
        qgm = mini_db.explain("SELECT i_category FROM item WHERE i_category = 'Music'")
        assert qgm.join_count == 0
        assert len(qgm.scans()) == 1

    def test_plan_costs_are_monotone_up_the_tree(self, mini_db):
        qgm = mini_db.explain(THREE_WAY)
        for node in qgm.nodes():
            for child in node.inputs:
                assert node.estimated_cost >= child.estimated_cost * 0.999

    def test_chosen_plan_is_cheapest_among_candidates(self, mini_db):
        qgm = mini_db.explain(THREE_WAY)
        for random_plan in mini_db.random_plans(THREE_WAY, 8):
            assert qgm.total_cost <= random_plan.total_cost * 1.0001

    def test_deterministic_planning(self, mini_db):
        first = mini_db.explain(THREE_WAY)
        second = mini_db.explain(THREE_WAY)
        assert first.shape_signature() == second.shape_signature()
        assert first.aliases() == second.aliases()


# ---------------------------------------------------------------------------
# The builder's alias-set bookkeeping and the enumerator's price-then-build
# are pure savings of work: every plan equals the naive oracle's
# (tests/naive_optimizer.py: walk every alias set, build every candidate)
# node by node.
# ---------------------------------------------------------------------------

#: Twelve leaves -- still past ``GREEDY_THRESHOLD`` with a two-table forced
#: fragment, so the greedy heuristic plans it with and around guidelines (a
#: four-table fragment brings it back under, into the dynamic program).
TWELVE_WAY = (
    "SELECT i_category, s_state, COUNT(*) "
    "FROM store_sales, catalog_sales, web_sales, item, date_dim d1, date_dim d2, "
    "date_dim d3, customer, customer_address, customer_demographics, store, promotion "
    "WHERE ss_item_sk = i_item_sk AND cs_item_sk = i_item_sk AND ws_item_sk = i_item_sk "
    "AND ss_sold_date_sk = d1.d_date_sk AND cs_sold_date_sk = d2.d_date_sk "
    "AND ws_sold_date_sk = d3.d_date_sk AND ss_customer_sk = c_customer_sk "
    "AND c_current_addr_sk = ca_address_sk AND ss_cdemo_sk = cd_demo_sk "
    "AND ss_store_sk = s_store_sk AND ss_promo_sk = p_promo_sk "
    "AND i_category = 'Music' AND d1.d_year = 2001 GROUP BY i_category, s_state"
)
#: Two connected components (sales-item, customer-address) and a lone table.
DISCONNECTED = (
    "SELECT i_category, ca_state, COUNT(*) "
    "FROM store_sales, item, customer, customer_address, promotion "
    "WHERE ss_item_sk = i_item_sk AND c_current_addr_sk = ca_address_sk "
    "AND i_category = 'Books' GROUP BY i_category, ca_state"
)


def guideline_documents(database, sql, plans=2, max_joins=3):
    """Guidelines a knowledge base could recommend for ``sql``.

    A template's guideline is a join-rooted segment of some alternative plan
    with its table labels mapped onto the query's table instances, so the
    segments of the query's own random plans are exactly that population:
    one document per segment, plus one per plan holding all its segments,
    largest first -- they nest, so every later one overlaps an earlier one.
    """
    documents = []
    for plan in database.random_plans(sql, plans):
        elements = [
            guideline_from_plan(segment)
            for segment in reversed(segment_plan(plan, max_joins=max_joins))
        ]
        documents.extend(GuidelineDocument([element]) for element in elements)
        if len(elements) > 1:
            documents.append(GuidelineDocument(elements))
    return documents


def learned_guideline_documents(galo):
    """The guideline of every template ``galo`` learned, its canonical labels
    mapped back onto the table instances of the plan it was learned from."""
    documents = []
    for template in galo.knowledge_base.all_templates():
        aliases = {label: alias for alias, label in template.canonical_labels.items()}
        documents.append(
            (
                frozenset(aliases.values()),
                remap_guideline_document(parse_guidelines(template.guideline_xml), aliases),
            )
        )
    return documents


@pytest.fixture(scope="module")
def tpcds_learned(tiny_tpcds_galo):
    return learned_guideline_documents(tiny_tpcds_galo)


@pytest.fixture(scope="module")
def client_learned(tiny_client_workload):
    return learned_guideline_documents(learn_first_queries(tiny_client_workload))


class ExtensionCount:
    """Join pairs the oracle's search prices against those production's does.

    The greedy loops price the same pairs on both sides, so the difference is
    what the dynamic program skipped: one extension per two-leaf subset, and
    whatever its bound excluded.
    """

    def __init__(self, monkeypatch):
        self.oracle = self.production = self.two_leaf_repeats = 0
        best_join = NaiveEnumerator._best_join
        cheapest_join = JoinEnumerator._cheapest_join
        dynamic_programming = JoinEnumerator._dynamic_programming

        def counting_best_join(enumerator, outer, inner):
            self.oracle += 1
            return best_join(enumerator, outer, inner)

        def counting_cheapest_join(enumerator, left, right):
            self.production += 1
            return cheapest_join(enumerator, left, right)

        def counting_dynamic_programming(enumerator, leaves):
            self.two_leaf_repeats += len(leaves) * (len(leaves) - 1) // 2
            return dynamic_programming(enumerator, leaves)

        monkeypatch.setattr(NaiveEnumerator, "_best_join", counting_best_join)
        monkeypatch.setattr(JoinEnumerator, "_cheapest_join", counting_cheapest_join)
        monkeypatch.setattr(JoinEnumerator, "_dynamic_programming", counting_dynamic_programming)

    @property
    def bounded(self):
        return self.oracle - self.production - self.two_leaf_repeats


class TestEnumeratorDifferential:
    @staticmethod
    def assert_same_plans(database, statements, bloom=False, learned=(), plans=2):
        """Production's plan equals the oracle's, unguided, under every
        guideline drawn from ``plans`` of the statement's own random plans, and
        under every learned guideline naming only table instances it has."""
        optimizer = Optimizer(database.catalog, consider_bloom_filters=bloom)
        guided = forced_by_learned = 0
        for _, sql in statements:
            query = bind_sql(database, sql)
            own = [None] + guideline_documents(database, sql, plans=plans)
            applicable = [doc for aliases, doc in learned if aliases <= set(query.aliases)]
            unguided = None
            for position, document in enumerate(own + applicable):
                expected = naive_optimize(
                    database, query, guidelines=document, consider_bloom_filters=bloom
                )
                actual = plan_rows(optimizer.optimize(query, guidelines=document))
                assert actual == plan_rows(expected), sql
                guided += document is not None
                if document is None:
                    unguided = actual
                forced_by_learned += position >= len(own) and actual != unguided
        # Learned guidelines reached the enumerator as forced fragments.
        assert forced_by_learned > 0 or not learned
        return guided

    def assert_same_plans_skipping_extensions(
        self, database, statements, learned, bloom, monkeypatch
    ):
        count = ExtensionCount(monkeypatch)
        # With bloom filters every pair has two more candidates to build.
        guided = self.assert_same_plans(
            database, statements, bloom=bloom, learned=learned, plans=1 if bloom else 2
        )
        assert guided > len(statements) + len(learned)
        # The bound is exercised, not vacuous.
        assert count.two_leaf_repeats > 0 and count.bounded > 0

    def test_tpcds_workload_and_generated_pool(
        self, tiny_tpcds_workload, tpcds_learned, monkeypatch
    ):
        statements = generate_tpcds_queries(99) + generate_tpcds_queries(60, seed=1042)
        self.assert_same_plans_skipping_extensions(
            tiny_tpcds_workload.database, statements, tpcds_learned, False, monkeypatch
        )

    def test_tpcds_workload_and_generated_pool_with_bloom_filters(
        self, tiny_tpcds_workload, tpcds_learned, monkeypatch
    ):
        statements = generate_tpcds_queries(99) + generate_tpcds_queries(60, seed=1042)
        self.assert_same_plans_skipping_extensions(
            tiny_tpcds_workload.database, statements, tpcds_learned, True, monkeypatch
        )

    def test_statements_served_by_the_benchmark(self, tiny_tpcds_workload, tpcds_learned):
        """``bench``'s serve-distinct pool, unguided and under learned guidelines."""
        database = tiny_tpcds_workload.database
        optimizer = database.optimizer
        for _, sql in distinct_pool(223, POPULATION_SEED):
            query = bind_sql(database, sql)
            for document in [None] + [
                doc for aliases, doc in tpcds_learned if aliases <= set(query.aliases)
            ]:
                assert plan_rows(optimizer.optimize(query, guidelines=document)) == plan_rows(
                    naive_optimize(database, query, guidelines=document)
                ), sql

    def test_client_workload(self, tiny_client_workload, client_learned, monkeypatch):
        self.assert_same_plans_skipping_extensions(
            tiny_client_workload.database, generate_client_queries(116), client_learned,
            False, monkeypatch,
        )

    def test_client_workload_with_bloom_filters(
        self, tiny_client_workload, client_learned, monkeypatch
    ):
        self.assert_same_plans_skipping_extensions(
            tiny_client_workload.database, generate_client_queries(116), client_learned,
            True, monkeypatch,
        )

    def test_bloom_filter_candidates_keep_their_order(self, tiny_tpcds_workload):
        self.assert_same_plans(
            tiny_tpcds_workload.database, generate_tpcds_queries(20), bloom=True
        )

    def test_the_first_of_two_equally_cheap_extensions_wins(self, tiny_tpcds_workload):
        """Both date dimensions extend the other one's join with the fact table
        at exactly the same cost; the one tried first -- D1 as the last leaf --
        is the plan, as it was before any extension went unpriced."""
        database = tiny_tpcds_workload.database
        sql = (
            "SELECT COUNT(*) FROM store_sales, date_dim d1, date_dim d2 "
            "WHERE ss_sold_date_sk = d1.d_date_sk AND ss_sold_date_sk = d2.d_date_sk"
        )
        query = rewrite_query(bind_sql(database, sql))
        assert query.aliases == ["STORE_SALES", "D1", "D2"]
        builder = PlanBuilder(database.catalog, query)
        enumerator = JoinEnumerator(builder, query)
        sales, d1, d2 = (builder.best_access_path(alias) for alias in query.aliases)
        with_d1_last = enumerator._cheapest_join(
            enumerator._build(enumerator._cheapest_join(d2, sales)), d1
        )
        with_d2_last = enumerator._cheapest_join(
            enumerator._build(enumerator._cheapest_join(d1, sales)), d2
        )
        assert with_d1_last.cost == with_d2_last.cost

        plan = database.optimizer.optimize(bind_sql(database, sql))
        assert plan_rows(plan) == plan_rows(naive_optimize(database, bind_sql(database, sql)))
        top = next(node for node in plan.root.walk() if node.is_join)
        assert top.estimated_cost == with_d1_last.cost
        assert sorted(with_d1_last.inner.aliases()) == ["D2", "STORE_SALES"]
        assert [sorted(child.aliases()) for child in top.inputs] == [
            ["D1"], ["D2", "STORE_SALES"],
        ]

    def test_greedy_and_disconnected_join_graphs(self, tiny_tpcds_workload):
        database = tiny_tpcds_workload.database
        assert len(bind_sql(database, TWELVE_WAY).tables) > GREEDY_THRESHOLD + 2
        disconnected = database.explain(DISCONNECTED)
        # The components are stitched with a predicate-less nested loop.
        assert any(
            node.is_join and not node.join_predicates for node in disconnected.nodes()
        )
        self.assert_same_plans(
            database, [("twelve-way", TWELVE_WAY), ("disconnected", DISCONNECTED)]
        )

    def test_overlapping_guidelines_keep_the_first(self, tiny_tpcds_workload):
        database = tiny_tpcds_workload.database
        _, sql = tiny_tpcds_workload.queries[0]
        segments = [
            segment
            for plan in database.random_plans(sql, 4)
            for segment in segment_plan(plan, max_joins=3)
        ]
        first, second = next(
            (a, b)
            for a in segments
            for b in segments
            if a.shape_signature() != b.shape_signature()
            and set(a.aliases()) & set(b.aliases())
        )
        both = GuidelineDocument([guideline_from_plan(first), guideline_from_plan(second)])
        alone = GuidelineDocument([guideline_from_plan(first)])
        query = bind_sql(database, sql)
        assert plan_rows(database.optimizer.optimize(query, guidelines=both)) == plan_rows(
            database.optimizer.optimize(query, guidelines=alone)
        )


# ---------------------------------------------------------------------------
# Price, then build: the oracle really does build every candidate, and a
# priced candidate carries exactly the cost its built node is annotated with.
# ---------------------------------------------------------------------------

#: Six leaves: under ``GREEDY_THRESHOLD``, so the dynamic program plans it.
SIX_WAY = (
    "SELECT i_category, s_state, COUNT(*) "
    "FROM store_sales, item, date_dim, customer, customer_address, store "
    "WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk "
    "AND ss_customer_sk = c_customer_sk AND c_current_addr_sk = ca_address_sk "
    "AND ss_store_sk = s_store_sk AND i_category = 'Music' AND d_year = 2001 "
    "GROUP BY i_category, s_state"
)


def connected_subsets(query):
    """Alias subsets of two or more tables the join graph connects -- the DP
    subsets a left-deep plan exists for (a connected graph always has a
    vertex whose removal leaves it connected)."""
    edges = [predicate.referenced_qualifiers() for predicate in query.join_predicates]
    count = 0
    for size in range(2, len(query.aliases) + 1):
        for subset in itertools.combinations(query.aliases, size):
            reached = {subset[0]}
            grew = True
            while grew:
                grew = False
                for edge in edges:
                    if edge <= set(subset) and edge & reached and not edge <= reached:
                        reached |= edge
                        grew = True
            count += reached == set(subset)
    return count


class TestPriceThenBuild:
    def test_oracle_builds_every_candidate_production_one_per_subset(
        self, tiny_tpcds_workload, monkeypatch
    ):
        database = tiny_tpcds_workload.database
        query = bind_sql(database, SIX_WAY)
        built = []
        make_join = PlanBuilder.make_join

        def counting_make_join(self, *args, **kwargs):
            built.append(args[0])
            return make_join(self, *args, **kwargs)

        joined_pairs = []
        best_join = NaiveEnumerator._best_join

        def counting_best_join(self, outer, inner):
            joined = best_join(self, outer, inner)
            joined_pairs.append(joined is not None)
            return joined

        monkeypatch.setattr(PlanBuilder, "make_join", counting_make_join)
        monkeypatch.setattr(NaiveEnumerator, "_best_join", counting_best_join)

        expected = naive_optimize(database, query)
        naive_builds = len(built)
        del built[:]
        actual = database.optimizer.optimize(query)

        assert plan_rows(actual) == plan_rows(expected)
        assert sum(joined_pairs) > len(query.tables)
        assert naive_builds >= 2 * len(JOIN_TYPES) * sum(joined_pairs)
        assert len(built) == connected_subsets(rewrite_query(query))
        assert len(built) < naive_builds / 10

    @staticmethod
    def reference_cost(builder, node, outer, inner):
        """``node``'s cost summed from the tree ``make_join`` built -- the
        inline arithmetic ``make_join`` annotated with before pricing existed."""
        cost_model = builder.cost_model
        left, right = node.inputs
        for wrapped, original in ((left, outer), (right, inner)):
            if wrapped.pop_type is PopType.SORT and wrapped is not original:
                assert wrapped.estimated_cost == original.estimated_cost + cost_model.sort_cost(
                    original.estimated_cardinality
                )
        if node.pop_type is PopType.MSJOIN:
            operator_cost = cost_model.merge_join_cost(
                left.estimated_cardinality, right.estimated_cardinality,
                node.estimated_cardinality, outer_sorted=True, inner_sorted=True,
            )
        elif node.pop_type is PopType.HSJOIN:
            operator_cost = cost_model.hash_join_cost(
                left.estimated_cardinality, right.estimated_cardinality,
                node.estimated_cardinality,
                bloom_filter=bool(node.properties.get("bloom_filter")),
            )
        else:
            lookup_cost = max(right.estimated_cost, 1e-3)
            if right.properties.get("nljoin_lookup"):
                bound = builder.query.table_for_alias(right.table_alias)
                key = right.properties["sorted_on"]
                key_stats = builder.estimator.column_statistics(key)
                lookup_cost = cost_model.index_lookup_cost(
                    bound.table,
                    bound.schema.index_on(key.column),
                    builder.estimator.table_cardinality(right.table_alias)
                    / max(1, key_stats.n_distinct or 1),
                )
            operator_cost = cost_model.nested_loop_join_cost(
                left.estimated_cardinality, lookup_cost, node.estimated_cardinality
            )
        return left.estimated_cost + right.estimated_cost + operator_cost

    def check_pair(self, builder, outer, inner, seen):
        predicates = builder.join_predicates_between(outer, inner)
        output_rows = builder.estimator.join_cardinality(
            outer.estimated_cardinality, inner.estimated_cardinality, predicates
        )
        assert output_rows == builder.estimator.join_cardinality(
            inner.estimated_cardinality, outer.estimated_cardinality, predicates
        )
        for join_type in JOIN_TYPES:
            for bloom in (False, True):
                priced = builder.join_cost(
                    join_type, outer, inner, predicates, output_rows, bloom_filter=bloom
                )
                node = builder.make_join(join_type, outer, inner, bloom_filter=bloom)
                assert priced == node.estimated_cost
                assert priced == self.reference_cost(builder, node, outer, inner)
                left, right = node.inputs
                if not predicates:
                    seen.add("cross product")
                elif join_type is PopType.MSJOIN:
                    seen.add("merge input sorted" if left is outer else "merge input unsorted")
                elif join_type is PopType.NLJOIN and not inner.is_scan:
                    assert right is inner
                    seen.add("nljoin fragment inner")
                elif join_type is PopType.NLJOIN:
                    looked_up = bool(right.properties.get("nljoin_lookup"))
                    seen.add("nljoin index inner" if looked_up else "nljoin scan inner")

    def assert_pricing_equals_annotation(self, database, statements):
        seen = set()
        for _, sql in statements:
            query = rewrite_query(bind_sql(database, sql))
            builder = PlanBuilder(database.catalog, query)
            paths = {alias: builder.candidate_access_paths(alias) for alias in query.aliases}
            fragments = []
            for a, b in itertools.permutations(query.aliases, 2):
                for outer, inner in itertools.product(paths[a], paths[b]):
                    self.check_pair(builder, outer, inner, seen)
                if builder.join_predicates_between(paths[a][0], paths[b][0]):
                    fragments.append(builder.make_join(PopType.HSJOIN, paths[a][0], paths[b][-1]))
            # Joins as inputs, the way the DP and forced fragments hand them over.
            for fragment in fragments[:4]:
                for alias in query.aliases:
                    if alias not in builder.aliases_of(fragment):
                        self.check_pair(builder, fragment, paths[alias][-1], seen)
                        self.check_pair(builder, paths[alias][-1], fragment, seen)
        return seen

    ALL_CASES = {
        "cross product", "merge input sorted", "merge input unsorted",
        "nljoin fragment inner", "nljoin index inner", "nljoin scan inner",
    }

    def test_pricing_equals_annotation_tpcds(self, tiny_tpcds_workload):
        statements = generate_tpcds_queries(99) + generate_tpcds_queries(60, seed=1042)
        seen = self.assert_pricing_equals_annotation(tiny_tpcds_workload.database, statements)
        assert seen == self.ALL_CASES

    def test_pricing_equals_annotation_client(self, tiny_client_workload):
        seen = self.assert_pricing_equals_annotation(
            tiny_client_workload.database, generate_client_queries(116)
        )
        assert seen == self.ALL_CASES
