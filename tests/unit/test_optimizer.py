"""Unit tests for the cost-based optimizer, rewrite phase, and join enumeration."""

import pytest

from repro.core.matching.segmenter import segment_plan
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.optimizer.builder import PlanBuilder, sargable_column
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.optimizer.guidelines import GuidelineDocument, guideline_from_plan
from repro.engine.optimizer.joinenum import GREEDY_THRESHOLD
from repro.engine.optimizer.optimizer import Optimizer
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import PopType
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select
from repro.workloads import generate_client_queries, generate_tpcds_queries
from tests.naive_optimizer import naive_optimize, plan_rows


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
# The enumerator's alias-set bookkeeping is a pure saving of work: every plan
# equals the naive oracle's (tests/naive_optimizer.py) node by node.
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


class TestEnumeratorDifferential:
    @staticmethod
    def assert_same_plans(database, statements, bloom=False):
        optimizer = Optimizer(database.catalog, database.config, consider_bloom_filters=bloom)
        guided = 0
        for _, sql in statements:
            query = bind_sql(database, sql)
            for document in [None] + guideline_documents(database, sql):
                expected = naive_optimize(
                    database, query, guidelines=document, consider_bloom_filters=bloom
                )
                actual = optimizer.optimize(query, guidelines=document)
                assert plan_rows(actual) == plan_rows(expected), sql
                guided += document is not None
        return guided

    def test_tpcds_workload_and_generated_pool(self, tiny_tpcds_workload):
        database = tiny_tpcds_workload.database
        statements = generate_tpcds_queries(99) + generate_tpcds_queries(60, seed=1042)
        assert self.assert_same_plans(database, statements) > len(statements)

    def test_client_workload(self, tiny_client_workload):
        database = tiny_client_workload.database
        statements = generate_client_queries(116)
        assert self.assert_same_plans(database, statements) > len(statements)

    def test_bloom_filter_candidates_keep_their_order(self, tiny_tpcds_workload):
        self.assert_same_plans(
            tiny_tpcds_workload.database, generate_tpcds_queries(20), bloom=True
        )

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
