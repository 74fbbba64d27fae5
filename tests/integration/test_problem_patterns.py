"""Integration tests: the paper's motivating problem patterns arise and are fixed.

These correspond to the paper's Figures 1, 4, 7 and 8 -- join-method/join-order
problems, index-scan flooding repaired by hash joins (optionally with bloom
filters), table-scan vs index-scan cost-model issues, and the date-dimension
join whose cardinality the optimizer badly over-estimates.
"""

import pytest

pytestmark = pytest.mark.slow

from repro.core.planutils import join_tree_root
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import PopType, Qgm
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select


def bind_sql(db, sql):
    return bind(parse_select(sql), db.catalog, sql)


class TestEstimationErrorsExist:
    """The optimizer's estimates diverge from reality on the skewed data."""

    def test_date_join_cardinality_overestimated(self, tiny_tpcds_workload):
        # Figure 8: DATE_DIM spans 20 years but sales cluster in the last one,
        # so the containment assumption over-estimates the join cardinality for
        # queries restricted to old years.
        db = tiny_tpcds_workload.database
        sql = (
            "SELECT d_year, COUNT(*) FROM store_sales, date_dim "
            "WHERE ss_sold_date_sk = d_date_sk AND d_year <= 2005 GROUP BY d_year"
        )
        qgm = db.explain(sql)
        result = db.execute_plan(qgm)
        join_node = join_tree_root(qgm)
        actual = result.actual_cardinalities[join_node.operator_id]
        # Estimated at least 5x the actual (the actual is near zero).
        assert join_node.estimated_cardinality > 5 * max(1, actual)

    def test_correlated_item_predicates_underestimated(self, tiny_tpcds_workload):
        db = tiny_tpcds_workload.database
        sql = (
            "SELECT i_brand FROM item "
            "WHERE i_category = 'Jewelry' AND i_class = 'jewelry_class_1'"
        )
        qgm = db.explain(sql)
        result = db.execute_plan(qgm)
        scan = qgm.scans()[0]
        assert scan.estimated_cardinality < result.row_count


class TestProblemPatternRewrites:
    """A competing plan beats the optimizer's pick, and a guideline captures it."""

    def _optimizer_vs_best_random(self, db, sql, random_plans=8):
        optimizer_qgm = db.explain(sql)
        optimizer_elapsed = db.execute_plan(optimizer_qgm).elapsed_ms
        best_qgm, best_elapsed = optimizer_qgm, optimizer_elapsed
        for plan in db.random_plans(sql, random_plans):
            elapsed = db.execute_plan(plan).elapsed_ms
            if elapsed < best_elapsed:
                best_qgm, best_elapsed = plan, elapsed
        return optimizer_qgm, optimizer_elapsed, best_qgm, best_elapsed

    def test_random_plan_generator_finds_better_plan(self, mini_db):
        sql = (
            "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
            "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND i_category = 'Jewelry' "
            "GROUP BY i_category"
        )
        optimizer_qgm, optimizer_elapsed, best_qgm, best_elapsed = self._optimizer_vs_best_random(
            mini_db, sql
        )
        assert best_elapsed < optimizer_elapsed
        assert best_qgm is not optimizer_qgm

    def test_bloom_filter_hash_join_beats_plain_hash_join(self, mini_db):
        # Figure 4 flavour: the bloom filter skips probes for outer rows that
        # cannot match, which pays off when the join is selective.
        sql = (
            "SELECT i_class FROM sales, item "
            "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' AND i_class = 'class_2'"
        )
        query = rewrite_query(bind_sql(mini_db, sql))
        builder = PlanBuilder(mini_db.catalog, query)

        def hash_plan(bloom):
            outer = builder.forced_access_path("SALES", "TBSCAN")
            inner = builder.forced_access_path("ITEM", "TBSCAN")
            joined = builder.make_join(PopType.HSJOIN, outer, inner, bloom_filter=bloom)
            return Qgm(builder.finish_plan(joined), sql=sql)

        plain = mini_db.execute_plan(hash_plan(False))
        bloom = mini_db.execute_plan(hash_plan(True))
        assert bloom.metrics.bloom_filtered_rows > 0
        assert bloom.elapsed_ms < plain.elapsed_ms

    def test_flooding_nljoin_loses_to_hash_join(self, mini_db):
        # Figure 1 / Figure 4 flavour: an NLJOIN driving a poorly clustered
        # index floods the buffer pool; the hash join with table scans wins.
        sql = "SELECT i_class FROM sales, item WHERE s_item_sk = i_item_sk"
        query = rewrite_query(bind_sql(mini_db, sql))
        builder = PlanBuilder(mini_db.catalog, query)

        outer = builder.forced_access_path("ITEM", "TBSCAN")
        inner = builder.forced_access_path("SALES", "IXSCAN", "S_ITEM_IDX")
        nljoin = Qgm(builder.finish_plan(builder.make_join(PopType.NLJOIN, outer, inner)), sql=sql)

        outer2 = builder.forced_access_path("SALES", "TBSCAN")
        inner2 = builder.forced_access_path("ITEM", "TBSCAN")
        hsjoin = Qgm(builder.finish_plan(builder.make_join(PopType.HSJOIN, outer2, inner2)), sql=sql)

        nljoin_run = mini_db.execute_plan(nljoin)
        hsjoin_run = mini_db.execute_plan(hsjoin)
        assert hsjoin_run.elapsed_ms < nljoin_run.elapsed_ms
        assert nljoin_run.metrics.random_pages > hsjoin_run.metrics.random_pages

    def test_guideline_reproduces_discovered_fix(self, mini_db):
        """The winning plan can be expressed as a guideline and re-optimized into."""
        from repro.engine.optimizer.guidelines import GuidelineDocument, guideline_from_plan

        sql = (
            "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
            "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND i_category = 'Jewelry' "
            "GROUP BY i_category"
        )
        _, optimizer_elapsed, best_qgm, best_elapsed = self._optimizer_vs_best_random(mini_db, sql)
        document = GuidelineDocument(elements=[guideline_from_plan(best_qgm.root)])
        guided = mini_db.explain(sql, guidelines=document)
        guided_elapsed = mini_db.execute_plan(guided).elapsed_ms
        assert guided_elapsed <= optimizer_elapsed * 1.05
