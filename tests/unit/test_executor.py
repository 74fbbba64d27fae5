"""Unit tests for the executor: correctness across join methods plus runtime metrics."""

import pytest

from repro.engine.executor.bufferpool import BufferPool
from repro.engine.executor.db2batch import Db2Batch
from repro.engine.executor.metrics import RuntimeMetrics
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import PopType, Qgm
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select


def bind_sql(db, sql):
    return bind(parse_select(sql), db.catalog, sql)


def force_join_plan(db, sql, join_type, outer_alias, inner_alias, outer_method="TBSCAN", inner_method="TBSCAN"):
    """Build a specific two-table join plan for correctness comparisons."""
    query = rewrite_query(bind_sql(db, sql))
    builder = PlanBuilder(db.catalog, query)
    outer = builder.forced_access_path(outer_alias, outer_method)
    inner = builder.forced_access_path(inner_alias, inner_method)
    joined = builder.make_join(join_type, outer, inner)
    return Qgm(builder.finish_plan(joined), sql=sql)


TWO_WAY = (
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category"
)


class TestScanExecution:
    def test_table_scan_with_filter(self, mini_db):
        result = mini_db.execute_sql("SELECT i_item_sk FROM item WHERE i_category = 'Jewelry'")
        values = mini_db.catalog.table_data("ITEM").column_values("i_category")
        expected = sum(1 for value in values if value == "Jewelry")
        assert result.row_count == expected

    def test_index_scan_equality(self, mini_db):
        result = mini_db.execute_sql("SELECT s_price FROM sales WHERE s_item_sk = 3")
        values = mini_db.catalog.table_data("SALES").column_values("s_item_sk")
        assert result.row_count == sum(1 for value in values if value == 3)

    def test_range_scan(self, mini_db):
        result = mini_db.execute_sql(
            "SELECT d_year FROM date_dim WHERE d_date_sk BETWEEN 100 AND 199"
        )
        assert result.row_count == 100

    def test_actual_cardinalities_recorded(self, mini_db):
        qgm = mini_db.explain("SELECT i_item_sk FROM item WHERE i_category = 'Jewelry'")
        result = mini_db.execute_plan(qgm)
        assert result.actual_cardinalities[1] == result.row_count
        for node in qgm.nodes():
            assert node.operator_id in result.actual_cardinalities


class TestJoinCorrectness:
    @pytest.fixture(scope="class")
    def reference_rows(self, mini_db):
        qgm = force_join_plan(mini_db, TWO_WAY, PopType.HSJOIN, "SALES", "ITEM")
        return mini_db.execute_plan(qgm).rows

    def test_hsjoin_msjoin_nljoin_agree(self, mini_db, reference_rows):
        for join_type in (PopType.MSJOIN, PopType.NLJOIN):
            qgm = force_join_plan(mini_db, TWO_WAY, join_type, "SALES", "ITEM")
            rows = mini_db.execute_plan(qgm).rows
            assert _count_key(rows) == _count_key(reference_rows)

    def test_join_commutes(self, mini_db, reference_rows):
        qgm = force_join_plan(mini_db, TWO_WAY, PopType.HSJOIN, "ITEM", "SALES")
        rows = mini_db.execute_plan(qgm).rows
        assert _count_key(rows) == _count_key(reference_rows)

    def test_bloom_filter_does_not_change_result(self, mini_db, reference_rows):
        query = rewrite_query(bind_sql(mini_db, TWO_WAY))
        builder = PlanBuilder(mini_db.catalog, query)
        outer = builder.forced_access_path("SALES", "TBSCAN")
        inner = builder.forced_access_path("ITEM", "TBSCAN")
        joined = builder.make_join(PopType.HSJOIN, outer, inner, bloom_filter=True)
        qgm = Qgm(builder.finish_plan(joined), sql=TWO_WAY)
        result = mini_db.execute_plan(qgm)
        assert _count_key(result.rows) == _count_key(reference_rows)
        assert result.metrics.bloom_filtered_rows > 0

    def test_nljoin_index_lookup_agrees(self, mini_db, reference_rows):
        query = rewrite_query(bind_sql(mini_db, TWO_WAY))
        builder = PlanBuilder(mini_db.catalog, query)
        outer = builder.forced_access_path("ITEM", "TBSCAN")
        inner = builder.forced_access_path("SALES", "IXSCAN", "S_ITEM_IDX")
        joined = builder.make_join(PopType.NLJOIN, outer, inner)
        qgm = Qgm(builder.finish_plan(joined), sql=TWO_WAY)
        rows = mini_db.execute_plan(qgm).rows
        assert _count_key(rows) == _count_key(reference_rows)

    def test_three_way_join_matches_optimizer_choice(self, mini_db):
        sql = (
            "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
            "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
            "GROUP BY i_category"
        )
        reference = mini_db.execute_sql(sql)
        for random_plan in mini_db.random_plans(sql, 4):
            rows = mini_db.execute_plan(random_plan).rows
            assert _count_key(rows) == _count_key(reference.rows)


class TestAggregationAndSort:
    def test_count_star_group_by(self, mini_db):
        result = mini_db.execute_sql(
            "SELECT i_category, COUNT(*) FROM item GROUP BY i_category"
        )
        values = mini_db.catalog.table_data("ITEM").column_values("i_category")
        total = sum(row["COUNT(*)"] for row in result.rows)
        assert total == len(values)
        assert result.row_count == len(set(values))

    def test_sum_and_avg(self, mini_db):
        result = mini_db.execute_sql("SELECT o_state, SUM(s_price) FROM sales, outlet WHERE s_outlet_sk = o_outlet_sk GROUP BY o_state")
        assert result.row_count == 4
        assert all(row["SUM(SALES.s_price)"] > 0 for row in result.rows)

    def test_order_by_sorts_output(self, mini_db):
        result = mini_db.execute_sql(
            "SELECT i_category, COUNT(*) FROM item GROUP BY i_category ORDER BY i_category"
        )
        categories = [row["ITEM.i_category"] for row in result.rows]
        assert categories == sorted(categories)

    def test_count_without_group_by(self, mini_db):
        result = mini_db.execute_sql("SELECT COUNT(*) FROM outlet")
        assert result.rows[0]["COUNT(*)"] == 40


class TestRuntimeMetrics:
    def test_elapsed_positive_and_deterministic(self, mini_db):
        first = mini_db.execute_sql(TWO_WAY)
        second = mini_db.execute_sql(TWO_WAY)
        assert first.elapsed_ms > 0
        assert first.elapsed_ms == pytest.approx(second.elapsed_ms)

    def test_table_scan_counts_sequential_pages(self, mini_db):
        result = mini_db.execute_sql("SELECT s_price FROM sales WHERE s_quantity > 100")
        assert result.metrics.sequential_pages >= mini_db.catalog.statistics("SALES").pages

    def test_poorly_clustered_index_floods_buffer_pool(self, mini_db):
        # Full index scan over the poorly clustered item index touches pages
        # nearly at random, so physical reads greatly exceed table pages.
        query = rewrite_query(bind_sql(mini_db, "SELECT s_price FROM sales, item WHERE s_item_sk = i_item_sk"))
        builder = PlanBuilder(mini_db.catalog, query)
        outer = builder.forced_access_path("ITEM", "TBSCAN")
        inner = builder.forced_access_path("SALES", "IXSCAN", "S_ITEM_IDX")
        joined = builder.make_join(PopType.NLJOIN, outer, inner)
        qgm = Qgm(builder.finish_plan(joined), sql="flood")
        result = mini_db.execute_plan(qgm)
        table_pages = mini_db.catalog.statistics("SALES").pages
        assert result.metrics.random_pages > table_pages

    def test_metrics_merge(self):
        a = RuntimeMetrics(rows_processed=5, spill_pages=1, sort_heap_high_water_mark=4)
        b = RuntimeMetrics(rows_processed=7, spill_pages=2, sort_heap_high_water_mark=9)
        a.merge(b)
        assert a.rows_processed == 12
        assert a.spill_pages == 3
        assert a.sort_heap_high_water_mark == 9

    def test_metrics_as_dict_roundtrip(self):
        metrics = RuntimeMetrics(rows_processed=3)
        assert metrics.as_dict()["rows_processed"] == 3


class TestBufferPool:
    def test_hit_and_miss_counting(self):
        pool = BufferPool(capacity_pages=2)
        assert not pool.access("T", 1)
        assert pool.access("T", 1)
        assert pool.physical_reads == 1
        assert pool.logical_reads == 2

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=2)
        pool.access("T", 1)
        pool.access("T", 2)
        pool.access("T", 3)          # evicts page 1
        assert not pool.access("T", 1)

    def test_sequential_access(self):
        pool = BufferPool(capacity_pages=10)
        misses = pool.access_sequential("T", 0, 5)
        assert misses == 5
        assert pool.access_sequential("T", 0, 5) == 0

    def test_array_replay_matches_oracle_counts_and_order(self):
        """An eviction-free trace (>= the vector threshold) replays through
        the array path with the oracle's counters and final LRU order."""
        trace = [page % 17 for page in range(64)]
        pool = BufferPool(capacity_pages=128)
        pool.access("T", 999)  # pre-resident page the trace never touches
        oracle = BufferPool(capacity_pages=128)
        oracle.access("T", 999)
        misses = pool.access_many("T", trace)
        expected = sum(not oracle.access("T", page) for page in trace)
        assert misses == expected == 17
        assert pool.logical_reads == oracle.logical_reads
        assert pool.physical_reads == oracle.physical_reads
        assert list(pool._pages) == list(oracle._pages)
        # The untouched resident stays oldest; touched pages follow in
        # last-occurrence order.
        assert next(iter(pool._pages)) == ("T", 999)

    def test_array_replay_declines_when_eviction_possible(self):
        # More distinct pages than capacity: the per-page loop must run and
        # keep only the LRU tail resident.
        pool = BufferPool(capacity_pages=8)
        assert pool.access_many("T", list(range(64))) == 64
        assert pool.resident_pages == 8
        assert list(pool._pages) == [("T", page) for page in range(56, 64)]

    def test_access_many_handles_unsized_and_untyped_inputs(self):
        pool = BufferPool(capacity_pages=256)
        # A generator has no len(): the loop path absorbs it.
        assert pool.access_many("T", (page for page in range(40))) == 40
        # Beyond-int64 page numbers make an object-dtype array: the array
        # path declines and the loop stays exact.
        huge = [2**100 + page for page in range(40)]
        assert pool.access_many("T", huge) == 40
        assert pool.access_many("T", huge) == 0


class TestDb2Batch:
    def test_samples_are_deterministic_per_plan(self, mini_db):
        qgm = mini_db.explain(TWO_WAY)
        batch = Db2Batch(mini_db.catalog, mini_db.config, runs=5)
        first = batch.benchmark(qgm)
        second = batch.benchmark(mini_db.explain(TWO_WAY))
        assert first.run_elapsed_ms == second.run_elapsed_ms
        assert len(first.run_elapsed_ms) == 5

    def test_noise_centered_on_base(self, mini_db):
        qgm = mini_db.explain(TWO_WAY)
        batch = Db2Batch(mini_db.catalog, mini_db.config, runs=9, interference_probability=0.0)
        measurement = batch.benchmark(qgm)
        assert measurement.median_elapsed_ms == pytest.approx(measurement.base_elapsed_ms, rel=0.25)


def _count_key(rows):
    """Order-independent multiset signature of result rows."""
    from collections import Counter

    return Counter(tuple(sorted(row.items())) for row in rows)
