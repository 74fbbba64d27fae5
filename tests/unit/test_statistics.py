"""Unit tests for repro.engine.statistics."""

import random

import pytest

from repro.engine import statistics
from repro.engine.columns import ColumnVector
from repro.engine.statistics import (
    ColumnStatistics,
    collect_column_statistics,
    collect_table_statistics,
    join_selectivity,
)
from repro.engine.schema import make_schema
from repro.engine.storage import TableData
from repro.engine.types import DataType
from repro.workloads.workload import load_workload
from tests import naive_statistics
from tests.naive_statistics import assert_equals_value_loop


class TestCollectColumnStatistics:
    def test_basic_counts(self):
        stats = collect_column_statistics("c", [1, 2, 2, 3, None])
        assert stats.n_rows == 5
        assert stats.n_nulls == 1
        assert stats.n_distinct == 3
        assert stats.min_value == 1
        assert stats.max_value == 3

    def test_empty_column(self):
        stats = collect_column_statistics("c", [])
        assert stats.n_rows == 0
        assert stats.selectivity_equals("x") == 0.0

    def test_all_null_column(self):
        stats = collect_column_statistics("c", [None, None])
        assert stats.n_nulls == 2
        assert stats.n_distinct == 0

    def test_frequent_values_sorted_by_count(self):
        values = ["a"] * 10 + ["b"] * 5 + ["c"]
        stats = collect_column_statistics("c", values)
        assert stats.frequent_values[0] == ("a", 10)
        assert stats.frequent_values[1] == ("b", 5)

    def test_histogram_monotone(self):
        stats = collect_column_statistics("c", list(range(1000)))
        assert stats.histogram == sorted(stats.histogram)
        assert stats.histogram[0] == 0
        assert stats.histogram[-1] == 999

    def test_string_column_has_no_histogram(self):
        stats = collect_column_statistics("c", ["x", "y", "z"])
        assert stats.histogram == []
        assert stats.min_value == "x"


class TestSelectivityEstimates:
    def test_equality_on_frequent_value(self):
        values = ["a"] * 90 + ["b"] * 10
        stats = collect_column_statistics("c", values)
        assert stats.selectivity_equals("a") == pytest.approx(0.9)
        assert stats.selectivity_equals("b") == pytest.approx(0.1)

    def test_equality_on_rare_value_uses_uniform_remainder(self):
        values = list(range(1000))
        stats = collect_column_statistics("c", values)
        selectivity = stats.selectivity_equals(1234)  # unseen value
        assert 0 < selectivity <= 0.01

    def test_equality_null(self):
        stats = collect_column_statistics("c", [1, None, None, 2])
        assert stats.selectivity_equals(None) == pytest.approx(0.5)

    def test_range_full_span_is_one(self):
        stats = collect_column_statistics("c", list(range(100)))
        assert stats.selectivity_range(0, 99) == pytest.approx(1.0, abs=0.05)

    def test_range_half_span(self):
        stats = collect_column_statistics("c", list(range(100)))
        half = stats.selectivity_range(0, 49)
        assert 0.35 <= half <= 0.65

    def test_range_open_ended(self):
        stats = collect_column_statistics("c", list(range(100)))
        assert stats.selectivity_range(90, None) <= 0.2
        assert stats.selectivity_range(None, 10) <= 0.2

    def test_range_outside_domain(self):
        stats = collect_column_statistics("c", list(range(100)))
        assert stats.selectivity_range(500, 600) <= 0.02

    def test_range_on_string_column_uses_default(self):
        stats = collect_column_statistics("c", ["a", "b", "c"])
        assert 0 < stats.selectivity_range("a", None) <= 1.0

    def test_selectivity_in_unit_interval(self):
        stats = collect_column_statistics("c", [1] * 5 + [2] * 3 + [None] * 2)
        for value in (1, 2, 3, None):
            assert 0.0 <= stats.selectivity_equals(value) <= 1.0


class TestTableStatistics:
    def test_collect_table_statistics(self):
        schema = make_schema("T", [("a", DataType.INTEGER), ("b", DataType.VARCHAR)])
        data = TableData(schema)
        data.insert_rows([{"a": i, "b": "x"} for i in range(42)])
        stats = collect_table_statistics(schema, data)
        assert stats.cardinality == 42
        assert stats.pages >= 1
        assert stats.column("a").n_distinct == 42
        assert stats.column("b").n_distinct == 1

    def test_unknown_column_returns_defaults(self):
        schema = make_schema("T", [("a", DataType.INTEGER)])
        data = TableData(schema)
        data.insert_rows([{"a": i} for i in range(10)])
        stats = collect_table_statistics(schema, data)
        fallback = stats.column("nonexistent")
        assert fallback.n_rows == 10


def assert_table_equals_value_loop(schema, data, collected=None) -> None:
    collected = collected or collect_table_statistics(schema, data)
    expected = naive_statistics.collect_table_statistics(schema, data)
    assert collected == expected
    for name, column in collected.columns.items():
        assert_equals_value_loop(column, data.column_values(name).tolist())


class TestArrayKernelEqualsValueLoop:
    """RUNSTATS on the typed arrays against ``tests/naive_statistics.py``."""

    @pytest.mark.parametrize("scale", [0.1, 0.2])
    @pytest.mark.parametrize("workload", ["tpcds", "client"])
    def test_every_workload_table_before_and_after_an_append(self, workload, scale):
        """Every column of both populations, as built and after re-inserting
        a 2 % sample of each table's own rows (the benchmark's churn step)."""
        database = load_workload(workload, scale=scale, seed=42, query_count=1).database
        rng = random.Random(7)
        for table in database.tables:
            schema = database.catalog.table_schema(table)
            data = database.catalog.table_data(table)
            assert_table_equals_value_loop(schema, data)
            row_ids = rng.sample(range(data.row_count), max(1, data.row_count // 50))
            database.load_rows(table, list(data.rows(row_ids)))
            assert_table_equals_value_loop(
                schema, data, collected=database.catalog.statistics(table)
            )

    def test_only_object_columns_take_the_value_loop(self, monkeypatch):
        """The differential above is not vacuous: on the pinned population the
        loop runs for the VARCHAR columns and for nothing else."""
        database = load_workload("tpcds", scale=0.1, seed=42, query_count=1).database
        looped = []
        value_loop = statistics._collect_from_values

        def recording(column, values):
            looped.append(column)
            return value_loop(column, values)

        monkeypatch.setattr(statistics, "_collect_from_values", recording)
        expected = []
        for table in database.tables:
            schema = database.catalog.table_schema(table)
            collect_table_statistics(schema, database.catalog.table_data(table))
            expected += [
                column.name
                for column in schema.columns
                if column.data_type is DataType.VARCHAR
            ]
        assert expected and looped == expected

    @pytest.mark.parametrize(
        "data_type, values",
        [
            (DataType.INTEGER, []),
            (DataType.INTEGER, [None, None]),
            (DataType.INTEGER, [5]),
            (DataType.INTEGER, [3, None, -7, 3, -7, -7, None]),
            # Fourteen values tied at the tenth-largest count: text order of
            # the values, not numeric order, decides which ten are kept.
            (DataType.INTEGER, [9, 9, 9] + list(range(95, 109)) * 2 + [1]),
            (DataType.DATE, [18000 + day % 25 for day in range(200)]),
            (DataType.INTEGER, [2 ** 53 + 1, 2 ** 53 + 3, -(2 ** 53) - 1]),
            (DataType.INTEGER, [2 ** 63 - 1, -(2 ** 63), 2 ** 53 + 1]),
            (DataType.INTEGER, [1, 2 ** 63, 2, 2]),  # beyond int64: object array
            (DataType.INTEGER, [True, 2, False, 1]),  # bools are not ints
            (DataType.DECIMAL, [0.0, -0.0, 1.5, -0.0]),
            (DataType.DECIMAL, [-0.0, 0.0, -1.5, 0.0, None]),
            (DataType.DECIMAL, [-0.0, -0.0]),
            (DataType.DECIMAL, [1.5, float("nan"), 1.5, float("nan")]),
            (DataType.DECIMAL, [float("inf"), -float("inf"), 1e308, 5e-324]),
            (DataType.DECIMAL, [1, 2, 2, 3.0]),  # Python ints stay ints
            (DataType.DECIMAL, [2 ** 53 + 1, 1.0]),
            (DataType.VARCHAR, ["b", None, "a", "b"]),
            (DataType.VARCHAR, ["10", 9, "9"]),
        ],
    )
    def test_named_edge_cases(self, data_type, values):
        column = ColumnVector(data_type, values)
        assert_equals_value_loop(collect_column_statistics("c", column), values)
        column.extend(values[:3])
        assert_equals_value_loop(
            collect_column_statistics("c", column), values + values[:3]
        )


class TestJoinSelectivity:
    def test_uses_larger_ndv(self):
        left = ColumnStatistics(column="l", n_rows=100, n_distinct=10)
        right = ColumnStatistics(column="r", n_rows=1000, n_distinct=100)
        assert join_selectivity(left, right) == pytest.approx(1 / 100)

    def test_handles_zero_ndv(self):
        left = ColumnStatistics(column="l", n_rows=0, n_distinct=0)
        right = ColumnStatistics(column="r", n_rows=0, n_distinct=0)
        assert join_selectivity(left, right) == pytest.approx(1.0)
