"""Columns on demand: what RETURN emits, and what a memo entry owns.

RETURN projects to the statement's select list in both executors (``SELECT *``
and aggregates emit whatever reaches RETURN); a join's output is position
vectors over its input tables' own columns, and that -- never a column copy --
is what the memo stores.  The row executor is the ``==`` oracle for rows *and*
dict key order; a cold execution (a private, empty memo) is the oracle for a
replayed join.
"""

import numpy as np
import pytest

from repro.engine.executor import ExecutionMemo, Executor, VectorizedExecutor
from repro.engine.executor.memo import TRACE_BYTES_PER_ACCESS
from repro.workloads.tpcds import generate_tpcds_queries

from test_vectorized_executor import MINI_SQLS, assert_identical

JOIN_TAGS = ("HJ", "MJ", "NJ")


def ordered(rows):
    """Rows as item tuples: ``==`` on dicts ignores key order, this does not."""
    return [tuple(row.items()) for row in rows]


def statement_shapes(database, sql):
    """``sql`` as written plus the shapes the pools do not hold: ``SELECT *``,
    a select list against the join order, and ORDER BY a column not selected."""
    query = database.bind(sql)
    body = sql[sql.index(" FROM ") :].split(" GROUP BY ")[0].split(" ORDER BY ")[0]
    first, last = query.tables[0].schema.columns, query.tables[-1].schema.columns
    return [
        sql,
        "SELECT *" + body,
        f"SELECT {last[0].name}, {first[-1].name}, {first[0].name}" + body,
        f"SELECT {first[0].name}, {first[1].name}{body} ORDER BY {last[-1].name}",
    ]


def assert_rows_equal_the_row_engine(database, statements, random_plans=1):
    row_engine = Executor(database.catalog, database.config)
    vec_engine = VectorizedExecutor(database.catalog, database.config)
    memo = ExecutionMemo()
    checked = 0
    for sql in statements:
        for shape in statement_shapes(database, sql):
            plans = [database.explain(shape)] + database.random_plans(shape, random_plans)
            for qgm in plans:
                expected = ordered(row_engine.execute(qgm).rows)
                cold = vec_engine.execute(qgm)
                assert ordered(cold.rows) == expected, shape
                # Filling the memo, then replaying from it.
                assert ordered(vec_engine.execute(qgm, memo=memo).rows) == expected, shape
                assert ordered(vec_engine.execute(qgm, memo=memo).rows) == expected, shape
                output = qgm.root.properties.get("output")
                if output is not None and expected:
                    assert list(dict(expected[0])) == list(dict.fromkeys(output)), shape
                checked += 1
    assert memo.hits > 0
    return checked


class TestSelectListShape:
    def test_mini_statements(self, mini_db):
        assert assert_rows_equal_the_row_engine(mini_db, MINI_SQLS, random_plans=3) >= 40

    def test_return_emits_the_select_list_in_its_order(self, mini_db):
        sql = (
            "SELECT o_state, s_price, i_category FROM sales, item, outlet "
            "WHERE s_item_sk = i_item_sk AND s_outlet_sk = o_outlet_sk AND s_price > 299"
        )
        qgm = mini_db.explain(sql)
        assert qgm.root.properties["output"] == ("OUTLET.o_state", "SALES.s_price", "ITEM.i_category")
        rows = mini_db.execute_plan(qgm).rows
        assert rows and all(list(row) == list(qgm.root.properties["output"]) for row in rows)
        for plan in mini_db.random_plans(sql, 4):
            assert ordered(mini_db.execute_plan(plan).rows)[0][0][0] == "OUTLET.o_state"

    def test_star_and_aggregates_emit_what_reaches_return(self, mini_db):
        star = mini_db.explain("SELECT * FROM sales, outlet WHERE s_outlet_sk = o_outlet_sk")
        assert "output" not in star.root.properties
        assert len(mini_db.execute_plan(star).rows[0]) == 7
        grouped = mini_db.explain(MINI_SQLS[4])
        assert "output" not in grouped.root.properties
        assert list(mini_db.execute_plan(grouped).rows[0]) == [
            "ITEM.i_category",
            "SUM(SALES.s_price)",
        ]

    def test_order_by_reads_a_column_return_drops(self, mini_db):
        sql = "SELECT s_quantity FROM sales WHERE s_price > 295 ORDER BY s_price"
        rows = mini_db.execute_sql(sql).rows
        prices = mini_db.execute_sql(
            "SELECT s_quantity, s_price FROM sales WHERE s_price > 295 ORDER BY s_price"
        ).rows
        assert rows and all(list(row) == ["SALES.s_quantity"] for row in rows)
        assert [row["SALES.s_quantity"] for row in rows] == [
            row["SALES.s_quantity"] for row in prices
        ]
        assert [row["SALES.s_price"] for row in prices] == sorted(
            row["SALES.s_price"] for row in prices
        )

    @pytest.mark.slow
    def test_tpcds_workload_and_generated_pool(self, tiny_tpcds_workload):
        statements = [sql for _, sql in tiny_tpcds_workload.queries[:10]]
        statements += [sql for _, sql in generate_tpcds_queries(14, seed=1042)]
        assert_rows_equal_the_row_engine(tiny_tpcds_workload.database, statements)

    @pytest.mark.slow
    def test_client_workload(self, tiny_client_workload):
        statements = [sql for _, sql in tiny_client_workload.queries[:10]]
        assert_rows_equal_the_row_engine(tiny_client_workload.database, statements)


def join_entries(memo):
    return [(key, entry) for key, entry in memo.entries.items() if key[0] in JOIN_TAGS]


def execute_cold_then_replayed(database, sql, qgm):
    """``qgm`` cold (no memo passed), and again with every subtree replayed."""
    engine = VectorizedExecutor(database.catalog, database.config)
    memo = ExecutionMemo()
    engine.execute(qgm, memo=memo)
    hits = memo.hits
    replayed = engine.execute(qgm, memo=memo)
    # The top join came back as one entry: nothing below it was looked up.
    assert memo.hits == hits + 1, sql
    return engine.execute(qgm), replayed, memo


class TestJoinMemoEntries:
    JOIN_SQLS = [sql for sql in MINI_SQLS if " sales, " in sql]

    def test_a_replayed_join_equals_its_cold_execution(self, mini_db):
        for sql in self.JOIN_SQLS:
            for qgm in [mini_db.explain(sql)] + mini_db.random_plans(sql, 5):
                cold, replayed, _ = execute_cold_then_replayed(mini_db, sql, qgm)
                # Rows, elapsed_ms, per-operator cardinalities and every
                # counter, the pool's logical / physical reads among them.
                assert_identical(cold, replayed, context=sql)
                assert ordered(cold.rows) == ordered(replayed.rows)

    def test_a_join_entry_owns_position_vectors_and_nothing_else(self, mini_db):
        base_columns = {
            id(values): values
            for table in mini_db.tables
            for values in mini_db.catalog.table_data(table).column_arrays().values()
        }
        seen = 0
        for sql in self.JOIN_SQLS:
            for qgm in [mini_db.explain(sql)] + mini_db.random_plans(sql, 5):
                _, _, memo = execute_cold_then_replayed(mini_db, sql, qgm)
                for key, entry in join_entries(memo):
                    seen += 1
                    owned = 0
                    assert 2 <= len(entry.sources) <= len(qgm.root.aliases())
                    for columns, positions in entry.sources:
                        # Every column is a base table's own array ...
                        assert all(id(values) in base_columns for values in columns.values())
                        # ... and the rows are positions into it.
                        assert isinstance(positions, np.ndarray) and positions.ndim == 1
                        assert positions.dtype.kind == "i" and len(positions) == entry.length
                        assert not any(
                            np.shares_memory(positions, array)
                            for values in columns.values()
                            for array in values.arrays()
                            if array is not None
                        )
                        owned += positions.nbytes
                    traced = sum(
                        TRACE_BYTES_PER_ACCESS * len(trace[2])
                        for trace in entry.traces
                        if trace[0] == "rand"
                    )
                    assert entry.estimated_bytes() == 256 + owned + traced
        assert seen >= len(self.JOIN_SQLS)

    def test_what_a_plan_gathers_stays_out_of_the_memo(self, mini_db):
        """A replayed entry hands out a new batch each time: the columns one
        plan read are not kept for, or by, the entry."""
        sql = self.JOIN_SQLS[1]
        engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        memo = ExecutionMemo()
        engine.execute(mini_db.explain(sql), memo=memo).rows
        before = {key: entry.estimated_bytes() for key, entry in memo.entries.items()}
        engine.execute(mini_db.explain(sql), memo=memo).rows
        assert {key: entry.estimated_bytes() for key, entry in memo.entries.items()} == before
        assert memo.entry_bytes == sum(before.values())
        for _, entry in join_entries(memo):
            assert set(vars(entry)) == {
                "sources", "length", "deltas", "traces", "child_cardinalities", "nbytes",
            }
