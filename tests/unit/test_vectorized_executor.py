"""Differential tests: vectorized batch executor vs the row-at-a-time oracle.

The vectorized engine's contract is *bit-identical* execution: result rows
(values and dict key order), simulated ``elapsed_ms``, per-operator actual
cardinalities, and every runtime metric counter must match the legacy row
engine for any plan -- with and without the shared-subplan memo.  These tests
drive both engines over optimizer-chosen and randomized plans (mini star
schema here; scaled TPC-DS + client workloads in the slow tier) and assert
full equality.
"""

import numpy as np
import pytest

from repro.engine.config import DbConfig
from repro.engine.database import Database
from repro.engine.executor import (
    Batch,
    ExecutionMemo,
    Executor,
    VectorizedExecutor,
    make_executor,
)
from repro.engine.executor.metrics import RUN_RAND_PAGE_COST
from repro.engine.expressions import ColumnRef, Comparison, Literal
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import (
    PopType,
    Qgm,
    group_by,
    index_scan,
    join,
    sort,
    table_scan,
)
from repro.engine.schema import Index, make_schema
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select
from repro.engine.types import DataType
from repro.errors import PlanBudgetExceeded, PlanError

MINI_SQLS = [
    "SELECT i_item_sk FROM item WHERE i_category = 'Jewelry'",
    "SELECT s_price FROM sales WHERE s_item_sk = 3",
    "SELECT d_year FROM date_dim WHERE d_date_sk BETWEEN 100 AND 199",
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
    "GROUP BY i_category",
    "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
    "AND i_category = 'Music' AND o_state = 'CA' GROUP BY i_category, o_state",
    "SELECT i_class, COUNT(*) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk "
    "AND d_date BETWEEN 12500 AND 12600 GROUP BY i_class",
    "SELECT i_category, COUNT(*) FROM item GROUP BY i_category ORDER BY i_category",
    "SELECT COUNT(*) FROM outlet",
    "SELECT o_state, AVG(s_price) FROM sales, outlet "
    "WHERE s_outlet_sk = o_outlet_sk GROUP BY o_state",
]


def assert_identical(reference, candidate, context=""):
    """Full ExecutionResult equality: rows (with key order and value types),
    elapsed, cardinalities, metrics."""
    assert candidate.rows == reference.rows, f"rows differ: {context}"
    assert [[(key, type(value)) for key, value in row.items()] for row in candidate.rows] == [
        [(key, type(value)) for key, value in row.items()] for row in reference.rows
    ], f"row keys or value types differ: {context}"
    assert candidate.elapsed_ms == reference.elapsed_ms, f"elapsed differs: {context}"
    assert (
        candidate.actual_cardinalities == reference.actual_cardinalities
    ), f"cardinalities differ: {context}"
    assert (
        candidate.metrics.as_dict() == reference.metrics.as_dict()
    ), f"metrics differ: {context}"


def run_differential(db, sqls, random_plans_per_query, memo=None):
    """Execute optimizer + random plans through both engines; assert equality."""
    row_engine = Executor(db.catalog, db.config)
    vec_engine = VectorizedExecutor(db.catalog, db.config)
    plans_checked = 0
    for sql in sqls:
        plans = [db.explain(sql)]
        plans += db.random_plans(sql, random_plans_per_query)
        for qgm in plans:
            reference = row_engine.execute(qgm)
            candidate = vec_engine.execute(qgm, memo=memo)
            assert_identical(reference, candidate, context=sql)
            plans_checked += 1
    return plans_checked


class TestMiniDifferential:
    def test_optimizer_and_random_plans_identical(self, mini_db):
        checked = run_differential(mini_db, MINI_SQLS, random_plans_per_query=6)
        assert checked >= len(MINI_SQLS)

    def test_memoized_execution_identical_and_hits(self, mini_db):
        memo = ExecutionMemo()
        run_differential(mini_db, MINI_SQLS, random_plans_per_query=6, memo=memo)
        # The candidate plan set re-scans the same tables: the memo must
        # actually share subtrees, not just stay out of the way.
        assert memo.hits > 0
        assert memo.stats()["entries"] > 0

    def test_records_every_plan_node(self, mini_db):
        qgm = mini_db.explain(MINI_SQLS[3])
        result = VectorizedExecutor(mini_db.catalog, mini_db.config).execute(qgm)
        for node in qgm.nodes():
            assert node.operator_id in result.actual_cardinalities
        assert result.actual_cardinalities[1] == result.row_count

    def test_memo_hit_annotates_skipped_subtrees(self, mini_db):
        memo = ExecutionMemo()
        engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        first = mini_db.explain(MINI_SQLS[4])
        engine.execute(first, memo=memo)
        second = mini_db.explain(MINI_SQLS[4])
        result = engine.execute(second, memo=memo)
        assert memo.hits > 0
        for node in second.nodes():
            assert node.operator_id in result.actual_cardinalities
        reference = Executor(mini_db.catalog, mini_db.config).execute(
            mini_db.explain(MINI_SQLS[4])
        )
        assert_identical(reference, result)


# ---------------------------------------------------------------------------
# Index-lookup nested-loop join: one whole-column probe of the index form vs
# the row engine's lookup per outer row.  Hand-built plans reach the cases the
# optimizer rarely or never produces.
# ---------------------------------------------------------------------------


def _lookup_join_db(pool_pages=3):
    db = Database(DbConfig(buffer_pool_pages=pool_pages))
    db.create_table(
        make_schema(
            "PROBE",
            [
                ("p_id", DataType.INTEGER),
                ("p_key", DataType.INTEGER),
                ("p_nkey", DataType.INTEGER),
                ("p_fkey", DataType.DECIMAL),
                ("p_tag", DataType.INTEGER),
            ],
        )
    )
    db.create_table(
        make_schema(
            "BUILD",
            [
                ("b_key", DataType.INTEGER),
                ("b_tag", DataType.INTEGER),
                ("b_label", DataType.VARCHAR),
                ("b_val", DataType.INTEGER),
            ],
            [
                Index("B_KEY", "BUILD", "b_key", cluster_ratio=0.2),
                Index("B_TAG", "BUILD", "b_tag", cluster_ratio=0.2),
            ],
        )
    )
    # Outer keys repeat (i % 40), miss the index (>= 30 has no BUILD row) and,
    # in p_nkey, are NULL every seventh row; p_fkey holds the same keys as
    # floats plus halves no integer equals.
    db.load_rows(
        "PROBE",
        [
            {
                "p_id": i,
                "p_key": i % 40,
                "p_nkey": None if i % 7 == 0 else (i * 3) % 40,
                "p_fkey": (i % 40) / 2,
                "p_tag": i % 3,
            }
            for i in range(120)
        ],
    )
    # Scattered duplicates: key k sits on rows k, k + 30, ...; NULL keys and
    # NULL tags are in the table and must never match a non-NULL probe.
    db.load_rows(
        "BUILD",
        [
            {
                "b_key": None if i % 50 == 49 else i % 30,
                "b_tag": None if i % 11 == 0 else i % 3,
                "b_label": ["x", "y", None][i % 3],
                "b_val": (i * 37) % 900,
            }
            for i in range(900)
        ],
    )
    return db


def _lookup_join(outer_key, inner_key="b_key", index="B_KEY", extra=(), inner_predicates=(),
                 outer_predicates=()):
    lookup = index_scan("BUILD", "b", index, tuple(inner_predicates))
    lookup.properties["nljoin_lookup"] = True
    predicates = [Comparison("=", ColumnRef("p", outer_key), ColumnRef("b", inner_key))]
    predicates += [
        Comparison("=", ColumnRef("p", left), ColumnRef("b", right)) for left, right in extra
    ]
    outer = table_scan("PROBE", "p", tuple(outer_predicates))
    return Qgm(join(PopType.NLJOIN, outer, lookup, tuple(predicates)))


LOOKUP_JOINS = {
    "duplicated and absent outer keys": dict(outer_key="p_key"),
    "NULL-bearing outer key": dict(outer_key="p_nkey"),
    "residual second equi-key": dict(outer_key="p_key", extra=[("p_tag", "b_tag")]),
    "residual key with NULLs on both sides": dict(
        outer_key="p_key", extra=[("p_nkey", "b_tag")]
    ),
    "vectorizable inner predicate": dict(
        outer_key="p_key",
        inner_predicates=[Comparison(">=", ColumnRef("b", "b_val"), Literal(200))],
    ),
    "non-vectorizable inner predicate": dict(
        outer_key="p_nkey",
        inner_predicates=[
            Comparison("=", ColumnRef("b", "b_label"), Literal("x")),
            Comparison("<", ColumnRef("b", "b_val"), Literal(700)),
        ],
    ),
    "join key is not the index's column": dict(
        outer_key="p_key", index="B_TAG", extra=[("p_tag", "b_tag")]
    ),
    "join key has no index at all": dict(
        outer_key="p_key", inner_key="b_val", index="B_TAG"
    ),
    "float probe over integer keys": dict(outer_key="p_fkey"),
    "no outer row": dict(
        outer_key="p_key",
        outer_predicates=[Comparison("<", ColumnRef("p", "p_id"), Literal(0))],
    ),
    "no match": dict(
        outer_key="p_key",
        outer_predicates=[Comparison(">=", ColumnRef("p", "p_key"), Literal(30))],
    ),
}


class TestIndexLookupJoin:
    @pytest.mark.parametrize("pool_pages", [3, 64])
    @pytest.mark.parametrize("case", sorted(LOOKUP_JOINS))
    def test_equals_row_engine_cold_and_memoized(self, case, pool_pages):
        """Three pool pages under the inner's six: the join's trace evicts
        (per-page loop); sixty-four: it cannot (summary replay)."""
        db = _lookup_join_db(pool_pages)
        qgm = _lookup_join(**LOOKUP_JOINS[case])
        reference = Executor(db.catalog, db.config).execute(qgm)
        engine = VectorizedExecutor(db.catalog, db.config)
        assert_identical(reference, engine.execute(qgm), context=case)
        memo = ExecutionMemo()
        assert_identical(reference, engine.execute(qgm, memo=memo), context=case)
        hits = memo.hits
        assert_identical(reference, engine.execute(qgm, memo=memo), context=case)
        assert memo.hits == hits + 1, "the second run is one hit on the join's entry"
        if case not in ("no outer row", "no match"):
            assert reference.row_count > 0
            assert (reference.metrics.random_pages > 6) == (pool_pages == 3)

    def test_join_trace_is_shared_with_the_entries_composed_from_it(self):
        """A join above the lookup join copies its traces by reference: the
        page array and its summary exist once."""
        db = _lookup_join_db()
        below = _lookup_join("p_key").root.inputs[0]
        above = join(
            PopType.HSJOIN,
            below,
            table_scan("PROBE", "q"),
            (Comparison("=", ColumnRef("p", "p_id"), ColumnRef("q", "p_id")),),
        )
        memo = ExecutionMemo()
        VectorizedExecutor(db.catalog, db.config).execute(Qgm(above), memo=memo)
        traces = [
            trace[2]
            for key, entry in memo.entries.items()
            if key[0] in ("NJ", "HJ")
            for trace in entry.traces
            if trace[0] == "rand"
        ]
        assert len(traces) == 2 and traces[0] is traces[1]

    def test_budget_stops_the_join_before_the_first_probe(self):
        """The lookups are charged, and the budget checked, before any is
        made: both engines stop at the same simulated time -- the outer scan
        plus the lookups, no inner row processed -- and the memo holds the
        outer scan's entry and none for the join."""
        db = _lookup_join_db()
        qgm = _lookup_join("p_key")
        row_engine = Executor(db.catalog, db.config)
        outer_ms = row_engine.execute(Qgm(table_scan("PROBE", "p"))).elapsed_ms
        lookups_ms = 120 * RUN_RAND_PAGE_COST * 0.05
        budget_ms = outer_ms + lookups_ms / 2
        assert row_engine.execute(qgm).elapsed_ms > outer_ms + lookups_ms
        memo = ExecutionMemo()
        stops = []
        for execute in (
            lambda plan: row_engine.execute(plan, budget_ms=budget_ms),
            lambda plan: VectorizedExecutor(db.catalog, db.config).execute(
                plan, memo=memo, budget_ms=budget_ms
            ),
        ):
            with pytest.raises(PlanBudgetExceeded) as stopped:
                execute(qgm)
            stops.append(stopped.value.elapsed_ms)
        assert stops[0] == stops[1] == pytest.approx(outer_ms + lookups_ms)
        assert [key[0] for key in memo.entries] == ["TB"]


# ---------------------------------------------------------------------------
# Group-by differential: every aggregate over typed, NULL-bearing, string and
# empty inputs, row engine vs vectorized, cold and memoized.
# ---------------------------------------------------------------------------

GROUPBY_SQLS = [
    "SELECT g_kind, COUNT(*) FROM gfact GROUP BY g_kind",
    "SELECT g_kind, SUM(g_dval), AVG(g_dval), MIN(g_dval), MAX(g_dval) "
    "FROM gfact GROUP BY g_kind",
    # DECIMAL SUM/AVG: float accumulation order is part of the contract.
    "SELECT g_kind, SUM(g_price), AVG(g_price) FROM gfact GROUP BY g_kind",
    # NULL-bearing aggregate input: COUNT skips NULLs, SUM ignores them.
    "SELECT g_kind, COUNT(g_val), SUM(g_val) FROM gfact GROUP BY g_kind",
    # String key with a NULL group.
    "SELECT g_code, COUNT(*) FROM gfact GROUP BY g_code",
    # NULL-bearing numeric key.
    "SELECT g_nkey, AVG(g_dval) FROM gfact GROUP BY g_nkey",
    # Multi-key: all-numeric and mixed numeric/string.
    "SELECT g_kind, g_flag, SUM(g_dval) FROM gfact GROUP BY g_kind, g_flag",
    "SELECT g_kind, g_code, SUM(g_dval) FROM gfact GROUP BY g_kind, g_code",
    "SELECT g_kind, COUNT(*) FROM gfact GROUP BY g_kind ORDER BY g_kind",
    # Scalar aggregates (no grouping keys).
    "SELECT COUNT(*), SUM(g_price), MIN(g_dval) FROM gfact",
    # Empty input: grouped -> no rows; scalar -> one row of NULL/zero.
    "SELECT g_kind, AVG(g_price) FROM gempty GROUP BY g_kind",
    "SELECT COUNT(*), SUM(g_price) FROM gempty",
]

def build_groupby_database() -> Database:
    """One fact table covering every kernel path plus an empty table."""
    db = Database()
    db.create_table(
        make_schema(
            "GFACT",
            [
                ("g_id", DataType.INTEGER),
                ("g_kind", DataType.INTEGER),
                ("g_flag", DataType.INTEGER),
                ("g_code", DataType.VARCHAR),
                ("g_nkey", DataType.INTEGER),
                ("g_val", DataType.INTEGER),
                ("g_dval", DataType.INTEGER),
                ("g_price", DataType.DECIMAL),
            ],
            [Index("G_PK", "GFACT", "g_id", unique=True)],
        )
    )
    codes = ["aa", "bb", None, "cc"]
    db.load_rows(
        "GFACT",
        [
            {
                "g_id": i,
                "g_kind": (i * 7) % 6,
                "g_flag": (i * 3) % 4,
                "g_code": codes[i % len(codes)],
                "g_nkey": None if i % 9 == 4 else i % 5,
                "g_val": None if i % 6 == 2 else (i * 37) % 100,
                "g_dval": (i * 17) % 50,
                "g_price": round((i * 13) % 97 + 0.25, 2),
            }
            for i in range(400)
        ],
    )
    db.create_table(
        make_schema(
            "GEMPTY",
            [("g_kind", DataType.INTEGER), ("g_price", DataType.DECIMAL)],
            [],
        )
    )
    return db


class TestGroupByDifferential:
    def test_cold_plans_identical(self):
        db = build_groupby_database()
        checked = run_differential(db, GROUPBY_SQLS, random_plans_per_query=3)
        assert checked >= len(GROUPBY_SQLS)

    def test_memoized_plans_identical(self):
        db = build_groupby_database()
        memo = ExecutionMemo()
        run_differential(db, GROUPBY_SQLS, random_plans_per_query=3, memo=memo)
        assert memo.hits > 0


class TestMergeJoinInputs:
    """A null-free and a NULL-bearing merge key over forced table scans: the
    NULL run drains as the row engine's loop drains it."""

    SQLS = {
        "null-free": "SELECT g_id, d_name FROM gfact, gdim WHERE g_kind = d_key",
        "NULL-bearing": "SELECT g_id, d_name FROM gfact, gdim WHERE g_nkey = d_key",
    }

    @staticmethod
    def _merge_plan(db, sql):
        query = rewrite_query(bind(parse_select(sql), db.catalog, sql))
        builder = PlanBuilder(db.catalog, query)
        joined = builder.make_join(
            PopType.MSJOIN,
            builder.forced_access_path("GFACT", "TBSCAN"),
            builder.forced_access_path("GDIM", "TBSCAN"),
        )
        return Qgm(builder.finish_plan(joined), sql=sql)

    def test_match_row_engine(self):
        db = build_groupby_database()
        db.create_table(
            make_schema(
                "GDIM", [("d_key", DataType.INTEGER), ("d_name", DataType.VARCHAR)], []
            )
        )
        db.load_rows("GDIM", [{"d_key": i % 4, "d_name": f"n{i}"} for i in range(7)])
        row_engine = Executor(db.catalog, db.config)
        vec_engine = VectorizedExecutor(db.catalog, db.config)
        for route, sql in self.SQLS.items():
            reference = row_engine.execute(self._merge_plan(db, sql))
            assert reference.row_count > 0
            for memo in (None, ExecutionMemo()):
                candidate = vec_engine.execute(self._merge_plan(db, sql), memo=memo)
                assert_identical(reference, candidate, context=route)


# ---------------------------------------------------------------------------
# Key pool: every key type through every keyed operator.  Joins, SORT and
# GROUP BY all read one grouping (``KeyGroups``), each with its own NULL rule;
# each must equal the row engine cold, memoized, and on a memo hit.
# ---------------------------------------------------------------------------

BIG = 2**70

#: Key columns of both pool tables: VARCHAR with '' and NULL, NULL-bearing
#: INTEGER, INTEGER with NULLs in KL only (``h``: both tables' largest key is
#: 4; ``t``: KL's is 4, KR's 7), INTEGER beyond int64 (an ``object`` column,
#: NULLs included), and the two halves of a two-column key (the second one
#: VARCHAR with NULLs).  KR's row ``i`` holds KL's values for ``3 * i``.
POOL_COLUMNS = {
    "s": (DataType.VARCHAR, lambda i: ["b", "", "a", None, "c", "a", "", "d"][i % 8]),
    "n": (DataType.INTEGER, lambda i: None if i % 5 == 0 else (i * 7) % 9),
    "h": (DataType.INTEGER, lambda i: None if i % 3 == 1 else (i // 3) % 5),
    "t": (DataType.INTEGER, lambda i: None if i % 3 == 1 else (i // 12) % 8),
    "big": (DataType.INTEGER, lambda i: None if i % 6 == 1 else (i % 3) * BIG + i % 4),
    "a": (DataType.INTEGER, lambda i: i % 4),
    "b": (DataType.VARCHAR, lambda i: ["x", "", None][i % 3]),
}


def build_key_pool_database() -> Database:
    db = Database(DbConfig(buffer_pool_pages=4))
    for table, prefix, count, stride in (("KL", "l", 60, 1), ("KR", "r", 45, 3)):
        indexes = [
            Index(f"{prefix.upper()}_{name.upper()}", table, f"{prefix}_{name}", cluster_ratio=0.3)
            for name in POOL_COLUMNS
        ]
        db.create_table(
            make_schema(
                table,
                [(f"{prefix}_id", DataType.INTEGER), (f"{prefix}_d", DataType.DECIMAL)]
                + [(f"{prefix}_{name}", kind) for name, (kind, _) in POOL_COLUMNS.items()],
                indexes,
            )
        )
        db.load_rows(
            table,
            [
                {
                    f"{prefix}_id": i,
                    f"{prefix}_d": None if i % 7 == 3 else (i * 13) % 17 + 0.1,
                    **{
                        f"{prefix}_{name}": value(i * stride)
                        for name, (_, value) in POOL_COLUMNS.items()
                    },
                }
                for i in range(count)
            ],
        )
    return db


#: Join keys: one column each, and the two-column key.
POOL_JOIN_KEYS = {
    "varchar": ("s",),
    "null int": ("n",),
    "outer NULLs, same last key": ("h",),
    "outer NULLs, smaller last key": ("t",),
    "big int": ("big",),
    "two columns": ("a", "b"),
}


def _pool_join(pop_type, names, bloom=False, lookup=False):
    predicates = tuple(
        Comparison("=", ColumnRef("l", f"l_{name}"), ColumnRef("r", f"r_{name}"))
        for name in names
    )
    inner = table_scan("KR", "r")
    if lookup:
        inner = index_scan("KR", "r", f"R_{names[0].upper()}")
        inner.properties["nljoin_lookup"] = True
    return join(pop_type, table_scan("KL", "l"), inner, predicates, bloom_filter=bloom)


POOL_OPERATORS = {
    "HSJOIN": lambda names: _pool_join(PopType.HSJOIN, names),
    "HSJOIN bloom": lambda names: _pool_join(PopType.HSJOIN, names, bloom=True),
    "MSJOIN": lambda names: _pool_join(PopType.MSJOIN, names),
    "NLJOIN scanned inner": lambda names: _pool_join(PopType.NLJOIN, names),
    "NLJOIN index lookup": lambda names: _pool_join(PopType.NLJOIN, names, lookup=True),
    "SORT": lambda names: sort(table_scan("KL", "l"), ColumnRef("l", f"l_{names[-1]}")),
    "GROUP BY": lambda names: group_by(
        table_scan("KL", "l"),
        tuple(ColumnRef("l", f"l_{name}") for name in names),
        (
            ("COUNT", None),
            ("COUNT", ColumnRef("l", "l_d")),
            ("SUM", ColumnRef("l", "l_d")),
            ("AVG", ColumnRef("l", "l_n")),
            ("MIN", ColumnRef("l", "l_s")),
            ("MAX", ColumnRef("l", "l_big")),
        ),
    ),
}

#: The same keys through SQL: optimizer and random plans (any join method,
#: any access path), ORDER BY over a VARCHAR column holding '' included.
POOL_SQLS = [
    "SELECT l_id, l_s FROM kl ORDER BY l_s",
    "SELECT l_id, r_id FROM kl, kr WHERE l_s = r_s",
    "SELECT l_id, r_id, r_big FROM kl, kr WHERE l_n = r_n",
    "SELECT l_id, r_id FROM kl, kr WHERE l_big = r_big",
    "SELECT l_id, r_id FROM kl, kr WHERE l_a = r_a AND l_b = r_b",
    "SELECT l_s, COUNT(*), SUM(l_d), MIN(l_n), MAX(l_s) FROM kl GROUP BY l_s",
    "SELECT l_a, l_b, COUNT(l_n), AVG(l_d) FROM kl GROUP BY l_a, l_b",
    "SELECT l_big, COUNT(*), MAX(l_big) FROM kl GROUP BY l_big ORDER BY l_big",
    "SELECT l_n, r_s, COUNT(*) FROM kl, kr WHERE l_s = r_s GROUP BY l_n, r_s ORDER BY r_s",
]


@pytest.fixture(scope="module")
def key_pool_db():
    return build_key_pool_database()


class TestKeyPool:
    @pytest.mark.parametrize("keys", sorted(POOL_JOIN_KEYS))
    @pytest.mark.parametrize("operator", sorted(POOL_OPERATORS))
    def test_equals_row_engine_cold_and_memoized(self, key_pool_db, operator, keys):
        db = key_pool_db
        qgm = Qgm(POOL_OPERATORS[operator](POOL_JOIN_KEYS[keys]))
        context = f"{operator} on {keys}"
        reference = Executor(db.catalog, db.config).execute(qgm)
        assert reference.row_count > 0, context
        engine = VectorizedExecutor(db.catalog, db.config)
        assert_identical(reference, engine.execute(qgm), context)
        memo = ExecutionMemo()
        for _ in range(2):  # computed and stored, then replayed
            assert_identical(reference, engine.execute(qgm, memo=memo), context)

    def test_one_memo_across_the_pool(self, key_pool_db):
        """Every operator over every key shares one memo, as a learning sweep
        does: one input's grouping serves the joins, SORT and GROUP BY that
        read the same column."""
        db = key_pool_db
        row_engine = Executor(db.catalog, db.config)
        engine = VectorizedExecutor(db.catalog, db.config)
        memo = ExecutionMemo()
        for operator, build in sorted(POOL_OPERATORS.items()):
            for keys, names in sorted(POOL_JOIN_KEYS.items()):
                qgm = Qgm(build(names))
                assert_identical(
                    row_engine.execute(qgm), engine.execute(qgm, memo=memo), f"{operator} on {keys}"
                )
        assert memo.aux_hits > 0

    def test_sql_plans_identical(self, key_pool_db):
        checked = run_differential(key_pool_db, POOL_SQLS, random_plans_per_query=6)
        checked += run_differential(
            key_pool_db, POOL_SQLS, random_plans_per_query=6, memo=ExecutionMemo()
        )
        assert checked >= 2 * len(POOL_SQLS)

    def test_order_by_varchar_with_empty_string(self, key_pool_db):
        """'' sorts first, NULLs last, ties in input order -- in both engines."""
        result = key_pool_db.execute_sql("SELECT l_id, l_s FROM kl ORDER BY l_s")
        values = [row["KL.l_s"] for row in result.rows]
        non_null = [value for value in values if value is not None]
        assert non_null == sorted(non_null) and non_null[0] == ""
        assert values[len(non_null) :] == [None] * (len(values) - len(non_null))
        ids = [row["KL.l_id"] for row in result.rows]
        assert ids[: values.count("")] == sorted(ids[: values.count("")])


class TestMissingAggregateColumn:
    """Both engines reject an aggregate over a column its input does not
    produce -- the vectorized path used to fabricate an all-None column."""

    SQL = "SELECT g_kind, SUM(g_dval) FROM gfact GROUP BY g_kind"

    @staticmethod
    def _corrupt(qgm):
        for node in qgm.nodes():
            if node.properties.get("aggregates"):
                node.properties["aggregates"] = [
                    ("SUM", ColumnRef("GFACT", "g_ghost"))
                ]
        return qgm

    def test_engines_raise_identically(self):
        db = build_groupby_database()
        messages = []
        for engine_cls in (Executor, VectorizedExecutor):
            engine = engine_cls(db.catalog, db.config)
            with pytest.raises(PlanError) as excinfo:
                engine.execute(self._corrupt(db.explain(self.SQL)))
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "g_ghost" in messages[0]

    def test_missing_group_key_still_yields_nulls(self):
        """Group *keys* keep the row engine's row.get() NULL-fill semantics;
        only aggregate inputs are strict."""
        db = build_groupby_database()
        qgm = db.explain(self.SQL)
        for node in qgm.nodes():
            if node.properties.get("group_by"):
                node.properties["group_by"] = [ColumnRef("GFACT", "g_ghost")]
        reference = Executor(db.catalog, db.config).execute(qgm)
        candidate = VectorizedExecutor(db.catalog, db.config).execute(qgm)
        assert_identical(reference, candidate)
        # Every row grouped under the one all-NULL ghost key.
        assert len(reference.rows) == 1


class TestEngineSelection:
    def test_default_is_vectorized(self, mini_db):
        assert isinstance(mini_db.executor, VectorizedExecutor)
        assert DbConfig().executor == "vectorized"

    def test_make_executor_row(self, mini_db):
        config = mini_db.config.with_overrides(executor="row")
        assert isinstance(make_executor(mini_db.catalog, config), Executor)

    def test_make_executor_unknown_raises(self, mini_db):
        config = mini_db.config.with_overrides(executor="quantum")
        with pytest.raises(ValueError):
            make_executor(mini_db.catalog, config)

    def test_set_executor_does_not_leak_into_shared_config(self):
        from repro.engine.database import Database

        config = DbConfig()
        first = Database(config=config)
        first.set_executor("row")
        assert config.executor == "vectorized"
        second = Database(config=config)
        assert isinstance(second.executor, VectorizedExecutor)
        assert isinstance(first.executor, Executor)
        # No split brain inside a database: the catalog (and therefore the
        # default Db2Batch construction path) sees the same engine choice.
        assert first.catalog.config is first.config
        assert first.catalog.config.executor == "row"

    def test_set_executor_switches_engine(self, mini_db):
        try:
            mini_db.set_executor("row")
            assert isinstance(mini_db.executor, Executor)
            row_result = mini_db.execute_sql(MINI_SQLS[3])
        finally:
            mini_db.set_executor("vectorized")
        assert isinstance(mini_db.executor, VectorizedExecutor)
        vec_result = mini_db.execute_sql(MINI_SQLS[3])
        assert_identical(row_result, vec_result)

    def test_benchmarking_reuses_the_database_executor(self, mini_db, monkeypatch):
        """``benchmark_plan`` and the expert model measure on the database's
        executor instead of building a fresh one per call."""
        from repro.engine.executor import db2batch
        from repro.experiments.expert import ExpertModel

        def no_new_executor(*args, **kwargs):
            raise AssertionError("built a second executor")

        monkeypatch.setattr(db2batch, "make_executor", no_new_executor)
        measurement = mini_db.benchmark_plan(mini_db.explain(MINI_SQLS[3]), runs=3)
        assert len(measurement.run_elapsed_ms) == 3
        assert ExpertModel(mini_db).batch.executor is mini_db.executor


class TestBatch:
    def test_key_order_preserved(self):
        batch = Batch((({"z": np.array([1]), "a": np.array([2])}, None),), 1)
        assert list(batch.to_rows()[0]) == ["z", "a"]

    def test_selection_vector_column_and_take(self):
        backing = {"T.c": [10, 20, 30, 40]}
        batch = Batch.over(backing, [3, 1])
        assert batch.column("T.c") == [40, 20]
        taken = batch.take([1])
        assert taken.to_rows() == [{"T.c": 20}]

    def test_missing_column_yields_nulls(self):
        batch = Batch.over({"T.c": [1, 2]}, [0, 1])
        assert batch.column("T.missing") == [None, None]

    def test_merge_inner_wins_collisions(self):
        outer = Batch.over({"A.x": [1, 2]}, [0, 1])
        inner = Batch.over({"A.x": [9], "B.y": [7]}, [0])
        merged = Batch.joined(outer, [0, 1], inner, [0, 0])
        assert merged.to_rows() == [{"A.x": 9, "B.y": 7}, {"A.x": 9, "B.y": 7}]

    def test_empty_batch(self):
        batch = Batch((), 0)
        assert batch.to_rows() == []
        assert batch.length == 0


@pytest.mark.slow
class TestWorkloadDifferential:
    """Randomized TPC-DS + client plans through both engines (the tentpole's
    acceptance differential: identical rows, elapsed_ms and cardinalities)."""

    def _workload_sqls(self, workload, count):
        return [sql for _, sql in workload.queries[:count]]

    def test_tpcds_plans_identical(self, tiny_tpcds_workload):
        db = tiny_tpcds_workload.database
        sqls = self._workload_sqls(tiny_tpcds_workload, 10)
        checked = run_differential(db, sqls, random_plans_per_query=4)
        assert checked >= 10

    def test_tpcds_plans_identical_with_memo(self, tiny_tpcds_workload):
        db = tiny_tpcds_workload.database
        sqls = self._workload_sqls(tiny_tpcds_workload, 10)
        memo = ExecutionMemo()
        run_differential(db, sqls, random_plans_per_query=4, memo=memo)
        assert memo.hits > 0

    def test_client_plans_identical(self, tiny_client_workload):
        db = tiny_client_workload.database
        sqls = self._workload_sqls(tiny_client_workload, 10)
        memo = ExecutionMemo()
        checked = run_differential(db, sqls, random_plans_per_query=4)
        checked_memo = run_differential(db, sqls, random_plans_per_query=4, memo=memo)
        assert checked == checked_memo >= 10

    def test_learning_outcome_identical_across_engines(self, tiny_tpcds_workload):
        """End-to-end: the learning tier discovers the same templates with the
        vectorized+memoized engine as with the row engine."""
        from repro.core.galo import Galo
        from repro.core.knowledge_base import KnowledgeBase
        from repro.core.learning.engine import LearningConfig

        db = tiny_tpcds_workload.database
        queries = tiny_tpcds_workload.queries[:3]
        config = LearningConfig(
            max_joins=2, random_plans_per_subquery=3, max_variants=2
        )
        outcomes = []
        try:
            for engine in ("row", "vectorized"):
                db.set_executor(engine)
                galo = Galo(
                    db, knowledge_base=KnowledgeBase(), learning_config=config
                )
                report = galo.learn(queries, workload_name=f"diff-{engine}")
                names = sorted(
                    template.name.split(":", 1)[1]
                    for template in galo.knowledge_base.all_templates()
                )
                improvements = sorted(
                    round(value, 12)
                    for record in report.records
                    for value in record.improvements
                )
                outcomes.append((report.template_count, names, improvements))
        finally:
            db.set_executor("vectorized")
        assert outcomes[0] == outcomes[1]
