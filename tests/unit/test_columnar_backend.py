"""NumPy-backed columns: typed views, vectorized predicates, differential
equality, memo byte budgets, KB checkpointing and the metrics exposition.

The contract under test is the one the vectorized engine carries against the
row engine (which reads the columns' Python value lists, never the typed
views): every result -- rows (values *and* dict key order), per-operator
actual cardinalities, every ``RuntimeMetrics`` counter and the simulated
``elapsed_ms`` -- is bit-identical to the row-engine oracle, over
optimizer-chosen and randomized plans, including NULL-bearing and string
columns.  Byte-budgeted memo eviction, knowledge-base checkpoints and
``ServiceMetrics.render_prometheus`` are tested here too.
"""

import sys

import numpy as np
import pytest

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.engine.columns import ColumnVector, KeyGroups, gather, nbytes_of, python_values
from repro.engine.config import DbConfig
from repro.engine.database import Database
from repro.engine.executor import ExecutionMemo
from repro.engine.executor.memo import MemoEntry
from repro.engine.executor.vectorized import VectorizedExecutor
from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Or,
    filter_positions,
)
from repro.engine.schema import Index, make_schema
from repro.engine.types import DataType
from repro.service import GaloService, ServiceConfig, ServiceMetrics

from tests.conftest import build_mini_database
from tests.unit.test_vectorized_executor import MINI_SQLS, run_differential


# ---------------------------------------------------------------------------
# A NULL-bearing schema with string join keys (the mini star schema has
# neither NULLs nor VARCHAR join columns).
# ---------------------------------------------------------------------------

NULLABLE_SQLS = [
    "SELECT n_id FROM nullfact WHERE n_value > 40",
    "SELECT n_id FROM nullfact WHERE n_value IS NULL",
    "SELECT n_id FROM nullfact WHERE n_code IS NOT NULL AND n_value <= 70",
    "SELECT n_id FROM nullfact WHERE n_value BETWEEN 20 AND 60",
    "SELECT n_id FROM nullfact WHERE n_kind IN (1, 3)",
    "SELECT n_id FROM nullfact WHERE n_kind = 2 AND n_value <> 50",
    "SELECT n_code, COUNT(*) FROM nullfact GROUP BY n_code",
    "SELECT l_label, SUM(n_value) FROM nullfact, lookup "
    "WHERE n_code = l_code GROUP BY l_label",
    "SELECT l_label, COUNT(*) FROM nullfact, lookup "
    "WHERE n_kind = l_kind AND n_value >= 10 GROUP BY l_label",
    "SELECT n_id, n_price FROM nullfact WHERE n_price >= 30.5 ORDER BY n_price",
]


def build_nullable_database() -> Database:
    """Two tables exercising NULL join keys, string keys and NULL predicates."""
    db = Database()
    db.create_table(
        make_schema(
            "NULLFACT",
            [
                ("n_id", DataType.INTEGER),
                ("n_value", DataType.INTEGER),
                ("n_price", DataType.DECIMAL),
                ("n_code", DataType.VARCHAR),
                ("n_kind", DataType.INTEGER),
            ],
            [Index("N_VALUE_IDX", "NULLFACT", "n_value", cluster_ratio=0.4)],
        )
    )
    db.create_table(
        make_schema(
            "LOOKUP",
            [
                ("l_code", DataType.VARCHAR),
                ("l_kind", DataType.INTEGER),
                ("l_label", DataType.VARCHAR),
            ],
            [],
        )
    )
    codes = ["aa", "bb", "cc", None, "dd"]
    db.load_rows(
        "NULLFACT",
        [
            {
                "n_id": i,
                "n_value": None if i % 7 == 3 else (i * 37) % 100,
                "n_price": None if i % 11 == 5 else round((i * 13) % 97 + 0.5, 2),
                "n_code": codes[i % len(codes)],
                "n_kind": None if i % 13 == 6 else i % 4,
            }
            for i in range(600)
        ],
    )
    db.load_rows(
        "LOOKUP",
        [
            {"l_code": code, "l_kind": kind, "l_label": f"{code}-{kind}"}
            for code in ["aa", "bb", "cc", "dd", "ee"]
            for kind in range(4)
        ],
    )
    return db


# ---------------------------------------------------------------------------
# ColumnVector unit behavior
# ---------------------------------------------------------------------------


class TestColumnVector:
    def test_sequence_protocol_matches_list(self):
        column = ColumnVector(DataType.INTEGER, [1, None, 3])
        assert len(column) == 3
        assert column[1] is None
        assert list(column) == [1, None, 3]
        column.append(4)
        assert column == [1, None, 3, 4]

    def test_dtypes_and_null_masks(self):
        ints = ColumnVector(DataType.INTEGER, [1, None, 3]).arrays()
        assert ints[0].dtype == np.int64
        assert ints[0].tolist() == [1, 0, 3]  # 0 at masked slots
        assert ints[1].tolist() == [False, True, False]
        dates = ColumnVector(DataType.DATE, [10, 20]).arrays()
        assert dates[0].dtype == np.int64 and dates[1] is None
        decs = ColumnVector(DataType.DECIMAL, [1.5, None]).arrays()
        assert decs[0].dtype == np.float64
        strs = ColumnVector(DataType.VARCHAR, ["x", None]).arrays()
        assert strs[0].dtype == object
        assert strs[0][1] is None and strs[1].tolist() == [False, True]

    def test_append_invalidates_typed_view(self):
        column = ColumnVector(DataType.INTEGER, [1, 2])
        first, _ = column.arrays()
        column.append(3)
        second, _ = column.arrays()
        assert first is not second
        assert second.tolist() == [1, 2, 3]

    def test_out_of_range_integers_degrade_to_object(self):
        column = ColumnVector(DataType.INTEGER, [1, 2 ** 70])
        array, _ = column.arrays()
        assert array.dtype == object
        assert KeyGroups(array).keys.tolist() == [1, 2 ** 70]

    def test_gather_widens_to_object_only_when_nulls_selected(self):
        column = ColumnVector(DataType.INTEGER, [1, None, 3, 4])
        no_nulls = gather(column, np.array([0, 2, 3]))
        assert no_nulls.dtype == np.int64 and no_nulls.tolist() == [1, 3, 4]
        with_null = gather(column, np.array([0, 1]))
        assert with_null.dtype == object and with_null.tolist() == [1, None]

    def test_python_values_yields_plain_scalars(self):
        out = python_values(gather(np.array([1, 2, 3]), [2, 0]))
        assert out == [3, 1] and all(type(v) is int for v in out)


# ---------------------------------------------------------------------------
# Array predicate evaluation over storage columns vs the row oracle
# ---------------------------------------------------------------------------


class TestPredicateMasks:
    REF = ColumnRef("t", "v")

    def columns(self):
        return {
            "t.v": ColumnVector(
                DataType.INTEGER, [5, None, 12, 7, None, 40, 12, 0]
            ),
            "t.s": ColumnVector(
                DataType.VARCHAR, ["a", "b", None, "a", "c", None, "b", "a"]
            ),
        }

    PREDICATES = [
        Comparison("=", ColumnRef("t", "v"), Literal(12)),
        Comparison("<>", ColumnRef("t", "v"), Literal(12)),
        Comparison("<", Literal(10), ColumnRef("t", "v")),
        Between(ColumnRef("t", "v"), Literal(5), Literal(12)),
        InList(ColumnRef("t", "v"), (0, 7, 99)),
        IsNull(ColumnRef("t", "v")),
        IsNull(ColumnRef("t", "v"), negated=True),
        IsNull(ColumnRef("t", "s")),  # the VARCHAR column's null mask
        And((Comparison(">", ColumnRef("t", "v"), Literal(4)), IsNull(ColumnRef("t", "v"), negated=True))),
        Or((Comparison("=", ColumnRef("t", "v"), Literal(0)), Comparison(">", ColumnRef("t", "v"), Literal(30)))),
    ]

    @pytest.mark.parametrize("predicate", PREDICATES, ids=[str(p) for p in PREDICATES])
    def test_filter_positions_equals_evaluate(self, predicate):
        columns = self.columns()
        rows = [{key: columns[key][i] for key in columns} for i in range(8)]
        got = filter_positions([predicate], columns, range(8))
        assert got.dtype == np.intp
        assert list(got) == [i for i in range(8) if predicate.evaluate(rows[i])]

    def test_filter_preserves_position_order(self):
        columns = self.columns()
        scrambled = [6, 0, 3, 5, 2]
        out = filter_positions(
            [Comparison(">", self.REF, Literal(3))], columns, np.asarray(scrambled * 7)
        )
        assert list(out)[: len(scrambled)] == [6, 0, 3, 5, 2]


# ---------------------------------------------------------------------------
# Differential: row-engine oracle vs vectorized vs vectorized + workload memo
# ---------------------------------------------------------------------------


def run_backend_differential(db, sqls, random_plans_per_query=4):
    """Row-engine oracle vs the vectorized engine, cold and then through the
    database's workload memo: rows, cardinalities, metric counters and
    elapsed_ms must be equal both times."""
    checked = run_differential(db, sqls, random_plans_per_query)
    run_differential(db, sqls, random_plans_per_query, memo=db.workload_memo())
    return checked


class TestBackendDifferential:
    def test_mini_schema_plans_identical(self):
        checked = run_backend_differential(
            build_mini_database(sales_rows=3000), MINI_SQLS
        )
        assert checked >= len(MINI_SQLS)

    def test_null_and_string_plans_identical(self):
        checked = run_backend_differential(build_nullable_database(), NULLABLE_SQLS)
        assert checked >= len(NULLABLE_SQLS)

    def test_result_rows_are_json_serializable(self):
        import json

        db = build_nullable_database()
        for sql in NULLABLE_SQLS[:4]:
            result = db.execute_sql(sql)
            json.dumps(result.rows)  # numpy scalars would raise TypeError

    def test_learning_outcome_identical_across_backends(self, mini_queries):
        """The learner sees the typed views only through the vectorized
        engine; the row engine over the same columns is the reference."""
        from repro.core.learning.engine import LearningConfig

        reports = {}
        for engine in ("row", "vectorized"):
            db = build_mini_database(
                sales_rows=1500, config=DbConfig(executor=engine)
            )
            galo = Galo(
                db,
                knowledge_base=KnowledgeBase(),
                learning_config=LearningConfig(
                    max_joins=2, random_plans_per_subquery=2, max_variants=1
                ),
            )
            reports[engine] = galo.learn(
                mini_queries[:2], workload_name=f"engine-{engine}"
            )
        assert (
            reports["row"].template_count == reports["vectorized"].template_count
        )
        improvements = {
            engine: sorted(
                value for record in report.records for value in record.improvements
            )
            for engine, report in reports.items()
        }
        assert improvements["row"] == improvements["vectorized"]


class TestIndexRangeBackends:
    def test_lookup_range_parity_with_duplicates_and_nulls(self):
        values = [5, 3, None, 5, 1, 9, None, 3, 9, 9, None, 0]
        db = Database()
        db.create_table(
            make_schema("T", [("v", DataType.INTEGER)], [Index("T_V", "T", "v")])
        )
        db.load_rows("T", [{"v": value} for value in values])
        index = db.catalog.table_data("T").index("T_V")
        for low, high in [(3, 9), (None, 4), (4, None), (None, None), (7, 2)]:
            brute_force = sorted(
                row_id
                for row_id, value in enumerate(values)
                if value is not None
                and (low is None or value >= low)
                and (high is None or value <= high)
            )
            assert index.lookup_range(low, high).tolist() == brute_force, (low, high)


# ---------------------------------------------------------------------------
# Byte-budgeted memo eviction
# ---------------------------------------------------------------------------


def make_entry(row_count: int) -> MemoEntry:
    """An entry owning a position vector of ~32 bytes per row (list estimate)."""
    return MemoEntry(
        sources=(({}, list(range(row_count))),),
        length=row_count,
        deltas=(),
        traces=(),
    )


class TestMemoByteBudget:
    def test_entries_are_sized_and_counted(self):
        memo = ExecutionMemo(max_bytes=1 << 20)
        entry = make_entry(100)
        memo.store("k1", entry)
        assert entry.nbytes > 0
        assert memo.stats()["entry_bytes"] == entry.nbytes
        assert memo.stats()["entries"] == 1

    def test_shared_backing_columns_are_not_charged(self):
        shared = list(range(100_000))
        scan_entry = MemoEntry(
            sources=(({"t.a": shared}, list(range(50))),),
            length=50,
            deltas=(),
            traces=(),
        )
        # A source without positions has arrays of its own: charged in full.
        owning = MemoEntry(
            sources=(({"t.a": shared}, None),), length=100_000, deltas=(), traces=()
        )
        assert scan_entry.estimated_bytes() < owning.estimated_bytes()
        assert scan_entry.estimated_bytes() < 16_384

    def test_a_range_is_charged_its_own_size(self):
        positions = range(100_000)
        assert nbytes_of(positions) == sys.getsizeof(positions)
        assert nbytes_of(positions) < 100

    def test_predicate_free_scan_entry_is_charged_its_range(self, mini_db):
        """A TBSCAN without predicates keeps ``range(row_count)`` as its
        positions: the entry costs its struct overhead plus that range."""
        memo = ExecutionMemo()
        qgm = mini_db.explain("SELECT s_quantity FROM sales")
        VectorizedExecutor(mini_db.catalog, mini_db.config).execute(qgm, memo=memo).rows
        (entry,) = memo.entries.values()
        ((_, positions),) = entry.sources
        assert positions == range(mini_db.catalog.table_data("SALES").row_count)
        assert entry.estimated_bytes() == 256 + sys.getsizeof(positions)

    def test_byte_budget_evicts_fifo(self):
        budget = make_entry(100).estimated_bytes() * 3 + 128
        memo = ExecutionMemo(max_bytes=budget)
        for position in range(6):
            memo.store(f"k{position}", make_entry(100))
        stats = memo.stats()
        assert stats["entries"] <= 3
        assert stats["entry_bytes"] <= budget
        assert stats["byte_evictions"] >= 3
        # FIFO: the newest entries survive.
        assert memo.peek("k5") is not None
        assert memo.peek("k0") is None

    def test_oversized_entry_is_not_cached(self):
        memo = ExecutionMemo(max_bytes=1024)
        memo.store("small", make_entry(4))
        memo.store("huge", make_entry(100_000))
        assert memo.peek("huge") is None
        # The small resident entry was not sacrificed for the giant one.
        assert memo.peek("small") is not None

    def test_replacing_an_entry_does_not_leak_bytes(self):
        memo = ExecutionMemo(max_bytes=1 << 20)
        memo.store("k", make_entry(100))
        first_bytes = memo.stats()["entry_bytes"]
        memo.store("k", make_entry(100))
        assert memo.stats()["entry_bytes"] == first_bytes
        assert memo.stats()["entries"] == 1

    def test_reset_clears_byte_total(self):
        memo = ExecutionMemo(max_bytes=1 << 20)
        memo.store("k", make_entry(100))
        memo.reset(epoch=1)
        assert memo.stats()["entry_bytes"] == 0

    def test_pinned_view_stores_after_reset_do_not_corrupt_live_bytes(self):
        """A pinned execution's late stores land in its own orphaned snapshot.

        Regression: byte totals used to live in the shared counters mapping,
        so an execution pinned before an epoch reset would inflate the *new*
        epoch's byte total with entries only the orphaned dict holds --
        phantom bytes nothing could ever evict, eventually pinning the live
        cache at one entry.
        """
        memo = ExecutionMemo(max_bytes=1 << 20, epoch=0)
        pinned = memo.pinned()
        memo.reset(epoch=1)
        pinned.store("orphan", make_entry(1000))
        assert memo.stats()["entries"] == 0
        assert memo.stats()["entry_bytes"] == 0
        # The orphaned snapshot accounted for itself, against its own box.
        assert pinned.entry_bytes > 0
        assert pinned.peek("orphan") is not None

    def test_workload_memo_carries_byte_budget(self, mini_db):
        memo = mini_db.workload_memo()
        assert memo.max_bytes == Database.WORKLOAD_MEMO_MAX_BYTES
        assert memo.pinned().max_bytes == Database.WORKLOAD_MEMO_MAX_BYTES

    def test_real_execution_accumulates_bytes(self):
        db = build_mini_database(sales_rows=1000)
        memo = db.workload_memo()
        db.execute_plan(db.explain(MINI_SQLS[4]), memo=memo)
        stats = memo.stats()
        assert stats["entries"] > 0
        assert stats["entry_bytes"] > 0


# ---------------------------------------------------------------------------
# Online KB checkpointing
# ---------------------------------------------------------------------------


def seeded_kb(db) -> KnowledgeBase:
    kb = KnowledgeBase()
    count = 0
    for segment in segment_plan(db.explain(MINI_SQLS[4]), max_joins=3):
        count += 1
        abstract_template_from_plan(
            kb,
            segment,
            name=f"ckpt{count}",
            source_workload="unit",
            source_query=f"q{count}",
            improvement=0.2,
            catalog=db.catalog,
        )
    return kb


class TestKbCheckpointing:
    def test_save_commits_one_version_directory(self, mini_db, tmp_path):
        kb = seeded_kb(mini_db)
        kb.save(str(tmp_path))
        # One version directory, committed by its rename; atomic writes leave
        # no .tmp files behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v1"]
        assert sorted(p.name for p in (tmp_path / "v1").iterdir()) == [
            "guard_state.json",
            "knowledge_base.nt",
            "templates.json",
        ]

    def test_checkpoint_round_trips(self, mini_db, tmp_path):
        kb = seeded_kb(mini_db)
        kb.save(str(tmp_path))
        restored = KnowledgeBase.load(str(tmp_path))
        assert sorted(restored.templates) == sorted(kb.templates)


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------


class TestPrometheusRendering:
    def test_counters_and_gauges_render(self):
        metrics = ServiceMetrics()
        metrics.increment("submitted", 3)
        metrics.record_latency(12.5)
        text = metrics.render_prometheus({"memo_entries": 7})
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# TYPE galo_submitted counter" in lines
        assert "galo_submitted 3" in lines
        assert "# TYPE galo_memo_entries gauge" in lines
        assert "galo_memo_entries 7" in lines
        assert "galo_latency_max_ms 12.5" in lines
        # Deterministic ordering: sample lines are sorted by metric name.
        samples = [line for line in lines if not line.startswith("#")]
        assert samples == sorted(samples)

    def test_service_exposes_memo_gauges(self, mini_db):
        galo = Galo(mini_db)
        mini_db.execute_plan(
            mini_db.explain(MINI_SQLS[0]), memo=mini_db.workload_memo()
        )
        service = GaloService(galo, ServiceConfig())
        text = service.render_metrics()
        assert "galo_memo_entries " in text
        assert "galo_memo_entry_bytes " in text
        assert "galo_kb_templates 0" in text
