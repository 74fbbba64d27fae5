"""NumPy-backed columns: typed views, vectorized predicates, differential
equality, memo byte budgets, KB checkpointing and the metrics exposition.

The contract under test is the one the vectorized engine carries against the
row engine (which reads the columns' Python value lists, never the typed
views): every result -- rows (values *and* dict key order), per-operator
actual cardinalities, every ``RuntimeMetrics`` counter and the simulated
``elapsed_ms`` -- is bit-identical to the row-engine oracle, over
optimizer-chosen and randomized plans, including NULL-bearing and string
columns.  Byte-budgeted memo eviction, the knowledge-base checkpoint timer
and ``ServiceMetrics.render_prometheus`` are tested here too.
"""

import asyncio
import os

import numpy as np
import pytest

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.engine.columns import ColumnVector, KeyGroups, gather, python_values
from repro.engine.config import DbConfig
from repro.engine.database import Database
from repro.engine.executor import ExecutionMemo
from repro.engine.executor.memo import MemoEntry
from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Or,
    compile_predicate,
    conjunction_mask,
)
from repro.engine.schema import Index, make_schema
from repro.engine.types import DataType
from repro.service import GaloService, ServiceConfig, ServiceMetrics

from tests.conftest import build_mini_database
from tests.unit.test_vectorized_executor import MINI_SQLS, run_differential

GUARD_SECONDS = 30.0


def run_guarded(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


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
# Vectorized predicate masks vs the closure oracle
# ---------------------------------------------------------------------------


class TestPredicateMasks:
    REF = ColumnRef("t", "v")
    STR_REF = ColumnRef("t", "s")

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
        IsNull(ColumnRef("t", "s")),  # mask path via the VARCHAR null mask
        And((Comparison(">", ColumnRef("t", "v"), Literal(4)), IsNull(ColumnRef("t", "v"), negated=True))),
        Or((Comparison("=", ColumnRef("t", "v"), Literal(0)), Comparison(">", ColumnRef("t", "v"), Literal(30)))),
    ]

    @pytest.mark.parametrize("predicate", PREDICATES, ids=[str(p) for p in PREDICATES])
    def test_mask_equals_closure(self, predicate):
        columns = self.columns()
        compiled = compile_predicate(predicate)
        positions = list(range(8))
        mask = compiled.mask(columns)
        assert mask is not None, "expected a vectorized form"
        vectorized = [positions[i] for i in range(8) if mask[i]]
        closure = list(compiled._filter(columns, positions))
        assert vectorized == closure

    def test_filter_preserves_position_order(self):
        columns = self.columns()
        compiled = compile_predicate(Comparison(">", self.REF, Literal(3)))
        scrambled = [6, 0, 3, 5, 2]
        out = compiled.filter(columns, np.asarray(scrambled * 7))  # above min size
        assert list(out)[: len(scrambled)] == [6, 0, 3, 5, 2]

    def test_string_comparison_declines_mask(self):
        columns = self.columns()
        compiled = compile_predicate(Comparison("=", self.STR_REF, Literal("a")))
        assert compiled.mask(columns) is None
        assert list(compiled.filter(columns, range(8))) == [0, 3, 7]

    def test_list_backend_declines_at_runtime(self):
        """A plain list column (what a declined kernel hands on) has no typed
        view: the mask form declines and the closure filters."""
        columns = {"t.v": [1, 2, 3]}
        compiled = compile_predicate(Comparison(">", self.REF, Literal(1)))
        assert compiled.mask(columns) is None
        assert list(compiled.filter(columns, range(3))) == [1, 2]

    def test_conjunction_mask_matches_sequential_filters(self):
        columns = self.columns()
        predicates = [
            Comparison(">", self.REF, Literal(4)),
            Comparison("<", self.REF, Literal(40)),
        ]
        mask = conjunction_mask(predicates, columns)
        assert mask is not None
        assert [i for i in range(8) if mask[i]] == [0, 2, 3, 6]
        # A non-vectorizable member poisons the whole conjunction.
        assert (
            conjunction_mask(
                predicates + [Comparison("=", self.STR_REF, Literal("a"))], columns
            )
            is None
        )


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
    def test_dirty_tracks_mutations_and_save_clears(self, mini_db, tmp_path):
        kb = KnowledgeBase()
        assert not kb.dirty
        kb = seeded_kb(mini_db)
        assert kb.dirty
        kb.save(str(tmp_path))
        assert not kb.dirty
        # One version directory, committed by its rename; atomic writes leave
        # no .tmp files behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v1"]
        assert sorted(p.name for p in (tmp_path / "v1").iterdir()) == [
            "guard_state.json",
            "knowledge_base.nt",
            "templates.json",
        ]
        evicted_id = next(iter(kb.templates))
        kb.evict_template(evicted_id)
        assert kb.dirty

    def test_checkpoint_round_trips(self, mini_db, tmp_path):
        kb = seeded_kb(mini_db)
        kb.save(str(tmp_path))
        restored = KnowledgeBase.load(str(tmp_path))
        assert sorted(restored.templates) == sorted(kb.templates)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(kb_checkpoint_interval_seconds=0.0, kb_checkpoint_directory="x")
        with pytest.raises(ValueError):
            ServiceConfig(kb_checkpoint_interval_seconds=5.0)

    def test_timer_checkpoints_only_when_dirty(self, mini_db, tmp_path):
        galo = Galo(mini_db, knowledge_base=seeded_kb(mini_db))
        directory = tmp_path / "kb"
        config = ServiceConfig(
            steering_enabled=False,
            learning_enabled=True,
            kb_checkpoint_interval_seconds=0.05,
            kb_checkpoint_directory=str(directory),
        )
        service = GaloService(galo, config)

        async def scenario():
            async with service:
                deadline = asyncio.get_running_loop().time() + GUARD_SECONDS / 2
                while not (directory / "v1").is_dir():
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                assert not galo.knowledge_base.dirty
                first_mtime = os.stat(directory / "v1").st_mtime_ns
                # A clean KB must not be rewritten by later timer ticks.
                await asyncio.sleep(0.2)
                assert os.stat(directory / "v1").st_mtime_ns == first_mtime
                assert sorted(p.name for p in directory.iterdir()) == ["v1"]
            return service.metrics.count("kb_checkpoints")

        checkpoints = run_guarded(scenario())
        assert checkpoints == 1
        restored = KnowledgeBase.load(str(directory))
        assert sorted(restored.templates) == sorted(galo.knowledge_base.templates)

    def test_clean_wakeup_does_not_restart_interval(self, mini_db, tmp_path, monkeypatch):
        """Regression: an idle (clean-KB) timer wake-up must not advance the
        checkpoint clock.  It used to, which made a KB dirtied right after a
        clean tick wait up to two full intervals for its first snapshot."""
        import repro.service.service as service_module

        directory = tmp_path / "kb"
        kb = seeded_kb(mini_db)
        kb.save(str(directory))
        assert not kb.dirty
        galo = Galo(mini_db, knowledge_base=kb)
        service = GaloService(
            galo,
            ServiceConfig(
                steering_enabled=False,
                learning_enabled=True,
                kb_checkpoint_interval_seconds=10.0,
                kb_checkpoint_directory=str(directory),
            ),
        )
        clock = [10.0]
        monkeypatch.setattr(service_module.time, "monotonic", lambda: clock[0])
        service._last_kb_checkpoint = 0.0
        # Clean wake-up one full interval in: nothing to snapshot, and the
        # timer must stay where it was.
        service._checkpoint_kb_sync()
        assert service.metrics.count("kb_checkpoints") == 0
        assert service._last_kb_checkpoint == 0.0
        # The KB goes dirty just after the clean tick; the very next due
        # wake-up (t=12 > interval since the *last attempt*, not since the
        # clean tick) must snapshot immediately.
        kb.evict_template(next(iter(kb.templates)))
        clock[0] = 12.0
        service._checkpoint_kb_sync()
        assert service.metrics.count("kb_checkpoints") == 1
        assert service._last_kb_checkpoint == 12.0
        assert not kb.dirty
        # A later clean wake-up still leaves the timer at the last attempt.
        clock[0] = 23.0
        service._checkpoint_kb_sync()
        assert service.metrics.count("kb_checkpoints") == 1
        assert service._last_kb_checkpoint == 12.0

    def test_stop_forces_final_checkpoint(self, mini_db, tmp_path):
        galo = Galo(mini_db, knowledge_base=seeded_kb(mini_db))
        directory = tmp_path / "kb"
        config = ServiceConfig(
            steering_enabled=False,
            learning_enabled=True,
            kb_checkpoint_interval_seconds=3600.0,
            kb_checkpoint_directory=str(directory),
        )
        service = GaloService(galo, config)

        async def scenario():
            async with service:
                await asyncio.sleep(0.01)

        run_guarded(scenario())
        # The hour-long timer never fired; the shutdown checkpoint did.
        assert KnowledgeBase.checkpoint_version_on_disk(str(directory)) == 1
        assert not galo.knowledge_base.dirty


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
