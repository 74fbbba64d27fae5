"""Workload-scoped execution memo: cross-sweep sharing, join subtrees, epochs.

The tentpole contract under test: one :class:`ExecutionMemo` shared across
every plan evaluation of a workload sweep -- including whole join subtrees --
must be invisible in the output.  Rows (values and dict key order), simulated
``elapsed_ms``, per-operator actual cardinalities and every runtime metric
stay bit-identical to cold execution, and the memo dies with the data: any
DDL or data load bumps the database's *storage* epoch and resets it.
RUNSTATS does not -- it moves only the statistics epoch (plan cache), and
memo entries, gathered aux columns and join build/sort caches are pure
functions of storage, so they survive re-collections mid-sweep.
"""

import ast
import dataclasses
import math
import pathlib
import sys
import threading

import pytest

import repro
from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase
from repro.core.learning.engine import LearningConfig
from repro.core.matching.engine import MatchingConfig, MatchingEngine
from repro.engine.config import DbConfig
from repro.engine.database import Database
from repro.engine.executor import ExecutionMemo, Executor, MemoEntry, VectorizedExecutor
from repro.engine.schema import Index, make_schema
from repro.engine.types import DataType
from repro.errors import PlanBudgetExceeded
from repro.obs.tracing import Tracer, current_execution_span

JOIN_SQLS = [
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
    "GROUP BY i_category",
    "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
    "AND i_category = 'Music' AND o_state = 'CA' GROUP BY i_category, o_state",
    "SELECT o_state, AVG(s_price) FROM sales, outlet "
    "WHERE s_outlet_sk = o_outlet_sk GROUP BY o_state",
]

JOIN_MEMO_TAGS = {"HJ", "MJ", "NJ"}


def assert_identical(reference, candidate, context=""):
    """Full ExecutionResult equality: rows, elapsed, cardinalities, metrics."""
    assert candidate.rows == reference.rows, f"rows differ: {context}"
    assert candidate.elapsed_ms == reference.elapsed_ms, f"elapsed differs: {context}"
    assert (
        candidate.actual_cardinalities == reference.actual_cardinalities
    ), f"cardinalities differ: {context}"
    assert (
        candidate.metrics.as_dict() == reference.metrics.as_dict()
    ), f"metrics differ: {context}"


class TestWorkloadMemoAccessor:
    def test_same_instance_per_epoch(self, mini_db):
        memo = mini_db.workload_memo()
        assert mini_db.workload_memo() is memo
        assert memo.epoch == mini_db.storage_epoch
        assert memo.max_entries == Database.WORKLOAD_MEMO_MAX_ENTRIES
        # Every invalidation moves the statistics epoch; only DDL and data
        # loads move the storage epoch too.
        assert mini_db.stats_epoch >= mini_db.storage_epoch

    def test_entry_cap_evicts_oldest_first(self):
        memo = ExecutionMemo(max_entries=2)
        entry = MemoEntry(sources=(({}, []),), length=0, deltas=(), traces=())
        memo.store("a", entry)
        memo.store("b", entry)
        memo.store("c", entry)
        assert list(memo.entries) == ["b", "c"]
        # Re-storing an existing key must not evict anything.
        memo.store("c", entry)
        assert list(memo.entries) == ["b", "c"]
        memo.aux_store("x", 1)
        memo.aux_store("y", 2)
        memo.aux_store("z", 3)
        assert list(memo.aux) == ["y", "z"]


def _entry_of(size):
    """A MemoEntry whose estimated payload scales with ``size`` positions."""
    return MemoEntry(
        sources=(({}, list(range(size))),), length=size, deltas=(), traces=()
    )


def assert_bytes_consistent(memo, context=""):
    """The byte-accounting invariant: the running total in ``entry_bytes``
    must equal the recomputed sum over the entries actually resident."""
    recomputed = sum(entry.nbytes for entry in memo.entries.values())
    assert memo.stats()["entry_bytes"] == recomputed, (
        f"entry_bytes drifted from the resident entries: {context}"
    )


class TestMemoByteAccounting:
    def test_bytes_track_store_replace_and_fifo_eviction(self):
        memo = ExecutionMemo(max_entries=3)
        for key, size in (("a", 10), ("b", 20), ("c", 30)):
            memo.store(key, _entry_of(size))
            assert_bytes_consistent(memo, f"after store {key!r}")
        # Replacing a key swaps its bytes, it does not double-count them.
        memo.store("b", _entry_of(100))
        assert_bytes_consistent(memo, "after replace")
        # Entry-count eviction releases the FIFO-oldest entry's bytes.
        memo.store("d", _entry_of(5))
        assert "a" not in memo.entries
        assert_bytes_consistent(memo, "after FIFO eviction")

    def test_byte_budget_evictions_and_oversized_entry(self):
        budget = 3 * _entry_of(10).estimated_bytes()
        memo = ExecutionMemo(max_bytes=budget)
        for key in "abc":
            memo.store(key, _entry_of(10))
        assert_bytes_consistent(memo, "filled to budget")
        # Pushing past the budget evicts oldest-first until back under it.
        memo.store("d", _entry_of(10))
        assert memo.stats()["byte_evictions"] >= 1
        assert memo.entry_bytes <= budget
        assert_bytes_consistent(memo, "after byte eviction")
        # An entry bigger than the whole budget is not cached and must not
        # perturb the accounting either.
        memo.store("huge", _entry_of(10_000))
        assert "huge" not in memo.entries
        assert_bytes_consistent(memo, "after rejecting oversized entry")

    def test_epoch_swap_and_pinned_stores_keep_budgets_separate(self):
        memo = ExecutionMemo(max_entries=8, epoch=1)
        memo.store("a", _entry_of(10))
        pin = memo.pinned()
        memo.reset(epoch=2)
        assert memo.entry_bytes == 0
        assert_bytes_consistent(memo, "after reset")
        # A pinned execution's late stores land in the orphaned snapshot and
        # account against the orphaned box -- both stay internally consistent.
        pin.store("late", _entry_of(50))
        assert "late" not in memo.entries
        assert_bytes_consistent(memo, "shared memo after pinned store")
        assert_bytes_consistent(pin, "pinned snapshot after pinned store")
        # A pin taken after the reset shares the new dict *and* the new box.
        fresh_pin = memo.pinned()
        fresh_pin.store("b", _entry_of(7))
        assert "b" in memo.entries
        assert_bytes_consistent(memo, "after post-reset pinned store")

    def test_bytes_consistent_through_real_sweep(self, mini_db):
        """The invariant holds for entries produced by actual executions,
        across a sweep, a stats-only epoch, and a storage reset."""
        memo = mini_db.workload_memo()
        engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        for sql in JOIN_SQLS:
            engine.execute(mini_db.explain(sql), memo=memo)
            assert_bytes_consistent(memo, sql)
        assert memo.entry_bytes > 0
        for table in mini_db.tables:
            mini_db.runstats(table)
        assert_bytes_consistent(mini_db.workload_memo(), "after RUNSTATS")
        mini_db.invalidate_plan_cache()
        refreshed = mini_db.workload_memo()
        assert refreshed.entry_bytes == 0
        assert_bytes_consistent(refreshed, "after storage epoch reset")


class TestJoinSubtreeMemo:
    def test_join_entries_created_and_hit(self, mini_db):
        memo = ExecutionMemo()
        engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        engine.execute(mini_db.explain(JOIN_SQLS[1]), memo=memo)
        join_keys = [key for key in memo.entries if key[0] in JOIN_MEMO_TAGS]
        assert join_keys, "no join subtree was memoized"
        hits_before = memo.hits
        engine.execute(mini_db.explain(JOIN_SQLS[1]), memo=memo)
        assert memo.hits > hits_before

    def test_cross_sweep_sharing_bit_identical(self, mini_db):
        """Two sweeps over the workload share one memo; every execution must
        equal the row engine's cold run -- scans, joins and all."""
        row_engine = Executor(mini_db.catalog, mini_db.config)
        vec_engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        memo = ExecutionMemo()
        for sweep in range(2):
            for sql in JOIN_SQLS:
                plans = [mini_db.explain(sql)]
                plans += mini_db.random_plans(sql, 4)
                for qgm in plans:
                    reference = row_engine.execute(qgm)
                    candidate = vec_engine.execute(qgm, memo=memo)
                    assert_identical(reference, candidate, context=f"{sweep}:{sql}")
        # The second sweep re-sees every plan: the memo must be sharing join
        # subtrees across sweeps, not merely across the plans of one query.
        assert memo.hits > 0
        assert any(key[0] in JOIN_MEMO_TAGS for key in memo.entries)

    def test_join_hit_annotates_skipped_subtree(self, mini_db):
        memo = ExecutionMemo()
        engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        engine.execute(mini_db.explain(JOIN_SQLS[2]), memo=memo)
        second = mini_db.explain(JOIN_SQLS[2])
        result = engine.execute(second, memo=memo)
        for node in second.nodes():
            assert node.operator_id in result.actual_cardinalities
        reference = Executor(mini_db.catalog, mini_db.config).execute(
            mini_db.explain(JOIN_SQLS[2])
        )
        assert_identical(reference, result)


def _tiny_database():
    db = Database(config=DbConfig())
    db.create_table(
        make_schema(
            "T",
            [("t_id", DataType.INTEGER), ("t_val", DataType.INTEGER)],
            [Index("T_PK", "T", "t_id", unique=True)],
        )
    )
    db.load_rows("T", [{"t_id": i, "t_val": i % 5} for i in range(100)])
    return db


class TestEpochInvalidation:
    SQL = "SELECT t_id FROM t WHERE t_val = 3"

    def test_data_load_resets_memo(self):
        db = _tiny_database()
        memo = db.workload_memo()
        first = db.execute_plan(db.explain(self.SQL), memo=memo)
        assert memo.entries, "execution should have populated the memo"
        storage_before, stats_before = db.storage_epoch, db.stats_epoch
        resets_before = memo.resets

        db.load_rows("T", [{"t_id": 100 + i, "t_val": 3} for i in range(10)])
        assert db.storage_epoch > storage_before
        assert db.stats_epoch > stats_before
        refreshed = db.workload_memo()
        assert refreshed is memo, "the memo instance is stable; only entries reset"
        assert memo.resets == resets_before + 1
        assert not memo.entries

        second = db.execute_plan(db.explain(self.SQL), memo=db.workload_memo())
        assert len(second.rows) == len(first.rows) + 10
        cold = Executor(db.catalog, db.config).execute(db.explain(self.SQL))
        assert_identical(cold, second)

    def test_inflight_execution_cannot_repopulate_reset_memo(self):
        """An execution pinned to the memo before a data change must not leak
        its (stale) stores into the freshly reset memo."""
        db = _tiny_database()
        shared = db.workload_memo()
        pin = shared.pinned()  # what the executor does at execute() start
        assert pin.entries is shared.entries
        # Data changes mid-flight: the shared memo resets.
        db.load_rows("T", [{"t_id": 200, "t_val": 1}])
        refreshed = db.workload_memo()
        assert refreshed is shared and not shared.entries
        # The in-flight run stores into its pinned (orphaned) snapshot...
        pin.store("stale", MemoEntry(sources=(({}, []),), length=0, deltas=(), traces=()))
        assert pin.peek("stale") is not None
        # ...which is invisible to the new epoch's cache.
        assert "stale" not in shared.entries
        # Counters stay shared for observability.
        pin.lookup("anything")
        assert shared.misses == pin.misses

    def test_ddl_resets_memo_but_runstats_keeps_it(self):
        db = _tiny_database()
        memo = db.workload_memo()
        db.execute_plan(db.explain(self.SQL), memo=memo)
        assert memo.entries
        # RUNSTATS is a stats-only epoch: the plan cache must go (cost model
        # changed) but every memo payload is a pure function of storage.
        entries_before = dict(memo.entries)
        stats_before = db.stats_epoch
        storage_before = db.storage_epoch
        db.runstats("T")
        assert db.stats_epoch == stats_before + 1
        assert db.storage_epoch == storage_before
        assert db.workload_memo() is memo
        assert memo.entries == entries_before
        db.execute_plan(db.explain(self.SQL), memo=db.workload_memo())
        # DDL moves storage: the memo resets.
        db.create_index(Index("T_VAL_IDX", "T", "t_val"))
        assert db.storage_epoch == storage_before + 1
        assert not db.workload_memo().entries

    def test_runstats_mid_sweep_keeps_aux_and_stays_identical(self, mini_db):
        """The acceptance scenario: RUNSTATS during a measurement sweep no
        longer resets the memo's aux arrays (gathered columns, join
        build/sort caches), and memoized execution after the re-collection
        is still bit-identical to a cold row-engine run."""
        memo = mini_db.workload_memo()
        engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        engine.execute(mini_db.explain(JOIN_SQLS[1]), memo=memo)
        assert memo.entries and memo.aux, "sweep should have populated the memo"
        entries_keys = set(memo.entries)
        aux_keys = set(memo.aux)
        aux_values = {key: memo.aux[key] for key in aux_keys}
        for table in mini_db.tables:
            mini_db.runstats(table)
        refreshed = mini_db.workload_memo()
        assert refreshed is memo
        assert set(memo.entries) == entries_keys
        assert set(memo.aux) == aux_keys
        for key in aux_keys:  # the very same cached objects, not rebuilds
            assert memo.aux[key] is aux_values[key]
        hits_before = memo.hits
        aux_hits_before = memo.aux_hits
        result = engine.execute(mini_db.explain(JOIN_SQLS[1]), memo=memo)
        assert memo.hits > hits_before
        assert memo.aux_hits > aux_hits_before
        reference = Executor(mini_db.catalog, mini_db.config).execute(
            mini_db.explain(JOIN_SQLS[1])
        )
        assert_identical(reference, result, context="post-RUNSTATS replay")

    def test_runstats_stamps_stats_epoch(self):
        db = _tiny_database()
        first = db.runstats("T")
        second = db.runstats("T")
        assert first.collected_epoch is not None
        assert second.collected_epoch == first.collected_epoch + 1
        assert db.stats_epoch == second.collected_epoch


class TestLearningMemoScopes:
    @staticmethod
    def _outcome(database, queries, use_memo):
        galo = Galo(
            database,
            knowledge_base=KnowledgeBase(),
            learning_config=LearningConfig(
                max_joins=2,
                random_plans_per_subquery=3,
                max_variants=2,
                use_workload_memo=use_memo,
            ),
        )
        report = galo.learn(queries, workload_name=f"memo-{use_memo}")
        names = sorted(
            template.name.split(":", 1)[1]
            for template in galo.knowledge_base.all_templates()
        )
        improvements = sorted(
            round(value, 12)
            for record in report.records
            for value in record.improvements
        )
        return report.template_count, names, improvements

    @pytest.mark.slow
    def test_scopes_learn_identically(self, mini_db, mini_queries):
        """Workload-scoped memo or none (``use_workload_memo``): the learner
        must find the exact same templates with the exact same improvements."""
        with_memo = self._outcome(mini_db, mini_queries, True)
        without_memo = self._outcome(mini_db, mini_queries, False)
        assert with_memo == without_memo
        assert with_memo[0] > 0, "sweep should learn something"


class TestOnlineTierMeasurement:
    def test_execute_plans_memo_on_off_identical(self, mini_db):
        """The online measurement path (execute_plans=True) reports the same
        runtimes through the workload memo as without it."""
        queries = [(f"q{i}", sql) for i, sql in enumerate(JOIN_SQLS)]
        kb = KnowledgeBase()
        engine_on = MatchingEngine(mini_db, kb, MatchingConfig(max_joins=2))
        engine_off = MatchingEngine(
            mini_db, kb, MatchingConfig(max_joins=2, use_workload_memo=False)
        )
        assert engine_off.execution_memo() is None
        assert engine_on.execution_memo() is mini_db.workload_memo()
        on = engine_on.reoptimize_workload(queries, execute=True)
        off = engine_off.reoptimize_workload(queries, execute=True)
        assert [r.original_elapsed_ms for r in on] == [
            r.original_elapsed_ms for r in off
        ]
        assert [r.reoptimized_elapsed_ms for r in on] == [
            r.reoptimized_elapsed_ms for r in off
        ]


# ---------------------------------------------------------------------------
# budgeted execution: an interrupted plan must be as invisible as the memo
# ---------------------------------------------------------------------------

BLOOM_SQL = (
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_price < 3 GROUP BY i_category"
)
#: SALES probes a bloom filter built from the handful of cheap items: nearly
#: every probe row is filtered, and each filtered row *lowers* elapsed_ms.
BLOOM_GUIDELINE = (
    '<OPTGUIDELINES><HSJOIN BLOOMFILTER="TRUE">'
    '<TBSCAN TABID="SALES"/><TBSCAN TABID="ITEM"/></HSJOIN></OPTGUIDELINES>'
)


def _plans(db):
    """Optimizer and random plans of the join queries (bloom joins included)."""
    plans = [db.explain(BLOOM_SQL, guidelines=BLOOM_GUIDELINE)]
    for sql in JOIN_SQLS:
        plans.append(db.explain(sql))
        plans += db.random_plans(sql, 4)
    assert any(node.properties.get("bloom_filter") for plan in plans for node in plan.nodes())
    return plans


class TestBudgetedExecution:
    def test_budget_trips_exactly_above_elapsed_on_both_engines(self, mini_db):
        """``execute(budget_ms=b)`` raises if and only if the plan's
        ``elapsed_ms`` is above ``b`` -- wherever along the way it notices."""
        engines = (
            Executor(mini_db.catalog, mini_db.config),
            VectorizedExecutor(mini_db.catalog, mini_db.config),
        )
        for qgm in _plans(mini_db):
            cold = engines[0].execute(qgm)
            for engine in engines:
                at_limit = engine.execute(qgm, budget_ms=cold.elapsed_ms)
                assert_identical(cold, at_limit, context=type(engine).__name__)
                just_below = math.nextafter(cold.elapsed_ms, 0.0)
                with pytest.raises(PlanBudgetExceeded) as raised:
                    engine.execute(qgm, budget_ms=just_below)
                assert raised.value.budget_ms == just_below
                assert raised.value.elapsed_ms > just_below

    def test_interrupted_plan_leaves_a_consistent_memo(self, mini_db):
        """Abort a plan at several depths through a fresh memo, then run it to
        the end through that memo: rows, elapsed, cardinalities and metrics
        equal a memo-less cold run, so whatever the abort stored was complete."""
        engine = VectorizedExecutor(mini_db.catalog, mini_db.config)
        stored = 0
        for qgm in _plans(mini_db):
            cold = engine.execute(qgm)
            for share in (0.0, 0.2, 0.5, 0.8, 0.999):
                memo = ExecutionMemo()
                with pytest.raises(PlanBudgetExceeded):
                    engine.execute(
                        qgm, memo=memo, budget_ms=cold.elapsed_ms * share
                    )
                stored += len(memo.entries)
                through_memo = engine.execute(qgm, memo=memo)
                assert_identical(cold, through_memo, context=f"share {share}")
        assert stored > 0, "no abort ever happened above a completed subtree"

    def test_bloom_rebate_is_not_mistaken_for_an_overrun(self, mini_db):
        """The one term of ``elapsed_ms`` that falls: after both scans the
        partial time is above the finished plan's, so a budget between the two
        must let the plan finish."""
        qgm = mini_db.explain(BLOOM_SQL, guidelines=BLOOM_GUIDELINE)
        cold = Executor(mini_db.catalog, mini_db.config).execute(qgm)
        assert cold.metrics.bloom_filtered_rows > 1000
        scans_only = dataclasses.replace(
            cold.metrics, hash_build_rows=0, hash_probe_rows=0, bloom_filtered_rows=0
        ).elapsed_ms()
        budget_ms = (cold.elapsed_ms + scans_only) / 2
        assert cold.elapsed_ms < budget_ms < scans_only
        for engine_class in (Executor, VectorizedExecutor):
            engine = engine_class(mini_db.catalog, mini_db.config)
            assert_identical(cold, engine.execute(qgm, budget_ms=budget_ms))

    def test_traced_abort_closes_every_span_and_marks_the_node(self, mini_db):
        qgm = mini_db.explain(JOIN_SQLS[2])
        cold = mini_db.execute_plan(qgm)
        budget_ms = cold.elapsed_ms * 0.5
        tracer = Tracer()
        root = tracer.start_trace("budgeted")
        with pytest.raises(PlanBudgetExceeded):
            mini_db.execute_plan(
                qgm, memo=ExecutionMemo(), span=root, budget_ms=budget_ms
            )
        assert current_execution_span() is None
        assert len(tracer.store) == 0  # nothing finalized before the root ends
        root.end()
        spans = tracer.store.traces()[0]["spans"]
        # Every node span that was opened was closed and recorded (an open
        # span never reaches the store), down to the aborting one.
        marked = [span for span in spans if span["attributes"].get("aborted")]
        assert len(marked) == 1
        attributes = marked[0]["attributes"]
        assert attributes["budget_ms"] == budget_ms
        assert budget_ms < attributes["elapsed_ms"] <= cold.elapsed_ms
        by_id = {span["span_id"]: span for span in spans}
        ancestor = by_id.get(marked[0]["parent_id"])
        while ancestor is not None and ancestor["parent_id"] is not None:
            assert ancestor["attributes"]["error"] == "PlanBudgetExceeded"
            ancestor = by_id.get(ancestor["parent_id"])
        # The same executor, untraced and unbudgeted, is unaffected.
        assert_identical(cold, mini_db.execute_plan(qgm))

    def test_budget_is_private_to_one_execution(self, mini_db):
        """The learner's budgeted runs and the serving threads' plain ones go
        through the one shared ``Database.executor`` at the same time."""
        plans = [mini_db.explain(sql) for sql in JOIN_SQLS]
        cold = [mini_db.execute_plan(qgm) for qgm in plans]
        stop = threading.Event()
        trips = []

        def budgeted():
            while not stop.is_set():
                for qgm in plans:
                    try:
                        mini_db.executor.execute(qgm, budget_ms=0.0)
                    except PlanBudgetExceeded:
                        trips.append(1)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        learner = threading.Thread(target=budgeted)
        learner.start()
        try:
            for _ in range(5):
                for qgm, reference in zip(plans, cold):
                    assert_identical(reference, mini_db.executor.execute(qgm))
        finally:
            stop.set()
            learner.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not learner.is_alive()
        assert trips

    def test_only_the_learning_tier_passes_a_budget(self):
        """``PlanBudgetExceeded`` can only reach a caller that asked for a
        budget.  The two that do catch it themselves, so the serving tier's
        catch-all handlers never see it; ``execute_plan`` only hands it on."""
        source_root = pathlib.Path(repro.__file__).parent
        passing = {}
        for path in source_root.rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if any(
                keyword.arg == "budget_ms"
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                for keyword in node.keywords
            ):
                passing[str(path.relative_to(source_root))] = path.read_text(
                    encoding="utf-8"
                )
        assert sorted(passing) == [
            "core/learning/engine.py",
            "engine/database.py",
            "engine/executor/db2batch.py",
        ]
        for name in ("core/learning/engine.py", "engine/executor/db2batch.py"):
            assert "except PlanBudgetExceeded" in passing[name]
