"""Unit tests for the learning engine building blocks and the engine itself."""

import contextlib
import math
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase
from repro.core.learning import engine as engine_module
from repro.core.learning.engine import IMPROVEMENT_THRESHOLD, LearningConfig, LearningEngine
from repro.core.learning.property_ranges import generate_variants
from repro.core.learning.ranking import (
    candidate_cap_ms,
    improvement_bound_ms,
    kmeans_two_clusters,
    rank_measurements,
    robust_elapsed_ms,
)
from repro.core.learning.subquery import generate_subqueries
from repro.core.planutils import canonical_label_map, join_tree_root
from repro.engine.executor.db2batch import BatchMeasurement, Db2Batch
from repro.engine.executor.executor import ExecutionResult
from repro.engine.executor.metrics import RuntimeMetrics
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select
from repro.obs.tracing import NULL_SPAN, Tracer


def bind_sql(db, sql):
    return bind(parse_select(sql), db.catalog, sql)


FOUR_WAY = (
    "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
    "AND i_category = 'Music' GROUP BY i_category, o_state"
)


class TestSubqueryGeneration:
    def test_counts_by_threshold(self, mini_db):
        query = bind_sql(mini_db, FOUR_WAY)
        # 3 dims joined to 1 fact (star): connected pairs = 3, triples = 3, quads = 1
        assert len(generate_subqueries(query, max_joins=1)) == 3
        assert len(generate_subqueries(query, max_joins=2)) == 6
        assert len(generate_subqueries(query, max_joins=3)) == 7

    def test_subqueries_are_connected(self, mini_db):
        query = bind_sql(mini_db, FOUR_WAY)
        for subquery in generate_subqueries(query, max_joins=3):
            assert subquery.query.join_predicates
            assert subquery.join_count == len(subquery.aliases) - 1

    def test_local_predicates_projected(self, mini_db):
        query = bind_sql(mini_db, FOUR_WAY)
        for subquery in generate_subqueries(query, max_joins=2):
            if "ITEM" in subquery.aliases:
                assert subquery.query.predicates_for("ITEM")

    def test_rendered_sql_parses_and_binds(self, mini_db):
        query = bind_sql(mini_db, FOUR_WAY)
        for subquery in generate_subqueries(query, max_joins=2):
            rebound = bind_sql(mini_db, subquery.sql)
            assert sorted(rebound.aliases) == sorted(subquery.aliases)

    def test_structure_key_merges_identical_subqueries(self, mini_db):
        first = bind_sql(mini_db, FOUR_WAY)
        second = bind_sql(mini_db, FOUR_WAY.replace("o_state, COUNT(*)", "o_state, SUM(s_price)"))
        keys_first = {s.structure_key() for s in generate_subqueries(first, 2)}
        keys_second = {s.structure_key() for s in generate_subqueries(second, 2)}
        assert keys_first == keys_second

    def test_no_aggregation_in_subqueries(self, mini_db):
        query = bind_sql(mini_db, FOUR_WAY)
        for subquery in generate_subqueries(query, max_joins=3):
            assert not subquery.query.has_aggregation


class TestPropertyRanges:
    def test_variants_include_original_first(self, mini_db):
        query = bind_sql(mini_db, "SELECT i_class FROM item WHERE i_category = 'Music'")
        variants = generate_variants(mini_db.catalog, query)
        assert variants[0].is_original
        assert len(variants) >= 2

    def test_variant_values_sampled_from_data(self, mini_db):
        query = bind_sql(mini_db, "SELECT i_class FROM item WHERE i_category = 'Music'")
        categories = set(mini_db.catalog.table_data("ITEM").column_values("i_category"))
        for variant in generate_variants(mini_db.catalog, query)[1:]:
            predicate = variant.query.predicates_for("ITEM")[0]
            assert predicate.right.value in categories

    def test_query_without_equality_predicates_has_single_variant(self, mini_db):
        query = bind_sql(mini_db, "SELECT i_class FROM item WHERE i_price > 50")
        variants = generate_variants(mini_db.catalog, query)
        assert len(variants) == 1

    def test_max_variants_respected(self, mini_db):
        query = bind_sql(
            mini_db,
            "SELECT i_class FROM item WHERE i_category = 'Music' AND i_class = 'class_1'",
        )
        assert len(generate_variants(mini_db.catalog, query, max_variants=2)) == 2


class TestRanking:
    def test_kmeans_separates_clusters(self):
        values = [10.0, 11.0, 10.5, 30.0, 29.0]
        assignments, centroids = kmeans_two_clusters(values)
        assert assignments == [0, 0, 0, 1, 1]
        assert centroids[0] < centroids[1]

    def test_kmeans_identical_values(self):
        assignments, _ = kmeans_two_clusters([5.0, 5.0, 5.0])
        assert assignments == [0, 0, 0]

    def test_kmeans_empty(self):
        assert kmeans_two_clusters([]) == ([], (0.0, 0.0))

    def test_robust_elapsed_discards_interference_spike(self, mini_db):
        qgm = mini_db.explain("SELECT COUNT(*) FROM outlet")
        batch = Db2Batch(mini_db.catalog, mini_db.config, runs=6, interference_probability=0.0)
        measurement = batch.benchmark(qgm)
        # Inject an artificial interference spike and check it is discarded.
        measurement.run_elapsed_ms[0] *= 10
        robust = robust_elapsed_ms(measurement)
        assert robust < measurement.run_elapsed_ms[0] / 2

    def test_rank_measurements_orders_by_elapsed(self, mini_db):
        sql = "SELECT i_category, COUNT(*) FROM sales, item WHERE s_item_sk = i_item_sk GROUP BY i_category"
        plans = [mini_db.explain(sql)] + mini_db.random_plans(sql, 3)
        batch = Db2Batch(mini_db.catalog, mini_db.config, runs=3)
        ranked = rank_measurements([batch.benchmark(plan) for plan in plans])
        elapsed = [plan.elapsed_ms for plan in ranked]
        assert elapsed == sorted(elapsed)


class TestPlanUtils:
    def test_join_tree_root_skips_top_operators(self, mini_db):
        qgm = mini_db.explain(FOUR_WAY)
        root = join_tree_root(qgm)
        assert root.is_join

    def test_canonical_label_map_is_dense_and_ordered(self, mini_db):
        qgm = mini_db.explain(FOUR_WAY)
        labels = canonical_label_map(join_tree_root(qgm))
        assert sorted(labels.values()) == [f"TABLE_{i}" for i in range(1, 5)]


class TestLearningEngine:
    @pytest.fixture(scope="class")
    def learned(self, mini_db):
        kb = KnowledgeBase()
        engine = LearningEngine(
            mini_db,
            kb,
            LearningConfig(
                max_joins=2,
                random_plans_per_subquery=5,
                max_variants=2,
            ),
        )
        record = engine.learn_query(FOUR_WAY, query_name="q4", workload_name="unit")
        return kb, engine, record

    def test_learning_discovers_templates(self, learned):
        kb, _, record = learned
        assert record.analyzed_subquery_count > 0
        assert len(kb) == len(record.templates_learned)
        assert len(kb) >= 1

    def test_learned_improvements_exceed_threshold(self, learned):
        _, _, record = learned
        for improvement in record.improvements:
            assert improvement >= IMPROVEMENT_THRESHOLD

    def test_templates_are_abstracted(self, learned):
        kb, _, _ = learned
        for template in kb.all_templates():
            assert template.canonical_labels
            assert all(label.startswith("TABLE_") for label in template.canonical_labels.values())
            assert template.guideline_xml.startswith("<OPTGUIDELINES>")

    def test_duplicate_subqueries_merged_across_queries(self, mini_db, learned):
        kb, engine, first_record = learned
        second_record = engine.learn_query(FOUR_WAY, query_name="q4-again", workload_name="unit")
        assert second_record.analyzed_subquery_count == 0
        assert second_record.templates_learned == []

    def test_galo_facade_reoptimizes_learned_query(self, mini_db, learned):
        kb, _, _ = learned
        galo = Galo(mini_db, knowledge_base=kb)
        result = galo.reoptimize(FOUR_WAY, query_name="q4")
        assert result.original_elapsed_ms is not None
        if result.plan_changed:
            assert result.reoptimized_elapsed_ms <= result.original_elapsed_ms * 1.05


# ---------------------------------------------------------------------------
# incumbent-bounded benchmarking: the capped analysis against its oracle
# ---------------------------------------------------------------------------


class ScriptedBatch:
    """Stands in for ``Db2Batch``: the i-th plan a variant benchmarks gets the
    i-th scripted time (one sample, so the noise-filtered time is that value)
    and the i-th tie breaker (as ``logical_reads``)."""

    def __init__(self, times, tie_breakers):
        self.times = list(times)
        self.tie_breakers = list(tie_breakers)
        self.calls = 0
        self.aborted = 0

    def benchmark(self, qgm, memo=None):
        time_ms = self.times[self.calls]
        metrics = RuntimeMetrics(logical_reads=self.tie_breakers[self.calls])
        self.calls += 1
        return BatchMeasurement(
            qgm=qgm,
            base_elapsed_ms=time_ms,
            run_elapsed_ms=[time_ms],
            metrics=metrics,
            result=ExecutionResult(metrics=metrics, elapsed_ms=time_ms),
        )

    def benchmark_within(self, qgm, cap_ms, memo=None):
        measurement = self.benchmark(qgm, memo)
        if measurement.run_elapsed_ms[0] > cap_ms:
            self.aborted += 1
            return None
        return measurement


def candidate_key(candidate):
    """What a variant's analysis decided (``improvement`` compared with ==)."""
    if candidate is None:
        return None
    return (
        candidate.problem_signature,
        candidate.best_signature,
        candidate.improvement,
        candidate.node_cardinalities,
    )


def uncapped():
    """The oracle: budget = infinity on both of the engine's budgeted runs."""
    stack = contextlib.ExitStack()
    for name in ("candidate_cap_ms", "improvement_bound_ms"):
        stack.enter_context(
            mock.patch.object(engine_module, name, lambda *args, **kwargs: math.inf)
        )
    return stack


def analyze_scripted(database, times, tie_breakers, capped):
    """Run the real ``_analyze_variant`` over scripted measurements."""
    engine = LearningEngine(
        database, KnowledgeBase(), LearningConfig(random_plans_per_subquery=len(times) - 1)
    )
    subquery = generate_subqueries(bind_sql(database, FOUR_WAY), max_joins=3)[-1]
    variant = generate_variants(database.catalog, subquery.query, max_variants=1)[0]
    batch = ScriptedBatch(times, tie_breakers)
    with contextlib.ExitStack() as stack:
        stack.enter_context(
            mock.patch.object(engine_module, "Db2Batch", lambda *args, **kwargs: batch)
        )
        if not capped:
            stack.enter_context(uncapped())
        candidate = engine._analyze_variant(
            variant, subquery, None, NULL_SPAN, engine_module._PlanCounts()
        )
    return candidate, batch


class TestCandidateCap:
    """``candidate_cap_ms`` on hand-made measurements: a plan stopped at the
    cap never changes what the ranking and the improvement test decide."""

    def decide(self, database, times, tie_breakers=None):
        tie_breakers = tie_breakers or [0] * len(times)
        capped, batch = analyze_scripted(database, times, tie_breakers, capped=True)
        oracle, _ = analyze_scripted(database, times, tie_breakers, capped=False)
        assert candidate_key(capped) == candidate_key(oracle)
        return capped, batch

    def test_cap_follows_the_best_completed_plan(self):
        first = candidate_cap_ms(100.0, None, 0.15)
        assert first == pytest.approx(1.02 * 85.0)
        assert candidate_cap_ms(100.0, 90.0, 0.15) == first  # 90 does not improve enough
        assert candidate_cap_ms(100.0, 60.0, 0.15) == pytest.approx(1.02 * 60.0)
        # Bounds sit a hair above the exact values, never below them.
        assert first >= 1.02 * 85.0 and improvement_bound_ms(100.0, 0.15) >= 85.0

    def test_losers_are_stopped_and_the_winner_is_kept(self, mini_db):
        candidate, batch = self.decide(mini_db, [100.0, 95.0, 70.0, 71.5, 200.0, 60.0])
        # 95 > 1.02 x 85; 71.5 > 1.02 x 70; 200 is hopeless; 70 and 60 complete.
        assert batch.aborted == 3
        assert candidate.improvement == (100.0 - 60.0) / 100.0

    def test_runner_up_inside_the_tie_window_is_never_stopped(self, mini_db):
        # 81 is within 2 % of 80 and has the smaller tie breaker: it wins the
        # swap, so it must have been benchmarked to the end.
        candidate, batch = self.decide(mini_db, [100.0, 80.0, 81.0], [9, 5, 1])
        assert batch.aborted == 0
        assert candidate.improvement == (100.0 - 81.0) / 100.0
        # Just outside the window it cannot be swapped in, and is stopped.
        candidate, batch = self.decide(mini_db, [100.0, 80.0, 81.7], [9, 5, 1])
        assert batch.aborted == 1
        assert candidate.improvement == (100.0 - 80.0) / 100.0

    def test_best_above_the_improvement_bound_yields_nothing(self, mini_db):
        # 86 completes (inside the cap) but improves by 14 % only; 90 is
        # stopped; whoever is first, the variant has no rewrite.
        candidate, batch = self.decide(mini_db, [100.0, 90.0, 86.0])
        assert candidate is None
        assert batch.aborted == 1

    def test_zero_time_optimizer_plan(self, mini_db):
        candidate, _ = self.decide(mini_db, [0.0, 5.0, 0.0])
        assert candidate is None

    #: Multiples of the optimizer plan's time that sit on the edges the
    #: argument has to get right: the improvement bound, the tie window of a
    #: plan at the bound and of a clear winner, each a rounding error apart.
    EDGES = [
        edge * nudge
        for edge in (0.85, 0.85 * 1.02, 0.8, 0.8 * 1.02, 0.5, 0.5 * 1.02, 1.0, 1.02)
        for nudge in (1.0, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 - 1e-10, 1.0 + 1e-10)
    ]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        optimizer_ms=st.floats(0.01, 1e5),
        plans=st.lists(
            st.one_of(
                # a multiple of the optimizer plan's time ...
                st.tuples(st.just(0), st.floats(0.3, 1.2)),
                st.tuples(st.just(0), st.sampled_from(EDGES)),
                # ... or a near-tie of an earlier plan (index taken modulo).
                st.tuples(st.integers(1, 5), st.floats(0.99, 1.03)),
                st.tuples(st.integers(1, 5), st.sampled_from([1.02, 1.0199, 1.0201, 1.0])),
            ),
            min_size=1,
            max_size=6,
        ),
        tie_breakers=st.lists(st.integers(0, 2), min_size=7, max_size=7),
    )
    def test_capped_decision_equals_the_oracle(
        self, optimizer_ms, plans, tie_breakers, mini_db
    ):
        times = [optimizer_ms]
        for earlier, ratio in plans:
            times.append(times[earlier % len(times)] * ratio)
        self.decide(mini_db, times, tie_breakers)


@pytest.mark.slow
class TestIncumbentBoundOracle:
    """The capped learning loop against budget = infinity over the TPC-DS and
    client workloads: equal candidates for every variant, equal KBs."""

    CONFIG = dict(max_joins=3, random_plans_per_subquery=4, max_variants=2)

    def learn(self, workload, capped):
        """Learn the first queries of ``workload``; returns what every variant
        decided, the KB's identity and what the run was seen doing."""
        database = workload.database
        seen = {"caps": [], "variants": [], "parents": []}

        class Recording(LearningEngine):
            def _analyze_variant(self, *args):
                candidate = super()._analyze_variant(*args)
                seen["variants"].append(candidate_key(candidate))
                return candidate

            def _improves_parent(self, *args):
                improves = super()._improves_parent(*args)
                seen["parents"].append(improves)
                return improves

        real_cap = engine_module.candidate_cap_ms

        def recording_cap(optimizer_ms, best_ms, threshold):
            seen["caps"].append((optimizer_ms, best_ms))
            return real_cap(optimizer_ms, best_ms, threshold)

        kb = KnowledgeBase()
        engine = Recording(database, kb, LearningConfig(**self.CONFIG))
        tracer = Tracer()
        root = tracer.start_trace("learn")
        with contextlib.ExitStack() as stack:
            if capped:
                stack.enter_context(
                    mock.patch.object(engine_module, "candidate_cap_ms", recording_cap)
                )
            else:
                stack.enter_context(uncapped())
            records = [
                engine.learn_query(sql, query_name=name, workload_name="oracle", span=root)
                for name, sql in workload.queries[:8]
            ]
        root.end()
        seen["spans"] = tracer.store.traces()[0]["spans"]
        seen["records"] = records
        identity = sorted(
            (
                template.name,
                template.problem_signature,
                template.guideline_xml,
                template.improvement,
                sorted(template.cardinality_bounds.items()),
            )
            for template in kb.all_templates()
        )
        return identity, seen

    @pytest.mark.parametrize("workload_name", ["tpcds", "client"])
    def test_capped_learning_equals_the_oracle(
        self, workload_name, tiny_tpcds_workload, tiny_client_workload
    ):
        workload = {"tpcds": tiny_tpcds_workload, "client": tiny_client_workload}[
            workload_name
        ]
        capped_kb, capped = self.learn(workload, capped=True)
        oracle_kb, oracle = self.learn(workload, capped=False)
        assert capped["variants"] == oracle["variants"]
        assert capped["parents"] == oracle["parents"]
        assert capped_kb == oracle_kb and capped_kb

        # The run must have exercised what the argument is about.
        aborted = sum(record.plans_aborted for record in capped["records"])
        benchmarked = sum(record.plans_benchmarked for record in capped["records"])
        assert 0 < aborted < benchmarked
        assert sum(record.plans_aborted for record in oracle["records"]) == 0
        bound = engine_module.improvement_bound_ms
        assert any(
            best_ms is not None and best_ms < bound(optimizer_ms, 0.15)
            for optimizer_ms, best_ms in capped["caps"]
        ), "no completed random plan ever lowered the cap"
        assert any(
            best_ms is not None and best_ms > bound(optimizer_ms, 0.15)
            for optimizer_ms, best_ms in capped["caps"]
        ), "no variant's best random plan stayed above the improvement bound"

        # The spans report the same counts, phase by phase.
        by_id = {span["span_id"]: span for span in capped["spans"]}
        subquery_spans = [s for s in capped["spans"] if s["name"] == "analyze_subquery"]
        assert sum(s["attributes"]["plans_aborted"] for s in subquery_spans) == aborted
        assert (
            sum(s["attributes"]["plans_benchmarked"] for s in subquery_spans) == benchmarked
        )
        phases = {
            span["name"]
            for span in capped["spans"]
            if by_id.get(span["parent_id"], {}).get("name") == "analyze_subquery"
        }
        assert phases >= {
            "optimize", "generate", "benchmark_optimizer", "benchmark_random", "rank",
        }

        # The parent validation tripped its budget, and a trip is exactly
        # "does not improve the parent".
        parent_spans = [s for s in capped["spans"] if s["name"] == "improves_parent"]
        assert len(parent_spans) == len(capped["parents"])
        tripped = [
            improves
            for span, improves in zip(parent_spans, capped["parents"])
            if span["attributes"]["aborted"]
        ]
        assert tripped and not any(tripped)
