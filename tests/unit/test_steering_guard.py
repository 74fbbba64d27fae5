"""Steering-guard unit tests: the win/loss ledger, quarantine lifecycle,
workload drift detection and the priority learning scheduler.

The contract under test, per the robustness issue: a template whose steered
executions keep regressing past the optimizer baseline is quarantined (its
matches stop steering) while deterministic probes keep judging it; probation
wins re-arm it with a fresh ledger; chronic losers evict first; guard state
survives knowledge-base checkpoints; and drift onset switches background
learning from FIFO to frequency x benefit priority.
"""

import pytest

from repro.core.knowledge_base import (
    KnowledgeBase,
    TemplateGuardRecord,
    TemplateMatch,
    abstract_template_from_plan,
)
from repro.core.matching.segmenter import segment_plan
from repro.service.feedback import FeedbackMonitor, LearningTask, sql_fingerprint
from repro.service.guard import (
    GUARD_COUNTERS,
    LearningScheduler,
    SteeringGuard,
    WorkloadDriftDetector,
    drift_score,
    workload_features,
)
from repro.service.metrics import ServiceMetrics


SQL = (
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category"
)


def kb_with_templates(db, count=1):
    """A knowledge base holding ``count`` templates learned from SQL."""
    kb = KnowledgeBase()
    made = 0
    for sql in (
        SQL,
        "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
        "GROUP BY i_category",
        "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk "
        "AND s_outlet_sk = o_outlet_sk AND i_category = 'Music' "
        "GROUP BY i_category, o_state",
    ):
        for segment in segment_plan(db.explain(sql), max_joins=3):
            made += 1
            abstract_template_from_plan(
                kb,
                segment,
                name=f"guard{made}",
                source_workload="unit",
                source_query=f"q{made}",
                improvement=0.1 * made,
                catalog=db.catalog,
            )
            if made >= count:
                return kb
    return kb


def make_guard(**overrides):
    defaults = dict(
        regression_threshold=1.5,
        min_observations=2,
        quarantine_loss_rate=0.5,
        probation_wins=2,
        probe_interval=3,
    )
    defaults.update(overrides)
    return SteeringGuard(**defaults)


def matches_for(kb, plan_root):
    """A TemplateMatch per KB template (screen only reads the template id)."""
    return [
        TemplateMatch(template=template, label_to_alias={}, subplan_root=plan_root)
        for template in kb.all_templates()
    ]


FEATURE_WIDTH = 6


class TestWorkloadFeatures:
    def test_feature_vector_shape_and_flags(self, mini_db):
        plan = mini_db.explain(SQL)
        features = workload_features(plan)
        assert len(features) == FEATURE_WIDTH
        joins, scans, predicates, group_by, order_by, scan_share = features
        assert joins >= 1  # sales x item
        assert scans >= 2
        assert predicates >= 1
        assert group_by == 1.0
        assert order_by in (0.0, 1.0)
        assert 0.0 < scan_share <= 1.0

    def test_subtree_and_full_plan_agree_on_type(self, mini_db):
        plan = mini_db.explain(SQL)
        segment = next(iter(segment_plan(plan, max_joins=3)))
        features = workload_features(segment)
        assert len(features) == FEATURE_WIDTH

    def test_drift_score_zero_for_identical_means(self):
        mean = [2.0, 3.0, 5.0, 1.0, 0.0, 0.5]
        assert drift_score(mean, mean) == 0.0
        assert drift_score([], mean) == 0.0
        assert drift_score(mean, mean[:-1]) == 0.0  # width mismatch is inert

    def test_drift_score_grows_with_distance(self):
        reference = [1.0, 2.0, 3.0, 0.0, 0.0, 0.3]
        near = [1.5, 2.0, 3.0, 0.0, 0.0, 0.3]
        far = [6.0, 8.0, 12.0, 1.0, 1.0, 0.9]
        assert drift_score(near, reference) < drift_score(far, reference)


class TestLedger:
    def test_unsteered_establishes_baseline(self, mini_db):
        kb = kb_with_templates(mini_db)
        guard = make_guard()
        verdict = guard.observe(
            kb, sql=SQL, elapsed_ms=100.0, steered=False, template_ids=[]
        )
        assert verdict == "baseline"
        assert guard.baseline_ms(SQL) == 100.0
        # Only the best (lowest) unsteered run is kept as the baseline.
        guard.observe(kb, sql=SQL, elapsed_ms=250.0, steered=False, template_ids=[])
        assert guard.baseline_ms(SQL) == 100.0
        guard.observe(kb, sql=SQL, elapsed_ms=80.0, steered=False, template_ids=[])
        assert guard.baseline_ms(SQL) == 80.0

    def test_steered_without_baseline_is_unjudged(self, mini_db):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        guard = make_guard()
        verdict = guard.observe(
            kb, sql=SQL, elapsed_ms=100.0, steered=True, template_ids=[tid]
        )
        assert verdict == "unjudged"
        assert guard.metrics.count("steering_unjudged") == 1
        # Unjudged executions never touch the ledger.
        assert kb.guard_record(tid).observations == 0

    def test_win_and_loss_verdicts(self, mini_db):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        guard = make_guard()
        guard.observe(kb, sql=SQL, elapsed_ms=100.0, steered=False, template_ids=[])
        # Within the 1.5x threshold: a win.
        assert (
            guard.observe(kb, sql=SQL, elapsed_ms=149.0, steered=True, template_ids=[tid])
            == "win"
        )
        # Beyond it: a loss.
        assert (
            guard.observe(kb, sql=SQL, elapsed_ms=151.0, steered=True, template_ids=[tid])
            == "loss"
        )
        record = kb.guard_record(tid)
        assert record.wins == 1 and record.losses == 1
        assert guard.metrics.count("steering_wins") == 1
        assert guard.metrics.count("steering_losses") == 1

    def test_baseline_history_is_bounded(self, mini_db):
        kb = kb_with_templates(mini_db)
        guard = make_guard(max_tracked_statements=4)
        for position in range(10):
            guard.observe(
                kb,
                sql=f"SELECT {position} FROM sales",
                elapsed_ms=10.0,
                steered=False,
                template_ids=[],
            )
        assert guard.baseline_ms("SELECT 9 FROM sales") == 10.0
        assert guard.baseline_ms("SELECT 0 FROM sales") is None


class TestQuarantineLifecycle:
    def quarantined_guard_and_kb(self, db):
        """Drive one template into quarantine; returns (guard, kb, tid)."""
        kb = kb_with_templates(db)
        tid = next(iter(kb.templates))
        guard = make_guard()
        guard.observe(kb, sql=SQL, elapsed_ms=100.0, steered=False, template_ids=[])
        guard.observe(kb, sql=SQL, elapsed_ms=151.0, steered=True, template_ids=[tid])
        guard.observe(kb, sql=SQL, elapsed_ms=151.0, steered=True, template_ids=[tid])
        return guard, kb, tid

    def test_losses_cross_threshold_quarantines(self, mini_db):
        guard, kb, tid = self.quarantined_guard_and_kb(mini_db)
        assert kb.is_quarantined(tid)
        assert kb.quarantined_template_ids() == [tid]
        assert guard.metrics.count("templates_quarantined") == 1
        assert kb.lifecycle_stats["quarantined"] == 1

    def test_below_min_observations_never_quarantines(self, mini_db):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        guard = make_guard(min_observations=5)
        guard.observe(kb, sql=SQL, elapsed_ms=100.0, steered=False, template_ids=[])
        for _ in range(4):
            guard.observe(kb, sql=SQL, elapsed_ms=500.0, steered=True, template_ids=[tid])
        assert not kb.is_quarantined(tid)

    def test_screen_blocks_with_deterministic_probe_cadence(self, mini_db):
        guard, kb, tid = self.quarantined_guard_and_kb(mini_db)
        plan = mini_db.explain(SQL)
        matches = matches_for(kb, plan.root)
        # probe_interval=3: ticks 1,2 block; tick 3 probes; repeats.
        outcomes = []
        for _ in range(6):
            screen = guard.screen(kb, matches)
            outcomes.append("probe" if screen.probed else "block")
        assert outcomes == ["block", "block", "probe", "block", "block", "probe"]
        blocked_screen = guard.screen(kb, matches)
        assert blocked_screen.degraded and blocked_screen.allowed == []
        assert guard.metrics.count("quarantine_probes") == 2
        assert guard.metrics.count("quarantine_blocks") == 5

    def test_unquarantined_matches_pass_through_unchanged(self, mini_db):
        kb = kb_with_templates(mini_db)
        guard = make_guard()
        plan = mini_db.explain(SQL)
        matches = matches_for(kb, plan.root)
        screen = guard.screen(kb, matches)
        assert screen.allowed == matches  # same objects, same order
        assert not screen.degraded and not screen.probed
        assert guard.metrics.count("quarantine_blocks") == 0

    def test_probation_wins_rearm_with_fresh_ledger(self, mini_db):
        guard, kb, tid = self.quarantined_guard_and_kb(mini_db)
        # Two consecutive probe wins (probation_wins=2) re-arm the template.
        guard.observe(kb, sql=SQL, elapsed_ms=90.0, steered=True, template_ids=[tid])
        assert kb.is_quarantined(tid)
        guard.observe(kb, sql=SQL, elapsed_ms=90.0, steered=True, template_ids=[tid])
        assert not kb.is_quarantined(tid)
        assert guard.metrics.count("templates_rearmed") == 1
        assert kb.lifecycle_stats["rearmed"] == 1
        # Re-arming resets the ledger: one more loss must not re-trip
        # quarantine straight away (observations start from zero again).
        record = kb.guard_record(tid)
        assert record.wins == 0 and record.losses == 0
        guard.observe(kb, sql=SQL, elapsed_ms=500.0, steered=True, template_ids=[tid])
        assert not kb.is_quarantined(tid)

    def test_probation_loss_resets_progress(self, mini_db):
        guard, kb, tid = self.quarantined_guard_and_kb(mini_db)
        guard.observe(kb, sql=SQL, elapsed_ms=90.0, steered=True, template_ids=[tid])
        # A probe loss resets the consecutive-win count.
        guard.observe(kb, sql=SQL, elapsed_ms=500.0, steered=True, template_ids=[tid])
        guard.observe(kb, sql=SQL, elapsed_ms=90.0, steered=True, template_ids=[tid])
        assert kb.is_quarantined(tid), "one win after a reset is not probation"
        guard.observe(kb, sql=SQL, elapsed_ms=90.0, steered=True, template_ids=[tid])
        assert not kb.is_quarantined(tid)

    def test_guard_counters_are_registered(self):
        metrics = ServiceMetrics()
        guard = make_guard()
        guard.register_metrics(metrics)
        for name in GUARD_COUNTERS:
            metrics.increment(name)  # raises if undeclared
            assert metrics.count(name) == 1


class TestEvictionBias:
    def test_chronic_losers_evict_first(self, mini_db):
        kb = kb_with_templates(mini_db, count=3)
        order_before = kb.eviction_order()
        # The template the benefit score protects most is the *last* to go.
        protected = order_before[-1]
        for _ in range(3):
            kb.record_steering_outcome(protected, win=False)
        order_after = kb.eviction_order()
        assert order_after[0] == protected
        # Everyone else keeps their relative order.
        assert [t for t in order_after if t != protected] == [
            t for t in order_before if t != protected
        ]

    def test_balanced_record_keeps_benefit_order(self, mini_db):
        kb = kb_with_templates(mini_db, count=3)
        order_before = kb.eviction_order()
        kb.record_steering_outcome(order_before[-1], win=True)
        kb.record_steering_outcome(order_before[-1], win=False)
        assert kb.eviction_order() == order_before

    def test_eviction_drops_guard_record(self, mini_db):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        kb.record_steering_outcome(tid, win=False)
        kb.quarantine_template(tid)
        assert kb.evict_template(tid)
        assert kb.quarantined_template_ids() == []
        assert kb.guard_record(tid).observations == 0


class TestGuardPersistence:
    def test_guard_state_round_trips_through_checkpoint(self, mini_db, tmp_path):
        kb = kb_with_templates(mini_db, count=2)
        ids = sorted(kb.templates)
        kb.record_steering_outcome(ids[0], win=True)
        kb.record_steering_outcome(ids[0], win=False)
        kb.quarantine_template(ids[0])
        kb.record_learned_features([2.0, 3.0, 5.0, 1.0, 0.0, 0.5])
        kb.save(str(tmp_path))
        assert (tmp_path / "v1" / "guard_state.json").exists()

        restored = KnowledgeBase.load(str(tmp_path))
        assert restored.quarantined_template_ids() == [ids[0]]
        record = restored.guard_record(ids[0])
        assert record.wins == 1 and record.losses == 1 and record.quarantined
        count, mean = restored.learned_feature_population()
        assert count == 1
        assert mean == [2.0, 3.0, 5.0, 1.0, 0.0, 0.5]

    def test_quarantine_transition_marks_dirty(self, mini_db, tmp_path):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        kb.save(str(tmp_path))
        assert not kb.dirty
        # Win/loss tallies are soft state: they ride along with the next
        # checkpoint but never force one.
        kb.record_steering_outcome(tid, win=False)
        assert not kb.dirty
        assert kb.quarantine_template(tid)
        assert kb.dirty
        kb.save(str(tmp_path))
        assert not kb.dirty
        assert kb.rearm_template(tid)
        assert kb.dirty

    def test_stale_guard_entries_are_dropped_on_load(self, mini_db, tmp_path):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        kb.record_steering_outcome(tid, win=False)
        kb.quarantine_template(tid)
        kb.evict_template(tid)
        kb.save(str(tmp_path))
        restored = KnowledgeBase.load(str(tmp_path))
        assert restored.quarantined_template_ids() == []

    def test_record_ignores_unknown_template(self, mini_db):
        kb = kb_with_templates(mini_db)
        record = kb.record_steering_outcome("no-such-template", win=False)
        assert isinstance(record, TemplateGuardRecord)
        assert record.observations == 0
        assert not kb.quarantine_template("no-such-template")


class TestDriftDetector:
    REFERENCE = (8, [1.0, 2.0, 3.0, 1.0, 0.0, 0.4])
    SHIFTED = [6.0, 9.0, 14.0, 0.0, 1.0, 0.9]

    def test_no_drift_until_window_full(self):
        detector = WorkloadDriftDetector(window=4, threshold=0.1)
        for position in range(3):
            assert not detector.observe(f"q{position}", self.SHIFTED, self.REFERENCE)
            assert detector.score == 0.0
        assert detector.observe("q3", self.SHIFTED, self.REFERENCE)
        assert detector.drifted and detector.score > 0.1

    def test_no_drift_against_thin_reference(self):
        detector = WorkloadDriftDetector(
            window=2, threshold=0.1, min_reference_samples=4
        )
        thin = (1, self.REFERENCE[1])
        assert not detector.observe("a", self.SHIFTED, thin)
        assert not detector.observe("b", self.SHIFTED, thin)
        assert detector.score == 0.0 and not detector.drifted

    def test_onset_fires_once(self):
        detector = WorkloadDriftDetector(window=2, threshold=0.1)
        assert not detector.observe("a", self.SHIFTED, self.REFERENCE)
        assert detector.observe("b", self.SHIFTED, self.REFERENCE)
        # Still drifted: not a new onset.
        assert not detector.observe("c", self.SHIFTED, self.REFERENCE)
        assert detector.drifted

    def test_matching_workload_never_drifts(self):
        detector = WorkloadDriftDetector(window=2, threshold=0.1)
        matching = list(self.REFERENCE[1])
        assert not detector.observe("a", matching, self.REFERENCE)
        assert not detector.observe("b", matching, self.REFERENCE)
        assert detector.score == pytest.approx(0.0)

    def test_frequency_tracks_window_expiry(self):
        detector = WorkloadDriftDetector(window=3, threshold=9.9)
        features = list(self.REFERENCE[1])
        for fingerprint in ["a", "a", "b", "c"]:  # first "a" expires
            detector.observe(fingerprint, features, self.REFERENCE)
        assert detector.frequency("a") == 1
        assert detector.frequency("b") == 1
        assert detector.frequency("missing") == 0

    def test_hottest_is_deterministic(self):
        detector = WorkloadDriftDetector(window=8, threshold=9.9)
        features = list(self.REFERENCE[1])
        for fingerprint in ["b", "a", "b", "c", "a", "b"]:
            detector.observe(fingerprint, features, self.REFERENCE)
        assert detector.hottest(2) == ["b", "a"]
        assert detector.hottest(10) == ["b", "a", "c"]


class _StubGuard:
    """Minimal guard stand-in for scheduler tests."""

    def __init__(self):
        self.drifted = False
        self.frequencies = {}

    def statement_frequency(self, fingerprint):
        return self.frequencies.get(fingerprint, 0)


def task_named(name, q_error=1.0):
    return LearningTask(
        sql=f"SELECT {name}",
        query_name=name,
        reason="misestimated",
        sql_hash=name,
        max_q_error=q_error,
        elapsed_ms=1.0,
    )


class TestLearningScheduler:
    def test_fifo_without_guard(self):
        scheduler = LearningScheduler()
        for name in ["a", "b", "c"]:
            scheduler.push(task_named(name))
        assert [scheduler.pop().sql_hash for _ in range(3)] == ["a", "b", "c"]
        with pytest.raises(IndexError):
            scheduler.pop()

    def test_fifo_while_not_drifted(self):
        guard = _StubGuard()
        guard.frequencies = {"c": 100}
        scheduler = LearningScheduler(guard)
        for name in ["a", "b", "c"]:
            scheduler.push(task_named(name))
        assert scheduler.pop().sql_hash == "a", "no drift -> insertion order"

    def test_priority_under_drift(self):
        guard = _StubGuard()
        guard.drifted = True
        guard.frequencies = {"a": 1, "b": 10, "c": 2}
        scheduler = LearningScheduler(guard)
        scheduler.push(task_named("a", q_error=50.0))  # 1 x 50 = 50
        scheduler.push(task_named("b", q_error=8.0))  # 10 x 8 = 80
        scheduler.push(task_named("c", q_error=2.0))  # 2 x 2 = 4
        assert scheduler.pop().sql_hash == "b"
        assert scheduler.pop().sql_hash == "a"
        assert scheduler.pop().sql_hash == "c"

    def test_priority_ties_break_by_insertion_order(self):
        guard = _StubGuard()
        guard.drifted = True
        scheduler = LearningScheduler(guard)
        for name in ["x", "y"]:
            scheduler.push(task_named(name, q_error=5.0))
        assert scheduler.pop().sql_hash == "x"
        assert len(scheduler) == 1


class TestDriftStaging:
    def test_onset_stages_relearn_tasks_for_hot_statements(self, mini_db):
        kb = kb_with_templates(mini_db)
        plan = mini_db.explain(SQL)
        # Learned population far away from the live features: every live
        # observation scores as drifted once the window fills.
        far = [99.0, 99.0, 99.0, 0.0, 0.0, 0.0]
        for _ in range(4):
            kb.record_learned_features(far)
        guard = make_guard(
            drift_window=3, drift_threshold=0.1, drift_min_reference=4,
            drift_relearn_limit=2,
        )
        statements = [(SQL, "hot"), (SQL, "hot"), ("SELECT 1 FROM sales", "cold")]
        for sql, name in statements:
            guard.observe_workload(
                kb, sql=sql, query_name=name, qgm=plan, max_q_error=9.0
            )
        assert guard.drifted and guard.drift_events == 1
        tasks = guard.take_drift_tasks()
        assert [task.reason for task in tasks] == ["drift", "drift"]
        # Hottest first: SQL appears twice in the window.
        assert tasks[0].sql_hash == sql_fingerprint(SQL)
        assert guard.metrics.count("drift_events") == 1
        assert guard.metrics.count("learning_drift_enqueued") == 2
        # Drained: a second take returns nothing.
        assert guard.take_drift_tasks() == []


class TestGuardValidation:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SteeringGuard(regression_threshold=0.9)
        with pytest.raises(ValueError):
            SteeringGuard(min_observations=0)
        with pytest.raises(ValueError):
            SteeringGuard(quarantine_loss_rate=0.0)
        with pytest.raises(ValueError):
            SteeringGuard(quarantine_loss_rate=1.5)
        with pytest.raises(ValueError):
            SteeringGuard(probation_wins=0)
        with pytest.raises(ValueError):
            SteeringGuard(probe_interval=0)


class TestFeedbackRearm:
    """Satellite 1: the dedup map re-arms after learning completes."""

    SQL2 = SQL

    def result_with(self, qgm, *, q_error=1.0, elapsed_ms=100.0):
        from repro.engine.executor.executor import ExecutionResult
        from repro.engine.executor.metrics import RuntimeMetrics

        actuals = {
            node.operator_id: max(
                1, int(round(float(node.estimated_cardinality) * q_error))
            )
            for node in qgm.root.walk()
        }
        return ExecutionResult(
            rows=[], metrics=RuntimeMetrics(), elapsed_ms=elapsed_ms,
            actual_cardinalities=actuals,
        )

    def observe(self, monitor, qgm, **kwargs):
        defaults = dict(q_error=1.0, elapsed_ms=100.0, matched=False, steered=False)
        defaults.update(kwargs)
        return monitor.observe(
            sql=self.SQL2,
            query_name="q",
            qgm=qgm,
            result=self.result_with(
                qgm, q_error=defaults["q_error"], elapsed_ms=defaults["elapsed_ms"]
            ),
            matched=defaults["matched"],
            steered=defaults["steered"],
        )

    def test_regression_after_learning_re_enqueues(self, mini_db):
        plan = mini_db.explain(self.SQL2)
        monitor = FeedbackMonitor(q_error_threshold=4.0, regression_threshold=1.5)
        first = self.observe(monitor, plan, q_error=10.0)
        assert first.task is not None and first.task.reason == "misestimated"
        # While queued/learning: still deduplicated.
        assert self.observe(monitor, plan, q_error=10.0).task is None
        monitor.mark_learned(self.SQL2)
        # Repeat misestimation alone stays deduplicated after learning...
        assert self.observe(monitor, plan, q_error=10.0).task is None
        # ...but a regression re-arms the statement (the learned template
        # may be what regressed it).
        regressed = self.observe(
            monitor, plan, q_error=10.0, elapsed_ms=400.0, matched=True, steered=True
        )
        assert regressed.regressed
        assert regressed.task is not None and regressed.task.reason == "regressed"

    def test_mark_learned_untracked_statement_is_noop(self, mini_db):
        monitor = FeedbackMonitor()
        monitor.mark_learned("SELECT 1 FROM sales")
        assert monitor.enqueued_count == 0

    def test_forget_still_fully_rearms(self, mini_db):
        plan = mini_db.explain(self.SQL2)
        monitor = FeedbackMonitor(q_error_threshold=4.0)
        assert self.observe(monitor, plan, q_error=10.0).task is not None
        monitor.mark_learned(self.SQL2)
        monitor.forget(self.SQL2)
        again = self.observe(monitor, plan, q_error=10.0)
        assert again.task is not None and again.task.reason == "misestimated"
