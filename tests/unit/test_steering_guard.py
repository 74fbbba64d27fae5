"""Steering-guard unit tests: the win/loss ledger and quarantine lifecycle.

The contract under test: a template whose steered executions keep regressing
past the optimizer baseline is quarantined (its matches stop steering) while
deterministic probes keep judging it; probation wins re-arm it with a fresh
ledger; chronic losers evict first; and guard state survives knowledge-base
checkpoints.
"""

import json

import pytest

from repro.core.galo import Galo
from repro.core.knowledge_base import (
    KnowledgeBase,
    TemplateGuardRecord,
    TemplateMatch,
    abstract_template_from_plan,
)
from repro.core.matching.segmenter import segment_plan
from repro.service import GaloService, ServiceConfig
from repro.service.feedback import FeedbackMonitor
from repro.service.guard import GUARD_COUNTERS, SteeringGuard
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

    def test_verdict_at_the_threshold_is_a_win(self, mini_db):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        guard = make_guard(regression_threshold=1.5)
        guard.observe(kb, sql=SQL, elapsed_ms=100.0, steered=False, template_ids=[])
        assert (
            guard.observe(kb, sql=SQL, elapsed_ms=150.0, steered=True, template_ids=[tid])
            == "win"
        )
        assert kb.guard_record(tid).wins == 1

    def test_outcome_is_tallied_against_every_steering_template(self, mini_db):
        kb = kb_with_templates(mini_db, count=2)
        ids = sorted(kb.templates)
        guard = make_guard()
        guard.observe(kb, sql=SQL, elapsed_ms=100.0, steered=False, template_ids=[])
        guard.observe(kb, sql=SQL, elapsed_ms=400.0, steered=True, template_ids=ids)
        for tid in ids:
            record = kb.guard_record(tid)
            assert record.wins == 0 and record.losses == 1
        # One verdict per request, however many templates steered it.
        assert guard.metrics.count("steering_losses") == 1

    def test_baselines_are_per_statement(self, mini_db):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        guard = make_guard()
        other = "SELECT i_category FROM item WHERE i_category = 'Music'"
        guard.observe(kb, sql=other, elapsed_ms=1.0, steered=False, template_ids=[])
        # SQL has no baseline of its own: another statement's never judges it.
        assert (
            guard.observe(kb, sql=SQL, elapsed_ms=100.0, steered=True, template_ids=[tid])
            == "unjudged"
        )
        assert kb.guard_record(tid).observations == 0

    def test_whitespace_variants_share_a_baseline(self, mini_db):
        kb = kb_with_templates(mini_db)
        guard = make_guard()
        guard.observe(kb, sql=SQL, elapsed_ms=100.0, steered=False, template_ids=[])
        assert guard.baseline_ms("  ".join(SQL.split()) + "\n") == 100.0


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

    def test_screen_blocks_only_the_quarantined_template(self, mini_db):
        kb = kb_with_templates(mini_db, count=3)
        ids = [template.template_id for template in kb.all_templates()]
        kb.quarantine_template(ids[1])
        guard = make_guard(probe_interval=3)
        matches = matches_for(kb, mini_db.explain(SQL).root)
        screen = guard.screen(kb, matches)
        assert screen.blocked == [ids[1]] and screen.probed == []
        # The armed matches pass in their original order, same objects.
        assert screen.allowed == [matches[0], matches[2]]
        assert screen.degraded

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
        kb.save(str(tmp_path))
        assert (tmp_path / "v1" / "guard_state.json").exists()

        restored = KnowledgeBase.load(str(tmp_path))
        assert restored.quarantined_template_ids() == [ids[0]]
        record = restored.guard_record(ids[0])
        assert record.wins == 1 and record.losses == 1 and record.quarantined

    def test_guard_state_with_feature_population_loads(self, mini_db, tmp_path):
        """A checkpoint whose guard state also carries a learned-feature
        population (``feature_count`` / ``feature_mean``, written by earlier
        versions) loads: the extra keys are ignored, the ledger is kept."""
        kb = kb_with_templates(mini_db, count=2)
        ids = sorted(kb.templates)
        kb.record_steering_outcome(ids[0], win=False)
        kb.record_steering_outcome(ids[0], win=False)
        kb.quarantine_template(ids[0])
        kb.record_steering_outcome(ids[1], win=True)
        kb.save(str(tmp_path))
        state_path = tmp_path / "v1" / "guard_state.json"
        payload = json.loads(state_path.read_text(encoding="utf-8"))
        payload["feature_count"] = 3
        payload["feature_mean"] = [2.0, 3.0, 5.0, 1.0, 0.0, 0.5]
        state_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )

        restored = KnowledgeBase.load(str(tmp_path))
        assert restored.checkpoint_version == 1
        assert restored.quarantined_template_ids() == [ids[0]]
        quarantined = restored.guard_record(ids[0])
        assert quarantined.wins == 0 and quarantined.losses == 2
        armed = restored.guard_record(ids[1])
        assert armed.wins == 1 and armed.losses == 0 and not armed.quarantined

    def test_checkpoint_guard_state_holds_only_the_ledger(self, mini_db, tmp_path):
        kb = kb_with_templates(mini_db)
        tid = next(iter(kb.templates))
        kb.record_steering_outcome(tid, win=True)
        kb.save(str(tmp_path))
        state_path = tmp_path / "v1" / "guard_state.json"
        payload = json.loads(state_path.read_text(encoding="utf-8"))
        assert sorted(payload) == ["records"]
        assert sorted(payload["records"]) == [tid]

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

    @pytest.mark.parametrize(
        "parameter",
        ["drift_window", "drift_threshold", "drift_min_reference", "drift_relearn_limit"],
    )
    def test_guard_takes_no_drift_parameters(self, parameter):
        with pytest.raises(TypeError):
            SteeringGuard(**{parameter: 1})


class TestServiceGauges:
    def test_guard_gauges_report_quarantine_only(self, mini_db):
        service = GaloService(Galo(mini_db), ServiceConfig(learning_enabled=False))
        page = service.render_metrics()
        assert "galo_quarantined_templates 0" in page
        for name in GUARD_COUNTERS:
            assert f"galo_{name} 0" in page
        assert "drift" not in page


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
