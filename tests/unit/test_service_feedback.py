"""The statement ledger and its feedback: what gets enqueued for learning.

The contract under test: a query whose actuals agree with the optimizer's
estimates is *not* enqueued; a mis-estimated or regressed query is enqueued
*exactly once* while its record is live (one record per statement key);
steering suppresses the mis-estimation trigger (the knowledge base already
handled that statement).  The key collapses whitespace outside string
literals only, so statements that differ inside a literal never share a
record.
"""

import asyncio
import hashlib
from types import SimpleNamespace

import pytest

from repro.engine.executor.executor import ExecutionResult
from repro.engine.executor.metrics import RuntimeMetrics
from repro.service import feedback as feedback_module
from repro.service.feedback import (
    StatementLedger,
    feedback,
    sql_fingerprint,
    statement_key,
)
from repro.service import GaloService, ServiceConfig
from repro.service import guard as guard_module
from repro.service import service as service_module
from repro.service.metrics import ServiceMetrics
from tests.prepared_support import WORKLOAD, build_system


SQL = (
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category"
)


@pytest.fixture()
def plan(mini_db):
    return mini_db.explain(SQL)


def result_with(qgm, *, q_error=1.0, elapsed_ms=100.0):
    """A synthetic execution result whose actuals are estimates scaled by q_error."""
    actuals = {
        node.operator_id: max(1, int(round(float(node.estimated_cardinality) * q_error)))
        for node in qgm.root.walk()
    }
    return ExecutionResult(
        rows=[], metrics=RuntimeMetrics(), elapsed_ms=elapsed_ms,
        actual_cardinalities=actuals,
    )


def observe(ledger, qgm, *, sql=SQL, q_error=1.0, elapsed_ms=100.0, steered=False):
    """Feed one execution back as the service does: one record lookup, then
    :func:`feedback`; returns the learning task (or None)."""
    result = result_with(qgm, q_error=q_error, elapsed_ms=elapsed_ms)
    return feedback(
        ledger.observe(statement_key(sql), create=True),
        sql=sql,
        query_name="q",
        elapsed_ms=result.elapsed_ms,
        max_q_error=result.max_q_error(qgm),
        steered=steered,
        regression_threshold=1.5,
    )


class TestMisestimationTrigger:
    def test_accurate_estimates_are_not_enqueued(self, plan):
        ledger = StatementLedger()
        assert result_with(plan).max_q_error(plan) == pytest.approx(1.0, abs=0.05)
        assert observe(ledger, plan, q_error=1.0) is None
        assert not ledger.get(SQL).enqueued

    def test_below_threshold_is_not_enqueued(self, plan):
        assert observe(StatementLedger(), plan, q_error=2.0) is None

    def test_misestimated_query_is_enqueued(self, plan):
        task = observe(StatementLedger(), plan, q_error=10.0)
        assert task is not None
        assert task.reason == "misestimated"
        assert task.sql_hash == sql_fingerprint(SQL)
        assert task.max_q_error >= feedback_module.Q_ERROR_THRESHOLD

    def test_enqueued_exactly_once(self, plan):
        ledger = StatementLedger()
        assert observe(ledger, plan, q_error=10.0) is not None
        for _ in range(5):
            assert observe(ledger, plan, q_error=10.0) is None
        assert ledger.get(SQL).enqueued
        assert ledger.get(SQL).executions == 6

    def test_whitespace_variants_share_one_fingerprint(self, plan):
        ledger = StatementLedger()
        assert observe(ledger, plan, q_error=10.0) is not None
        reformatted = SQL.replace(" FROM ", "\n  FROM\n  ")
        assert observe(ledger, plan, sql=reformatted, q_error=10.0) is None
        assert sql_fingerprint(reformatted) == sql_fingerprint(SQL)

    def test_steered_query_is_not_enqueued_for_misestimation(self, plan):
        assert observe(StatementLedger(), plan, q_error=10.0, steered=True) is None

    def test_forget_allows_re_enqueue(self, plan):
        ledger = StatementLedger()
        assert observe(ledger, plan, q_error=10.0) is not None
        ledger.forget(SQL)
        assert observe(ledger, plan, q_error=10.0) is not None

    def test_threshold_is_a_module_constant(self, plan, monkeypatch):
        monkeypatch.setattr(feedback_module, "Q_ERROR_THRESHOLD", 1.0)
        task = observe(StatementLedger(), plan, q_error=1.0)
        assert task is not None and task.reason == "misestimated"


class TestRegressionTrigger:
    def test_first_execution_establishes_history(self, plan):
        ledger = StatementLedger()
        assert observe(ledger, plan, elapsed_ms=100.0) is None
        assert ledger.get(SQL).best_ms == 100.0

    def test_regressed_repeat_is_enqueued(self, plan):
        ledger = StatementLedger()
        observe(ledger, plan, elapsed_ms=100.0)
        task = observe(ledger, plan, elapsed_ms=200.0, steered=True)
        assert task is not None
        assert task.reason == "regressed"

    def test_faster_repeat_is_not_regressed(self, plan):
        ledger = StatementLedger()
        observe(ledger, plan, elapsed_ms=100.0)
        assert observe(ledger, plan, elapsed_ms=90.0) is None
        assert ledger.get(SQL).best_ms == 90.0

    def test_regression_dedups_with_misestimation(self, plan):
        ledger = StatementLedger()
        assert observe(ledger, plan, q_error=10.0, elapsed_ms=100.0) is not None
        # 500 ms against a best of 100: regressed, but enqueued already.
        task = observe(ledger, plan, q_error=10.0, elapsed_ms=500.0)
        assert task is None, "one statement is enqueued at most once"
        assert ledger.get(SQL).best_ms == 100.0

    def test_history_is_bounded(self, plan, monkeypatch):
        monkeypatch.setattr(feedback_module, "MAX_STATEMENTS", 4)
        ledger = StatementLedger()
        for position in range(10):
            observe(ledger, plan, sql=f"SELECT {position} FROM sales", elapsed_ms=10.0)
        kept = [ledger.get(f"SELECT {position} FROM sales") for position in range(10)]
        assert [record is not None for record in kept] == [False] * 6 + [True] * 4
        assert kept[-1].best_ms == 10.0

    def test_trimmed_statement_is_learnable_again(self, plan, monkeypatch):
        monkeypatch.setattr(feedback_module, "MAX_STATEMENTS", 2)
        ledger = StatementLedger()
        assert observe(ledger, plan, q_error=10.0) is not None
        for position in range(2):
            observe(ledger, plan, sql=f"SELECT {position} FROM sales")
        assert ledger.get(SQL) is None
        assert observe(ledger, plan, q_error=10.0) is not None


class TestStatementKey:
    def test_literal_variants_get_different_keys(self):
        spaced = SQL.replace("'Jewelry'", "'Home  Garden'")
        single = SQL.replace("'Jewelry'", "'Home Garden'")
        assert statement_key(spaced) != statement_key(single)
        assert sql_fingerprint(spaced) != sql_fingerprint(single)
        assert "'Home  Garden'" in statement_key(spaced)

    def test_reformatting_outside_literals_gives_one_key(self):
        variants = [
            "  ".join(SQL.split(" ")) + "\n",
            SQL.replace(" WHERE ", "\n\tWHERE\n    "),
            SQL.replace(" = 'Jewelry' ", " =   'Jewelry'\n"),
        ]
        for variant in variants:
            literal = variant.replace("'Jewelry'", "'Home  Garden'")
            assert statement_key(literal) == statement_key(
                SQL.replace("'Jewelry'", "'Home  Garden'")
            )

    def test_escaped_quotes_stay_inside_the_literal(self):
        sql = "SELECT i_category FROM item WHERE i_category = 'It''s  here'"
        assert statement_key(sql).endswith("'It''s  here'")
        assert statement_key(sql) != statement_key(sql.replace("s  h", "s h"))

    def test_fingerprint_is_the_hash_of_the_key(self):
        key = statement_key(SQL)
        assert sql_fingerprint(SQL) == hashlib.sha1(key.encode("utf-8")).hexdigest()[:16]


class TestOneKeyPerRequest:
    def test_guard_and_learning_share_one_key(self, monkeypatch):
        """A guard-on, learning-on service computes each request's statement
        key once and hands the one record to both feedback and the guard."""
        monkeypatch.setattr(feedback_module, "Q_ERROR_THRESHOLD", 1.0)
        galo = build_system()
        galo.learning_engine.learning_steps = lambda sql, **_: iter(
            [SimpleNamespace(templates_learned=[])]
        )
        keys = []

        def counting_key(sql):
            keys.append(sql)
            return statement_key(sql)

        for module in (feedback_module, guard_module, service_module):
            monkeypatch.setattr(module, "statement_key", counting_key, raising=False)
        service = GaloService(galo, ServiceConfig(learning_enabled=True))
        requests = WORKLOAD * 2

        async def scenario():
            async with service:
                return [await service.submit(sql, query_name=name) for name, sql in requests]

        responses = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        assert all(response.ok for response in responses)
        assert any(response.steered for response in responses)
        assert service.metrics.count("learning_enqueued") > 0
        assert keys == [sql for _, sql in requests]
        assert all(service.ledger.get(sql).executions == 2 for _, sql in WORKLOAD)


class TestServiceMetrics:
    def test_counters_and_snapshot(self):
        metrics = ServiceMetrics()
        metrics.increment("completed")
        metrics.increment("completed", 2)
        assert metrics.count("completed") == 3
        snapshot = metrics.snapshot()
        assert snapshot["completed"] == 3
        assert snapshot["latency_samples"] == 0

    def test_latency_percentiles(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):
            metrics.record_latency(float(value))
        assert metrics.latency_percentile(50) == pytest.approx(50.0)
        assert metrics.latency_percentile(95) == pytest.approx(95.0)
        assert metrics.latency_percentile(100) == pytest.approx(100.0)
        with pytest.raises(ValueError):
            metrics.latency_percentile(0)

    def test_reservoir_stays_bounded(self):
        metrics = ServiceMetrics()
        for value in range(3 * metrics.MAX_LATENCY_SAMPLES):
            metrics.record_latency(float(value))
        assert metrics.sample_count < metrics.MAX_LATENCY_SAMPLES
        # The surviving sample still spans the stream (not just its head).
        assert metrics.latency_percentile(95) > 2 * metrics.MAX_LATENCY_SAMPLES

    def test_extremes_survive_downsampling(self, monkeypatch):
        """Halving the reservoir (``[::2]``) drops odd-indexed samples; the
        true max/min must still be reported exactly from the running trackers.
        """
        monkeypatch.setattr(ServiceMetrics, "MAX_LATENCY_SAMPLES", 8)
        metrics = ServiceMetrics()
        # The 8th sample triggers the halving; 500.0 sits at an odd index and
        # is dropped from the reservoir.
        for value in [5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 500.0]:
            metrics.record_latency(value)
        assert 500.0 not in metrics._latencies_ms
        snapshot = metrics.snapshot()
        assert snapshot["latency_max_ms"] == 500.0
        assert snapshot["latency_min_ms"] == 5.0
        assert metrics.latency_max_ms == 500.0
        assert metrics.latency_min_ms == 5.0

    def test_extremes_survive_stride_skips(self, monkeypatch):
        """After a halving the stride doubles: samples skipped by the stride
        never reach the reservoir but must still move the exact extremes."""
        monkeypatch.setattr(ServiceMetrics, "MAX_LATENCY_SAMPLES", 8)
        metrics = ServiceMetrics()
        for value in range(1, 9):
            metrics.record_latency(float(value))
        # Stride is now 2: this sample is skipped by the reservoir entirely.
        metrics.record_latency(1000.0)
        assert 1000.0 not in metrics._latencies_ms
        assert metrics.snapshot()["latency_max_ms"] == 1000.0
        metrics.record_latency(0.25)
        assert metrics.snapshot()["latency_min_ms"] == 0.25

    @pytest.mark.parametrize("percentile", [-5.0, 100.5])
    def test_percentile_outside_the_range_is_rejected(self, percentile):
        metrics = ServiceMetrics()
        metrics.record_latency(1.0)
        with pytest.raises(ValueError, match="percentile"):
            metrics.latency_percentile(percentile)

    def test_no_samples_reads_zero_and_no_extremes(self):
        metrics = ServiceMetrics()
        assert metrics.latency_percentile(50) == 0.0
        assert metrics.latency_min_ms is None and metrics.latency_max_ms is None
        snapshot = metrics.snapshot()
        assert snapshot["latency_samples"] == 0
        for key in ("latency_p50_ms", "latency_p95_ms", "latency_min_ms", "latency_max_ms"):
            assert key not in snapshot
