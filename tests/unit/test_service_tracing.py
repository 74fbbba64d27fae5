"""Request tracing through the serving tier, and the bit-identity invariant.

The obs layer's core contract: tracing only *reads* runtime state, so turning
it on changes nothing observable about results -- rows (including dict key
order), counters, and the simulated ``elapsed_ms`` are identical.  These
tests assert that differentially and then exercise the traced-path features
(request timelines down to executor node spans, the slow-query log, stage
histograms, learner traces).
"""

import asyncio

import pytest

from repro.core.galo import Galo
from repro.core.learning.engine import LearningConfig
from repro.obs import TraceStore
from repro.service import GaloService, ServiceConfig
from tests.conftest import build_mini_database
from tests.prepared_support import WORKLOAD, build_system

GUARD_SECONDS = 120


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


QUERIES = [
    (
        "q_join2",
        "SELECT i_category, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    ),
    (
        "q_join3",
        "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
        "GROUP BY i_category",
    ),
    (
        "q_single",
        "SELECT o_state, COUNT(*) FROM outlet WHERE o_state = 'CA' GROUP BY o_state",
    ),
]


def serve_batch(tracing_enabled, sales_rows=1500):
    """Serve the query batch on a fresh replica; returns (responses, service)."""
    galo = Galo(build_mini_database(sales_rows=sales_rows))
    service = GaloService(
        galo,
        ServiceConfig(
            learning_enabled=False,
            tracing_enabled=tracing_enabled,
            slow_query_threshold_ms=0.0,
        ),
    )

    async def scenario():
        async with service:
            responses = []
            # Serial submission: identical serving order on both runs.
            for name, sql in QUERIES * 2:
                responses.append(await service.submit(sql, query_name=name))
            return responses

    return run(scenario()), service


def response_fingerprint(response):
    """Everything deterministic about a response, bit-for-bit.

    Rows are compared as item *lists*: dict equality ignores key order, and
    the invariant promises identical key order too.
    """
    return (
        response.query_name,
        response.status,
        [list(row.items()) for row in response.rows],
        response.elapsed_ms,
        response.steered,
        list(response.matched_template_ids),
        response.max_q_error,
        response.error,
    )


def counter_fingerprint(service):
    """Counter part of the metrics snapshot (wall-clock stats excluded)."""
    return {
        name: value
        for name, value in service.metrics.snapshot().items()
        if not name.startswith("latency_")
    }


class TestBitIdentity:
    def test_traced_run_identical_to_untraced(self):
        untraced_responses, untraced_service = serve_batch(tracing_enabled=False)
        traced_responses, traced_service = serve_batch(tracing_enabled=True)

        assert [response_fingerprint(r) for r in untraced_responses] == [
            response_fingerprint(r) for r in traced_responses
        ]
        assert counter_fingerprint(untraced_service) == counter_fingerprint(
            traced_service
        )
        # ...and the traced run actually traced: one request trace per submit.
        assert untraced_service.trace_store is None
        assert traced_service.trace_store.stats()["traces_recorded"] == len(
            QUERIES
        ) * 2


class TestTracedRequests:
    @pytest.fixture()
    def traced_service(self):
        # A database of its own: the session-wide ``mini_db``'s workload memo
        # may keep a plan outcome from an earlier test, and a replayed request
        # has no executor node spans.
        galo = Galo(build_mini_database())
        return GaloService(
            galo,
            ServiceConfig(
                learning_enabled=False,
                tracing_enabled=True,
                slow_query_threshold_ms=0.0,
            ),
        )

    def test_request_timeline_down_to_executor_nodes(self, traced_service):
        async def scenario():
            async with traced_service:
                return await traced_service.submit(
                    QUERIES[1][1], query_name="q_join3"
                )

        response = run(scenario())
        assert response.ok
        assert response.request_id and response.trace_id

        trace = traced_service.trace_store.get(request_id=response.request_id)
        names = [span["name"] for span in trace["spans"]]
        for stage in ("request", "queue_wait", "plan", "execute", "feedback"):
            assert stage in names, f"missing {stage} span in {names}"
        # Executor node spans under "execute": the plan root ("return") is
        # always present; deeper scans/joins may be elided when the workload
        # memo replays a previously executed subtree instead of running it.
        assert "return" in names, names
        by_name = {span["name"]: span for span in trace["spans"]}
        assert by_name["return"]["attributes"]["rows"] == len(response.rows)
        assert by_name["return"]["parent_id"] == by_name["execute"]["span_id"]
        assert by_name["execute"]["attributes"]["rows"] == len(response.rows)
        assert by_name["execute"]["attributes"]["elapsed_ms"] == response.elapsed_ms
        assert by_name["request"]["attributes"]["status"] == "ok"

        timeline = traced_service.explain_request(response.request_id)
        assert timeline is not None
        assert "execute" in timeline and "queue_wait" in timeline
        # Unknown ids render nothing rather than raising.
        assert traced_service.explain_request("req-does-not-exist") is None

    def test_slow_query_log_and_metrics_page(self, traced_service):
        async def scenario():
            async with traced_service:
                for name, sql in QUERIES:
                    await traced_service.submit(sql, query_name=name)
                return traced_service.render_metrics()

        page = run(scenario())
        # Threshold 0: every request lands in the slow-query log.
        slow = traced_service.slow_queries()
        assert len(slow) == len(QUERIES)
        assert all(trace["name"] == "request" for trace in slow)
        assert "galo_stage_latency_ms_bucket" in page
        assert 'stage="execute"' in page and 'stage="queue_wait"' in page
        assert "galo_traces_stored" in page
        assert "galo_slow_queries_stored" in page

    def test_stage_histograms_count_each_served_request(self, traced_service):
        async def scenario():
            async with traced_service:
                for name, sql in QUERIES:
                    await traced_service.submit(sql, query_name=name)

        run(scenario())
        timings = traced_service.stage_timings
        served = len(QUERIES)
        assert timings.get("request").count == served
        for stage in ("queue_wait", "plan", "execute", "feedback"):
            assert timings.get(stage).count == served, stage
        # Only the request's direct children are stages, not executor nodes.
        assert timings.get("return") is None

    def test_request_whose_trace_left_the_store_skips_the_histograms(
        self, traced_service
    ):
        store = TraceStore(capacity=0)
        traced_service.trace_store = traced_service.tracer.store = store

        async def scenario():
            async with traced_service:
                return await traced_service.submit(QUERIES[0][1], query_name="q")

        response = run(scenario())
        assert response.ok and response.trace_id
        assert store.stats()["traces_recorded"] == 1
        assert traced_service.stage_timings.stages() == []

    def test_error_requests_are_traced_with_error_attribute(self, traced_service):
        async def scenario():
            async with traced_service:
                return await traced_service.submit(
                    "SELECT nope FROM does_not_exist", query_name="bad"
                )

        response = run(scenario())
        assert response.status == "error"
        assert response.request_id
        trace = traced_service.trace_store.get(request_id=response.request_id)
        root = trace["spans"][0]
        assert root["attributes"]["status"] == "error"
        assert root["attributes"]["error"]

    def test_untraced_service_has_no_ids_or_store(self, mini_db):
        service = GaloService(
            Galo(mini_db),
            ServiceConfig(
                learning_enabled=False, tracing_enabled=False
            ),
        )

        async def scenario():
            async with service:
                return await service.submit(QUERIES[0][1], query_name="q")

        response = run(scenario())
        assert response.ok
        assert response.request_id == "" and response.trace_id == ""
        assert service.trace_store is None
        assert service.explain_request("req-0") is None
        assert service.slow_queries() == []


class TestReplayedHitTraces:
    def test_a_traced_hit_replays_its_execution(self):
        """Tracing on, a statement's third request replays the execution its
        second one stored: the ``execute`` span says so, carries the rows and
        ``elapsed_ms``, has no operator children, and the response equals the
        miss's and the executing hit's."""
        galo = build_system()
        name, sql = WORKLOAD[0]
        service = GaloService(
            galo,
            ServiceConfig(learning_enabled=False, tracing_enabled=True),
        )

        async def scenario():
            async with service:
                return [await service.submit(sql, query_name=name) for _ in range(3)]

        responses = run(scenario())
        assert all(response.ok for response in responses)
        assert len({repr(response_fingerprint(r)) for r in responses}) == 1

        def execute_span(response):
            trace = service.trace_store.get(request_id=response.request_id)
            execute = next(s for s in trace["spans"] if s["name"] == "execute")
            children = [
                s["name"] for s in trace["spans"] if s["parent_id"] == execute["span_id"]
            ]
            return execute["attributes"], children

        for response in responses[:2]:
            attributes, children = execute_span(response)
            assert "replayed" not in attributes
            assert "return" in children
        attributes, children = execute_span(responses[2])
        assert attributes["replayed"] is True
        assert attributes["rows"] == len(responses[2].rows)
        assert attributes["elapsed_ms"] == responses[2].elapsed_ms
        assert children == []
        assert "replayed=True" in service.explain_request(responses[2].request_id)
        assert "replayed" not in service.explain_request(responses[1].request_id)


class TestBackgroundPlaneTraces:
    def test_learner_traces(self):
        galo = Galo(
            build_mini_database(sales_rows=1500),
            learning_config=LearningConfig(
                max_joins=2, random_plans_per_subquery=2, max_variants=1
            ),
        )
        service = GaloService(
            galo,
            ServiceConfig(learning_enabled=True, tracing_enabled=True),
        )

        async def scenario():
            async with service:
                # The 3-way join is reliably mis-estimated -> enqueued.
                await service.submit(QUERIES[1][1], query_name="q_join3")
                await service.drain()

        run(scenario())
        assert service.metrics.count("learning_completed") >= 1

        learn_traces = service.trace_store.traces(name="learn_query")
        assert learn_traces, "the learner must record learn_query traces"
        trace = learn_traces[0]
        names = [span["name"] for span in trace["spans"]]
        assert "queue_dwell" in names
        # The queue_dwell child back-dates to enqueue time (before the root
        # span started), so find the root by id, not position.
        root = next(
            span
            for span in trace["spans"]
            if span["span_id"] == trace["root_span_id"]
        )
        assert root["attributes"].get("reason") == "misestimated"
        assert root["attributes"].get("queue_dwell_ms", 0) >= 0
