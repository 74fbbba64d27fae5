"""GaloService front-end behaviour: admission control, errors, streaming.

These are the fast serving-tier tests (no learning): every async scenario is
driven through ``asyncio.run`` with an explicit ``wait_for`` guard so a hung
event loop fails the test instead of wedging the suite.
"""

import asyncio

import pytest

from repro.core.galo import Galo
from repro.service import GaloService, ServiceConfig


#: Generous per-scenario guard; scenarios normally finish in well under 1 s.
GUARD_SECONDS = 60


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


QUERIES = [
    (
        "q_cat",
        "SELECT i_category, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    ),
    (
        "q_year",
        "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
        "GROUP BY i_category",
    ),
]


@pytest.fixture()
def galo(mini_db):
    return Galo(mini_db)


def quiet_config(**overrides):
    """Serving only: no steering, no background learning."""
    defaults = dict(steering_enabled=False, learning_enabled=False)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestLifecycle:
    def test_submit_before_start_raises(self, galo):
        service = GaloService(galo, quiet_config())

        async def scenario():
            with pytest.raises(RuntimeError):
                await service.submit("SELECT 1 FROM item")

        run(scenario())
        assert not service.started

    def test_context_manager_starts_and_stops(self, galo):
        service = GaloService(galo, quiet_config())

        async def scenario():
            async with service:
                assert service.started
                response = await service.submit(QUERIES[0][1], query_name="q")
                assert response.ok
            assert not service.started

        run(scenario())

    def test_stop_is_idempotent(self, galo):
        service = GaloService(galo, quiet_config())

        async def scenario():
            await service.start()
            await service.stop()
            await service.stop()

        run(scenario())


class TestServing:
    def test_results_identical_to_serial_execution(self, galo, mini_db):
        service = GaloService(galo, quiet_config())
        expected = {name: mini_db.execute_sql(sql).rows for name, sql in QUERIES}

        async def scenario():
            async with service:
                return await asyncio.gather(
                    *[service.submit(sql, query_name=name) for name, sql in QUERIES * 3]
                )

        responses = run(scenario())
        assert all(response.ok for response in responses)
        for response in responses:
            assert response.rows == expected[response.query_name]

    def test_stream_yields_every_request(self, galo):
        service = GaloService(galo, quiet_config())

        async def scenario():
            async with service:
                collected = []
                async for response in service.stream(QUERIES * 2):
                    collected.append(response)
                return collected

        responses = run(scenario())
        assert len(responses) == len(QUERIES) * 2
        assert sorted(r.query_name for r in responses) == sorted(
            name for name, _ in QUERIES * 2
        )

    def test_invalid_sql_becomes_error_response(self, galo):
        service = GaloService(galo, quiet_config())

        async def scenario():
            async with service:
                return await service.submit("SELECT FROM nowhere AT ALL")

        response = run(scenario())
        assert response.status == "error"
        assert response.error
        assert service.metrics.count("failed") == 1

    def test_unnamed_stream_entries_get_positional_names(self, galo):
        service = GaloService(galo, quiet_config())

        async def scenario():
            async with service:
                return [r async for r in service.stream([QUERIES[0][1]])]

        responses = run(scenario())
        assert responses[0].query_name == "Q1"

    def test_break_mid_stream_retrieves_cancelled_tasks(self, galo):
        """Regression: breaking out of ``stream`` used to cancel the leftover
        submit tasks without awaiting them, leaving them pending at loop close
        ("Task was destroyed but it is pending")."""
        service = GaloService(galo, quiet_config(max_pending=2))
        loop_problems = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_problems.append(context)
            )
            async with service:
                tasks_before = asyncio.all_tasks()
                stream = service.stream(QUERIES * 4)
                async for _ in stream:
                    break  # consumer abandons the batch mid-stream
                # Closing the generator runs its ``finally`` (exactly what the
                # loop's shutdown_asyncgens does after a bare break).
                await stream.aclose()
                return list(asyncio.all_tasks() - tasks_before)

        leftover_tasks = run(scenario())
        # Every cancelled submit task was awaited and retrieved: nothing is
        # still pending, and the loop saw no unretrieved-task complaints.
        assert leftover_tasks == []
        assert loop_problems == []


class TestAdmissionControl:
    def test_excess_submissions_are_rejected(self, galo):
        service = GaloService(galo, quiet_config(max_pending=1))

        async def scenario():
            async with service:
                return await asyncio.gather(
                    *[service.submit(QUERIES[0][1], query_name=f"r{i}") for i in range(4)]
                )

        responses = run(scenario())
        statuses = sorted(response.status for response in responses)
        assert statuses.count("ok") == 1
        assert statuses.count("rejected") == 3
        assert service.metrics.count("rejected") == 3
        rejected = [r for r in responses if r.rejected]
        assert all(r.rows == [] for r in rejected)
        assert all("admission" in r.error for r in rejected)

    def test_stream_self_throttles_instead_of_shedding(self, galo):
        """A single streaming caller gets backpressure, never rejections."""
        service = GaloService(galo, quiet_config(max_pending=2))

        async def scenario():
            async with service:
                return [r async for r in service.stream(QUERIES * 4)]

        responses = run(scenario())
        assert len(responses) == len(QUERIES) * 4
        assert all(response.ok for response in responses)
        assert service.metrics.count("rejected") == 0

    def test_pending_resets_after_completion(self, galo):
        service = GaloService(galo, quiet_config(max_pending=1))

        async def scenario():
            async with service:
                first = await service.submit(QUERIES[0][1])
                second = await service.submit(QUERIES[0][1])
                assert service.pending == 0
                return first, second

        first, second = run(scenario())
        # Serial submissions never trip admission control.
        assert first.ok and second.ok

    def test_idle_event_tracks_pending_transitions(self, galo):
        """The learner's idle wait is event-driven: the idle event is set at
        start, cleared while requests are in flight, and re-set on the exact
        transition back to zero pending."""
        service = GaloService(galo, quiet_config())

        async def scenario():
            async with service:
                assert service._idle_event.is_set()
                # A waiter started while idle returns immediately.
                assert await service._wait_for_idle(0.0) is True
                response = await service.submit(QUERIES[0][1], query_name="q")
                assert response.ok
                # Completion bookkeeping re-set the event.
                assert service.pending == 0
                assert service._idle_event.is_set()
                assert await service._wait_for_idle(1.0) is True

        run(scenario())

    def test_wait_for_idle_respects_deadline(self, galo):
        """A wait that cannot be satisfied returns False once the loop-time
        deadline passes instead of spinning."""
        service = GaloService(galo, quiet_config())

        async def scenario():
            async with service:
                # Fake sustained traffic: pending never drains.
                service._pending += 1
                service._idle_event.clear()
                try:
                    started = service._loop.time()
                    assert await service._wait_for_idle(0.05) is False
                    assert service._loop.time() - started < 5.0
                finally:
                    service._pending -= 1
                    service._idle_event.set()

        run(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServiceConfig(q_error_threshold=0.5)
        with pytest.raises(ValueError):
            ServiceConfig(kb_capacity=-1)
        with pytest.raises(ValueError):
            ServiceConfig(learning_duty_cycle=0.0)
        with pytest.raises(ValueError):
            ServiceConfig(learning_duty_cycle=1.5)
        with pytest.raises(ValueError):
            ServiceConfig(learning_idle_wait_seconds=-1.0)
