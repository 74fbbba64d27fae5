"""Which thread serves a request.

``GaloService.submit`` serves every request on the event-loop thread: a
statement the prepared lane answers under the current stamp at once, a miss
or a stale entry after yielding to the loop once.  The service's promises
must hold whichever way a request went: admission control, ``stream``
(completion order, cancellation), a request cancelled while it yields, the
``stop()`` drain, learning tasks enqueued by an inline hit, the traced
``queue_wait`` stage and the serve-queue gauge.
"""

import asyncio
import threading
from types import SimpleNamespace

from repro.service import GaloService, ServiceConfig
from tests.prepared_support import WORKLOAD, build_system

GUARD_SECONDS = 60


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


class ServeRecorder:
    """Stands in for ``GaloService._serve_sync``, noting the serving thread."""

    def __init__(self, service):
        self.wrapped = service._serve_sync
        self.calls = []
        service._serve_sync = self

    def __call__(self, sql, *args):
        self.calls.append((sql, threading.current_thread()))
        return self.wrapped(sql, *args)

    def thread_kinds(self, loop_thread):
        return [
            "loop" if thread is loop_thread else thread.name.split("_")[0]
            for _, thread in self.calls
        ]


def serving_config(**overrides):
    defaults = dict(learning_enabled=False)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def ordered(response):
    return [tuple(row.items()) for row in response.rows]


def serve_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("galo-serve")]


def gauge(service, name):
    for line in service.render_metrics().splitlines():
        if line.startswith(f"galo_{name} "):
            return float(line.split()[1])
    raise AssertionError(f"gauge {name} not rendered")


class TestDispatch:
    def test_current_hit_runs_on_the_loop_thread(self):
        galo = build_system()
        service = GaloService(galo, serving_config())
        recorder = ServeRecorder(service)
        name, sql = WORKLOAD[0]

        async def scenario():
            async with service:
                threads_after_start = serve_threads()
                responses = [await service.submit(sql, query_name=name) for _ in range(3)]
                return threading.current_thread(), responses, threads_after_start

        loop_thread, responses, threads_after_start = run(scenario())
        assert threads_after_start == []
        assert recorder.thread_kinds(loop_thread) == ["loop", "loop", "loop"]
        assert all(response.ok for response in responses)
        first = responses[0]
        for response in responses[1:]:
            assert ordered(response) == ordered(first)
            assert response.elapsed_ms == first.elapsed_ms
            assert response.steered == first.steered
        assert service.metrics.count("prepared_hits") == 2
        assert service.metrics.count("prepared_misses") == 1

    def test_stale_entry_and_unsteered_service_run_on_the_loop_thread(self):
        galo = build_system()
        name, sql = WORKLOAD[1]
        service = GaloService(galo, serving_config())
        recorder = ServeRecorder(service)

        async def scenario():
            async with service:
                await service.submit(sql, query_name=name)
                await service.submit(sql, query_name=name)
                galo.database.invalidate_plan_cache(stats_only=True)
                stale = await service.submit(sql, query_name=name)
                await service.submit(sql, query_name=name)
                return threading.current_thread(), stale

        loop_thread, stale = run(scenario())
        assert stale.ok
        assert recorder.thread_kinds(loop_thread) == ["loop"] * 4
        assert service.metrics.count("prepared_invalidations") == 1

        # Without steering there is no lane to hit: every request yields first.
        unsteered = GaloService(galo, serving_config(steering_enabled=False))
        unsteered_recorder = ServeRecorder(unsteered)

        async def unsteered_scenario():
            async with unsteered:
                for _ in range(2):
                    await unsteered.submit(sql, query_name=name)
                return threading.current_thread(), serve_threads()

        loop_thread, threads_after_start = run(unsteered_scenario())
        assert threads_after_start == []
        assert unsteered_recorder.thread_kinds(loop_thread) == ["loop", "loop"]


class TestServicePromisesWithInlineHits:
    def test_admission_control_counts_inline_hits(self):
        galo = build_system()
        (_, hit_sql), (_, miss_sql) = WORKLOAD[0], WORKLOAD[1]
        galo.matching_engine.steer_prepared(hit_sql)
        service = GaloService(galo, serving_config(max_pending=1))

        async def scenario():
            async with service:
                miss = asyncio.ensure_future(service.submit(miss_sql))
                await asyncio.sleep(0)  # the miss is admitted and yielding
                shed = await service.submit(hit_sql)
                served = await miss
                hit = await service.submit(hit_sql)
                return shed, served, hit, service.pending

        shed, served, hit, pending = run(scenario())
        assert shed.rejected and served.ok and hit.ok
        assert pending == 0
        assert service.metrics.count("rejected") == 1

    def test_stream_completion_order_and_cancellation(self):
        galo = build_system()
        warm = WORKLOAD[:3]
        for name, sql in warm:
            galo.matching_engine.steer_prepared(sql, query_name=name)
        service = GaloService(galo, serving_config(max_pending=4))
        recorder = ServeRecorder(service)
        batch = WORKLOAD * 2
        loop_problems = []

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_problems.append(context)
            )
            async with service:
                completed = [response async for response in service.stream(batch)]
                tasks_before = asyncio.all_tasks()
                stream = service.stream(batch)
                async for _ in stream:
                    break
                await stream.aclose()
                return threading.current_thread(), completed, asyncio.all_tasks() - tasks_before

        loop_thread, completed, leftover = run(scenario())
        assert sorted(response.query_name for response in completed) == sorted(
            name for name, _ in batch
        )
        assert all(response.ok for response in completed)
        # The warmed statements are served in place, so they complete before
        # any miss submitted alongside them (a miss yields to the loop first).
        warm_sql = sorted(sql for _, sql in warm)
        assert sorted(response.sql for response in completed[: len(warm)]) == warm_sql
        assert all(
            kind == "loop"
            for (sql, _), kind in zip(recorder.calls, recorder.thread_kinds(loop_thread))
            if sql in warm_sql
        )
        assert leftover == set()
        assert loop_problems == []
        assert service.pending == 0

    def test_inline_hit_enqueues_learning_and_stop_drains_it(self):
        galo = build_system()
        learned = []

        def learning_steps(sql, **_):
            learned.append((sql, threading.current_thread()))
            yield SimpleNamespace(templates_learned=[])

        galo.learning_engine.learning_steps = learning_steps
        name, sql = WORKLOAD[-1]  # matches no template: feedback may enqueue it
        galo.matching_engine.steer_prepared(sql, query_name=name)
        service = GaloService(
            galo, serving_config(learning_enabled=True, q_error_threshold=1.0)
        )
        recorder = ServeRecorder(service)

        async def scenario():
            await service.start()
            response = await service.submit(sql, query_name=name)
            enqueued = service.metrics.count("learning_enqueued")
            await service.stop(drain=True)
            return threading.current_thread(), response, enqueued

        loop_thread, response, enqueued = run(scenario())
        assert response.ok and not response.steered
        assert recorder.thread_kinds(loop_thread) == ["loop"]
        assert enqueued == 1
        assert learned and learned[0][0] == sql
        assert learned[0][1] is loop_thread
        assert service.metrics.count("learning_completed") == 1

    def test_traced_queue_wait_stage_on_both_paths(self):
        galo = build_system()
        service = GaloService(galo, serving_config(tracing_enabled=True))
        recorder = ServeRecorder(service)
        name, sql = WORKLOAD[0]

        async def scenario():
            async with service:
                responses = [await service.submit(sql, query_name=name) for _ in range(2)]
                return threading.current_thread(), responses

        loop_thread, responses = run(scenario())
        assert recorder.thread_kinds(loop_thread) == ["loop", "loop"]
        for response in responses:
            trace = service.trace_store.get(request_id=response.request_id)
            names = [span["name"] for span in trace["spans"]]
            for stage in ("request", "queue_wait", "plan", "execute", "feedback"):
                assert stage in names, (stage, names)
        assert service.stage_timings.get("queue_wait").count == 2

    def test_miss_cancelled_while_yielding_is_never_served(self):
        galo = build_system()
        service = GaloService(galo, serving_config(tracing_enabled=True))
        recorder = ServeRecorder(service)
        name, sql = WORKLOAD[0]

        async def scenario():
            async with service:
                miss = asyncio.ensure_future(service.submit(sql, query_name=name))
                await asyncio.sleep(0)  # the miss is admitted and yielding
                admitted = service.pending
                miss.cancel()
                try:
                    await miss
                except asyncio.CancelledError:
                    pass
                return admitted, service.pending

        admitted, pending = run(scenario())
        assert admitted == 1
        assert pending == 0
        assert recorder.calls == []
        assert service.metrics.count("completed") == 0
        trace = service.trace_store.get(request_id="req-1")
        root = next(span for span in trace["spans"] if span["name"] == "request")
        assert root["attributes"]["status"] == "cancelled"

    def test_serve_queue_depth_counts_requests_behind_the_one_served(self):
        galo = build_system()
        service = GaloService(galo, serving_config(max_pending=8))
        burst = WORKLOAD[:4]

        async def scenario():
            async with service:
                idle_depth = gauge(service, "serve_queue_depth")
                gathered = asyncio.gather(
                    *[service.submit(sql, query_name=name) for name, sql in burst]
                )
                await asyncio.sleep(0)  # every miss is admitted and yielding
                burst_gauges = (
                    gauge(service, "pending_requests"),
                    gauge(service, "serve_queue_depth"),
                )
                responses = await gathered
                drained_depth = gauge(service, "serve_queue_depth")
                return idle_depth, burst_gauges, responses, drained_depth

        idle_depth, burst_gauges, responses, drained_depth = run(scenario())
        assert all(response.ok for response in responses)
        assert idle_depth == 0
        assert burst_gauges == (len(burst), len(burst) - 1)
        assert drained_depth == 0
