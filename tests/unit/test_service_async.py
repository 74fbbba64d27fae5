"""GaloService front-end behaviour: admission control, errors, streaming,
and the learner that runs on the same event loop in steps.

Every async scenario is driven through ``asyncio.run`` with an explicit
``wait_for`` guard so a hung event loop fails the test instead of wedging the
suite.
"""

import asyncio
import random
import threading
import uuid
from types import SimpleNamespace

import pytest

from repro.core.galo import Galo
from repro.service import GaloService, ServiceConfig
from repro.service.feedback import LearningTask, sql_fingerprint


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


#: Parent validation plus six sub-query analyses on ``mini_db``.
FOUR_WAY = (
    "q_state",
    "SELECT o_state, SUM(s_price) FROM sales, item, outlet, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_outlet_sk = o_outlet_sk "
    "AND s_date_sk = d_date_sk AND i_category = 'Music' GROUP BY o_state",
)


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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_workers=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_pending=0)
        with pytest.raises(ValueError):
            ServiceConfig(q_error_threshold=0.5)
        with pytest.raises(ValueError):
            ServiceConfig(kb_capacity=-1)


def learning_task(name, sql):
    return LearningTask(
        sql=sql, query_name=name, reason="misestimated",
        sql_hash=sql_fingerprint(sql), max_q_error=8.0, elapsed_ms=1.0,
    )


class EventLog:
    """Logs the learner's step boundaries and every served request, in order,
    with the thread each ran on."""

    def __init__(self, service):
        self.events = []
        engine = service.galo.learning_engine
        steps = engine.learning_steps

        def logged_steps(*args, **kwargs):
            for record in steps(*args, **kwargs):
                self.events.append(("step", threading.current_thread()))
                yield record

        engine.learning_steps = logged_steps
        serve = service._serve_sync

        def logged_serve(*args):
            self.events.append(("serve", threading.current_thread()))
            return serve(*args)

        service._serve_sync = logged_serve

    def kinds(self):
        return [kind for kind, _ in self.events]


class TestSteppedLearner:
    def test_requests_wait_for_at_most_one_step(self, galo):
        def five_steps(sql, **_):
            for _ in range(5):
                yield SimpleNamespace(templates_learned=[])

        galo.learning_engine.learning_steps = five_steps
        service = GaloService(galo, quiet_config(learning_enabled=True))
        log = EventLog(service)

        async def client(name):
            # One request after the other: each arrives while the backlog
            # is being learned.
            return [
                await service.submit(sql, query_name=f"{name}-{query}")
                for query, sql in QUERIES
            ]

        async def scenario():
            async with service:
                for name, sql in (*QUERIES, FOUR_WAY):
                    service._enqueue_learning(learning_task(name, sql))
                await asyncio.sleep(0)  # the learner takes its first step
                answered = await asyncio.gather(client("a"), client("b"))
                await service.drain()
                return threading.current_thread(), answered

        loop_thread, answered = run(scenario())
        assert all(response.ok for responses in answered for response in responses)
        assert {thread for _, thread in log.events} == {loop_thread}
        kinds = log.kinds()
        serves = [position for position, kind in enumerate(kinds) if kind == "serve"]
        assert len(serves) == 4
        # Learning was under way before the requests and went on after them.
        assert "step" in kinds[: serves[0]] and "step" in kinds[serves[-1]:]
        gaps = [later - earlier - 1 for earlier, later in zip(serves, serves[1:])]
        assert max(gaps) <= 1, kinds

    def test_stepped_learning_builds_the_kb_learn_query_builds(self, mini_db, monkeypatch):
        statements = [*QUERIES, FOUR_WAY]

        def seeded_ids():
            rng = random.Random(7)
            monkeypatch.setattr(uuid, "uuid4", lambda: uuid.UUID(int=rng.getrandbits(128)))

        seeded_ids()
        online = Galo(mini_db)
        service = GaloService(online, quiet_config(learning_enabled=True))

        async def scenario():
            async with service:
                for name, sql in statements:
                    service._enqueue_learning(learning_task(name, sql))
                await service.drain()

        run(scenario())
        assert service.metrics.count("learning_completed") == len(statements)

        seeded_ids()
        offline = Galo(mini_db)
        for name, sql in statements:
            offline.learn_query(sql, query_name=name, workload_name="online")

        def template_ids(galo):
            return [template.template_id for template in galo.knowledge_base.all_templates()]

        assert template_ids(online) and template_ids(online) == template_ids(offline)
        assert sorted(online.knowledge_base.graph.to_ntriples().splitlines()) == sorted(
            offline.knowledge_base.graph.to_ntriples().splitlines()
        )

    def test_stop_without_drain_cancels_between_steps(self, galo):
        service = GaloService(
            galo, quiet_config(learning_enabled=True, q_error_threshold=1.0)
        )
        log = EventLog(service)
        name, sql = QUERIES[1]  # parent validation, then three analyses
        stored = []

        async def scenario():
            await service.start()
            queue = service._learning_queue
            await service.submit(sql, query_name=name)  # feedback enqueues it
            enqueued = service.feedback.was_enqueued(sql)
            while log.kinds().count("step") < 3:
                await asyncio.sleep(0)
            stored.extend(galo.knowledge_base.all_templates())
            await service.stop(drain=False)
            await asyncio.wait_for(queue.join(), timeout=1.0)
            return enqueued

        assert run(scenario()) is True
        kb = galo.knowledge_base
        assert 0 < len(kb) == len(stored)
        assert len(kb.index) == len(kb._template_graphs) == len(kb)
        assert service.metrics.count("learning_completed") == 0
        assert service.metrics.count("learning_dropped") == 1
        assert not service.feedback.was_enqueued(sql)

    def test_learned_statement_that_regresses_is_not_re_enqueued(self, galo, mini_db):
        """Learning it again would analyze no sub-query (each is analyzed once
        per process), so a regression after learning enqueues nothing."""
        service = GaloService(
            galo, quiet_config(learning_enabled=True, q_error_threshold=1.0)
        )
        name, sql = QUERIES[1]

        async def scenario():
            async with service:
                await service.submit(sql, query_name=name)
                await service.drain()

        run(scenario())
        assert service.metrics.count("learning_completed") == 1
        plan = mini_db.explain(sql)
        result = mini_db.execute_plan(plan)
        result.elapsed_ms *= 10
        observation = service.feedback.observe(
            sql=sql, query_name=name, qgm=plan, result=result, matched=True, steered=True
        )
        assert observation.regressed and observation.task is None

    def test_statement_whose_templates_were_evicted_is_not_re_enqueued(self, galo):
        """Learning it again would analyze no sub-query (each is analyzed once
        per process), so an eviction does not re-open the statement."""
        service = GaloService(
            galo, quiet_config(learning_enabled=True, q_error_threshold=1.0, kb_capacity=0)
        )
        name, sql = QUERIES[1]

        async def scenario():
            async with service:
                for _ in range(2):
                    await service.submit(sql, query_name=name)
                    await service.drain()

        run(scenario())
        assert service.metrics.count("templates_learned") > 0
        assert service.metrics.count("templates_evicted") > 0
        assert len(galo.knowledge_base) == 0
        assert service.metrics.count("learning_enqueued") == 1
        assert service.feedback.was_enqueued(sql)

    def test_learning_starts_no_thread(self, galo):
        service = GaloService(galo, quiet_config(learning_enabled=True))

        async def scenario():
            before = set(threading.enumerate())
            await service.start()
            service._enqueue_learning(learning_task(*QUERIES[0]))
            await service.drain()
            after = threading.enumerate()
            await service.stop()
            return before, after

        before, after = run(scenario())
        assert service.metrics.count("learning_completed") == 1
        assert threading.current_thread() in after
        assert [thread for thread in after if thread not in before] == []

    def test_restart_after_stop_without_drain_learns_the_new_statement(self, galo):
        service = GaloService(galo, quiet_config(learning_enabled=True))
        learned = []
        forgotten = []

        def learning_steps(sql, **_):
            learned.append(sql)
            yield SimpleNamespace(templates_learned=[])

        galo.learning_engine.learning_steps = learning_steps
        forget = service.feedback.forget
        service.feedback.forget = lambda sql: (forgotten.append(sql), forget(sql))

        async def scenario():
            await service.start()
            for number in (1, 2, 3):
                service._enqueue_learning(learning_task(f"old-{number}", f"old-{number}"))
            await service.stop(drain=False)
            await service.start()
            service._enqueue_learning(learning_task("new", "new"))
            await service.drain()
            staged = service.learning_backlog
            await service.stop()
            return staged

        assert run(scenario()) == 0
        assert learned == ["new"]
        assert forgotten == ["old-1", "old-2", "old-3"]
        assert service.metrics.count("learning_dropped") == 3
        assert service.metrics.count("learning_completed") == 1


class TestLearningQueue:
    """The learning queue carries its tasks and hands them out in FIFO order."""

    def recording_service(self, galo, steps_per_task=1):
        """A learning service whose learner records each task's SQL and takes
        ``steps_per_task`` loop steps on it."""
        service = GaloService(galo, quiet_config(learning_enabled=True))
        learned = []

        def learning_steps(sql, **_):
            learned.append(sql)
            for _ in range(steps_per_task):
                yield SimpleNamespace(templates_learned=[])

        galo.learning_engine.learning_steps = learning_steps
        return service, learned

    def test_tasks_are_learned_in_enqueue_order(self, galo):
        service, learned = self.recording_service(galo)
        order = [f"task-{number}" for number in (3, 1, 4, 0, 2)]

        async def scenario():
            await service.start()
            for sql in order:
                service._enqueue_learning(learning_task(sql, sql))
            await service.drain()
            await service.stop()

        run(scenario())
        assert learned == order
        assert service.metrics.count("learning_enqueued") == len(order)
        assert service.metrics.count("learning_completed") == len(order)

    def test_task_enqueued_mid_learning_waits_behind_queued_tasks(self, galo):
        service, learned = self.recording_service(galo, steps_per_task=3)

        async def scenario():
            await service.start()
            service._enqueue_learning(learning_task("first", "first"))
            service._enqueue_learning(learning_task("second", "second"))
            while learned != ["first"]:
                await asyncio.sleep(0)
            service._enqueue_learning(learning_task("late", "late"))
            await service.drain()
            await service.stop()

        run(scenario())
        assert learned == ["first", "second", "late"]

    def test_learning_backlog_counts_only_waiting_tasks(self, galo):
        service, learned = self.recording_service(galo, steps_per_task=3)

        async def scenario():
            await service.start()
            for sql in ("running", "waiting-1", "waiting-2"):
                service._enqueue_learning(learning_task(sql, sql))
            assert service.learning_backlog == 3
            while learned != ["running"]:
                await asyncio.sleep(0)
            during = service.learning_backlog
            await service.drain()
            after = service.learning_backlog
            await service.stop()
            return during, after

        assert run(scenario()) == (2, 0)

    def test_stop_without_drain_leaves_no_unfinished_queue_work(self, galo):
        service, learned = self.recording_service(galo)

        async def scenario():
            await service.start()
            queue = service._learning_queue
            for number in range(3):
                service._enqueue_learning(learning_task(f"q{number}", f"q{number}"))
            await service.stop(drain=False)
            # Every dropped task was marked done: join() returns at once.
            await asyncio.wait_for(queue.join(), timeout=1.0)
            return queue.qsize()

        assert run(scenario()) == 0
        assert learned == []
        assert service.metrics.count("learning_dropped") == 3
        assert service.learning_backlog == 0

    def test_full_queue_drops_the_task(self, galo, monkeypatch):
        from repro.service import service as service_module

        monkeypatch.setattr(service_module, "LEARNING_QUEUE_LIMIT", 2)
        service, learned = self.recording_service(galo)
        forgotten = []
        forget = service.feedback.forget
        service.feedback.forget = lambda sql: (forgotten.append(sql), forget(sql))

        async def scenario():
            await service.start()
            for sql in ("kept-1", "kept-2", "overflow"):
                service._enqueue_learning(learning_task(sql, sql))
            await service.drain()
            await service.stop()

        run(scenario())
        assert learned == ["kept-1", "kept-2"]
        assert forgotten == ["overflow"]
        assert service.metrics.count("learning_enqueued") == 2
        assert service.metrics.count("learning_dropped") == 1

    def test_enqueue_stamps_a_copy_of_the_task(self, galo):
        service, _ = self.recording_service(galo)
        task = learning_task("stamped", "stamped")

        async def scenario():
            await service.start()
            service._enqueue_learning(task)
            # No await since the put: the learner has not taken it yet.
            queued = service._learning_queue.get_nowait()
            service._learning_queue.task_done()
            await service.stop()
            return queued

        queued = run(scenario())
        assert queued.sql == task.sql and queued.enqueued_at > 0.0
        assert task.enqueued_at == 0.0

    def test_learning_disabled_drops_instead_of_queueing(self, galo):
        service = GaloService(galo, quiet_config())

        async def scenario():
            await service.start()
            service._enqueue_learning(learning_task(*QUERIES[0]))
            backlog = service.learning_backlog
            await service.stop()
            return backlog

        assert run(scenario()) == 0
        assert service.metrics.count("learning_enqueued") == 0
        assert service.metrics.count("learning_dropped") == 1


class LaneSpy:
    """Stands in for the prepared lane's ``LruCache``, noting every read."""

    def __init__(self, cache):
        self.cache = cache
        self.reads = []

    def __getattr__(self, name):
        attribute = getattr(self.cache, name)
        if name not in ("get", "peek"):
            return attribute

        def read(key):
            self.reads.append((name, key))
            return attribute(key)

        return read

    def __len__(self):
        return len(self.cache)


class TestPreparedLaneLookups:
    def test_a_current_hit_reads_the_lane_once(self):
        from tests.prepared_support import WORKLOAD, build_system

        galo = build_system()
        engine = galo.matching_engine
        spy = engine.prepared._entries = LaneSpy(engine.prepared._entries)
        service = GaloService(galo, ServiceConfig(learning_enabled=False))
        name, sql = WORKLOAD[0]

        async def scenario():
            async with service:
                # A miss yields, then looks the statement up afresh.
                await service.submit(sql, query_name=name)
                misses = len(spy.reads)
                spy.reads.clear()
                for _ in range(3):
                    await service.submit(sql, query_name=name)
                hits = list(spy.reads)
                # A stale entry takes the miss path again.
                galo.database.runstats("SALES")
                spy.reads.clear()
                await service.submit(sql, query_name=name)
                return misses, hits, len(spy.reads)

        misses, hits, stale = run(scenario())
        assert misses == 2 and stale == 2
        assert hits == [("get", sql)] * 3
        snapshot = service.metrics.snapshot()
        assert snapshot["prepared_hits"] == 3
        assert snapshot["prepared_misses"] == 2
        assert snapshot["prepared_invalidations"] == 1
