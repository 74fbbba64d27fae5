"""Regression tests for the GL005 (async hygiene) repairs.

galolint's GL005 bans blocking calls on the serving event loop; these tests
pin the *runtime* behaviour of each repaired site: the blocking work
(thread-pool shutdown, KB checkpoint load, reader-thread join) must execute
on an executor thread, never on the loop thread itself.
"""

import asyncio
import queue
import threading

import pytest

from repro.core.galo import Galo
from repro.service import GaloService, ServiceConfig
from repro.service.config import ShardedServiceConfig
from repro.service.sharded import ShardedGaloService, _shard_serve

GUARD_SECONDS = 60


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


@pytest.fixture()
def galo(mini_db):
    return Galo(mini_db)


def quiet_config(**overrides):
    defaults = dict(steering_enabled=False, learning_enabled=False)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class ThreadRecorder:
    """Wrap a callable, recording which thread each invocation ran on."""

    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.threads = []

    def __call__(self, *args, **kwargs):
        self.threads.append(threading.current_thread())
        return self.wrapped(*args, **kwargs)


class TestServiceStopOffLoop:
    def test_pool_shutdown_runs_on_executor_thread(self, galo):
        """GaloService.stop: shutdown(wait=True) joins the learner off the loop."""
        service = GaloService(galo, quiet_config())

        async def scenario():
            await service.start()
            await service.submit("SELECT 1 FROM item")
            loop_thread = threading.current_thread()
            learn_recorder = ThreadRecorder(service._learn_pool.shutdown)
            service._learn_pool.shutdown = learn_recorder
            await service.stop()
            return loop_thread, learn_recorder.threads

        loop_thread, learn_threads = run(scenario())
        assert learn_threads
        assert all(thread is not loop_thread for thread in learn_threads)

    def test_loop_keeps_ticking_during_stop(self, galo):
        """A concurrent heartbeat task makes progress while stop() winds down."""
        service = GaloService(galo, quiet_config())
        ticks = []

        async def heartbeat():
            while True:
                ticks.append(1)
                await asyncio.sleep(0)

        async def scenario():
            await service.start()
            await service.submit("SELECT 1 FROM item")
            task = asyncio.create_task(heartbeat())
            before = len(ticks)
            await service.stop()
            after = len(ticks)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return before, after

        before, after = run(scenario())
        assert after > before, "event loop starved while stop() was winding down"


class TestShardBootstrapOffLoop:
    def test_bootstrap_kb_reload_runs_on_executor_thread(self, galo, tmp_path, monkeypatch):
        """_shard_serve: the startup checkpoint load must not block the loop."""
        reload_threads = []

        def recording_reload(self, directory, force=False):
            reload_threads.append((threading.current_thread(), directory, force))
            return None

        monkeypatch.setattr(Galo, "maybe_reload_knowledge_base", recording_reload)

        request_queue = queue.Queue()
        response_queue = queue.Queue()
        request_queue.put(("stop",))
        sharded_config = ShardedServiceConfig(
            num_workers=1, kb_directory=str(tmp_path), learner_shard=0
        )

        async def scenario():
            loop_thread = threading.current_thread()
            await _shard_serve(
                0, galo, quiet_config(), sharded_config, request_queue, response_queue
            )
            return loop_thread

        loop_thread = run(scenario())
        assert len(reload_threads) == 1
        thread, directory, force = reload_threads[0]
        assert directory == str(tmp_path) and force is True
        assert thread is not loop_thread, "bootstrap KB load ran on the event loop"
        # The worker still announced readiness and a clean stop.
        kinds = []
        while not response_queue.empty():
            kinds.append(response_queue.get()[0])
        assert kinds[0] == "ready" and kinds[-1] == "stopped"


class TestShardedStopOffLoop:
    def test_reader_retirement_runs_on_executor_thread(self, monkeypatch):
        """ShardedGaloService.stop: reader join + queue close happen off-loop."""
        service = ShardedGaloService(object, ShardedServiceConfig(num_workers=1))
        response_queue = service._ctx.Queue()

        def read_until_sentinel():
            while response_queue.get() is not None:
                pass

        reader = threading.Thread(target=read_until_sentinel, daemon=True)
        reader.start()

        retire_recorder = ThreadRecorder(service._retire_reader_sync)
        close_recorder = ThreadRecorder(service._close_response_queue_sync)
        monkeypatch.setattr(service, "_retire_reader_sync", retire_recorder)
        monkeypatch.setattr(service, "_close_response_queue_sync", close_recorder)

        async def scenario():
            # A started-but-workerless cluster: only the reader thread and
            # the shared response queue need retiring.
            service._loop = asyncio.get_running_loop()
            service._response_queue = response_queue
            service._reader = reader
            service._started = True
            loop_thread = threading.current_thread()
            await service.stop()
            return loop_thread

        loop_thread = run(scenario())
        assert retire_recorder.threads and close_recorder.threads
        assert all(t is not loop_thread for t in retire_recorder.threads)
        assert all(t is not loop_thread for t in close_recorder.threads)
        reader.join(timeout=5.0)
        assert not reader.is_alive(), "reader thread was not unblocked"
        assert service._response_queue is None and service._reader is None
