"""Runtime companion of galolint's GL005 (async hygiene) rule.

GL005 bans blocking calls on the serving event loop.  ``GaloService.stop``
has no blocking work (its learner runs on the loop in steps); what it must
still do is let the loop tick while it drains.
"""

import asyncio
from types import SimpleNamespace

import pytest

from repro.core.galo import Galo
from repro.service import GaloService, ServiceConfig
from repro.service.feedback import LearningTask, sql_fingerprint

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


class TestServiceStopOnLoop:
    def test_loop_keeps_ticking_during_stop(self, galo):
        """A concurrent heartbeat ticks while stop(drain=True) learns a
        queued multi-step task: every learning step yields to the loop."""
        service = GaloService(galo, quiet_config(learning_enabled=True))
        ticks = []
        ticks_at_step = []

        def learning_steps(sql, **_):
            for _ in range(5):
                ticks_at_step.append(len(ticks))
                yield SimpleNamespace(templates_learned=[])

        galo.learning_engine.learning_steps = learning_steps

        async def heartbeat():
            while True:
                ticks.append(1)
                await asyncio.sleep(0)

        async def scenario():
            await service.start()
            sql = "SELECT 1 FROM item"
            service._enqueue_learning(
                LearningTask(
                    sql=sql, query_name="multi-step", reason="misestimated",
                    sql_hash=sql_fingerprint(sql), max_q_error=8.0, elapsed_ms=1.0,
                )
            )
            task = asyncio.create_task(heartbeat())
            before = len(ticks)
            await service.stop(drain=True)
            after = len(ticks)
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            return before, after

        before, after = run(scenario())
        assert service.metrics.count("learning_completed") == 1
        assert len(ticks_at_step) == 5
        # The heartbeat ran between every two learning steps.
        assert all(b > a for a, b in zip(ticks_at_step, ticks_at_step[1:]))
        assert after > before, "event loop starved while stop() was winding down"
