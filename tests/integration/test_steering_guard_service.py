"""Steering-guard integration: differential identity and quarantine durability.

Two acceptance scenarios from the robustness issue:

(a) **Differential**: serving with the guard enabled but zero observed
    regressions is bit-identical to serving with the guard disabled -- rows
    (including dict key order), simulated ``elapsed_ms``, steering decisions,
    matched template ids and every shared counter.  The guard may only add
    its own counters, never perturb the serving path.
(b) **Durability**: quarantine state written into a knowledge-base checkpoint
    reaches every sharded worker via hot-reload (the quarantined template
    stops steering cluster-wide), is visible in the per-shard metrics, and
    survives a worker crash + restart.
"""

import asyncio

import pytest

pytestmark = pytest.mark.slow

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.service import (
    ServiceConfig,
    ShardedGaloService,
    ShardedServiceConfig,
    serve_workload,
)
from repro.service import sharded
from repro.service.guard import GUARD_COUNTERS
from repro.service.workers import MiniGaloFactory, mini_star_queries

GUARD_SECONDS = 300

SALES_ROWS = 2000


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


def seed_template_checkpoint(db, directory):
    """Checkpoint a KB with one template per query segment of the workload.

    Template ids are uuid-generated at abstraction time, so differential
    comparisons must *load* the same checkpoint on both sides rather than
    abstracting twice.
    """
    kb = KnowledgeBase()
    count = 0
    for name, sql in mini_star_queries():
        for segment in segment_plan(db.explain(sql), max_joins=3):
            count += 1
            abstract_template_from_plan(
                kb,
                segment,
                name=f"diff{count}",
                source_workload="integration",
                source_query=name,
                widen=2.0,
                improvement=0.2,
                catalog=db.catalog,
            )
    assert kb.save(directory) == 1


def seeded_galo(db, directory):
    """A Galo over ``db`` serving the checkpoint at ``directory``."""
    galo = Galo(db)
    galo.load_knowledge_base(directory)
    return galo


def response_key(response):
    """Everything deterministic about one response, dict key order included."""
    return (
        response.query_name,
        response.status,
        tuple(tuple(row.items()) for row in response.rows),
        response.elapsed_ms,
        response.steered,
        tuple(response.matched_template_ids),
        response.max_q_error,
    )


#: Counter/gauge names only the guard emits (stripped before comparing
#: snapshots); wall-clock latency stats are excluded for the same reason.
GUARD_ONLY = set(GUARD_COUNTERS)


def comparable_counters(snapshot):
    return {
        name: value
        for name, value in snapshot.items()
        if name not in GUARD_ONLY and not name.startswith("latency_")
    }


class TestDifferentialIdentity:
    def test_guard_on_without_regressions_is_bit_identical(
        self, serving_db, tmp_path
    ):
        requests = mini_star_queries() * 3
        config = dict(learning_enabled=False)
        seed_template_checkpoint(serving_db, str(tmp_path))

        # Both deployments share the one database and its execution memo:
        # each starts from an empty memo, or the second replays outcomes the
        # first kept and its prepared_replays differ.
        serving_db.workload_memo().reset()
        galo_off = seeded_galo(serving_db, str(tmp_path))
        responses_off, snapshot_off = serve_workload(
            galo_off, requests, ServiceConfig(guard_enabled=False, **config)
        )
        serving_db.workload_memo().reset()
        galo_on = seeded_galo(serving_db, str(tmp_path))
        responses_on, snapshot_on = serve_workload(
            galo_on, requests, ServiceConfig(guard_enabled=True, **config)
        )

        # Responses arrive in completion order (scheduling-dependent); the
        # multisets must match exactly.
        assert sorted(map(response_key, responses_on)) == sorted(
            map(response_key, responses_off)
        )
        # The comparison covers steered plans, not a trivially-empty match.
        assert sum(r.steered for r in responses_on) > 0
        # Zero regressions observed: nothing was quarantined, nothing lost.
        assert snapshot_on["steering_losses"] == 0
        assert snapshot_on["quarantine_blocks"] == 0
        assert galo_on.quarantined_template_ids() == []
        # Every counter both deployments share is identical -- the prepared
        # lane's hits, misses and replays included, since one serving thread
        # makes them deterministic; the guard only ever adds its own.
        assert comparable_counters(snapshot_on) == comparable_counters(snapshot_off)

    def test_quarantined_template_stops_steering_single_process(
        self, serving_db, tmp_path
    ):
        """Graceful degradation: quarantine -> optimizer plan, same rows."""
        requests = mini_star_queries()
        config = ServiceConfig(
            learning_enabled=False, guard_probe_interval=1000
        )
        seed_template_checkpoint(serving_db, str(tmp_path))
        galo = seeded_galo(serving_db, str(tmp_path))
        steered_first, _ = serve_workload(galo, requests, config)
        assert sum(r.steered for r in steered_first) > 0

        for template_id in list(galo.knowledge_base.templates):
            galo.quarantine_template(template_id)
        degraded, snapshot = serve_workload(galo, requests, config)
        assert all(not r.steered for r in degraded)
        assert snapshot["quarantine_blocks"] > 0
        # Fallback plans still produce the same result sets.
        by_name = {r.query_name: r for r in steered_first}
        for response in degraded:
            assert response.ok
            assert len(response.rows) == len(by_name[response.query_name].rows)


def seed_quarantined_checkpoint(directory):
    """Checkpoint v1: templates for the mini workload, every one quarantined."""
    galo = MiniGaloFactory(sales_rows=SALES_ROWS)()
    kb = KnowledgeBase()
    count = 0
    for name, sql in mini_star_queries():
        for segment in segment_plan(galo.database.explain(sql), max_joins=3):
            count += 1
            abstract_template_from_plan(
                kb,
                segment,
                name=f"seed{count}",
                source_workload="integration",
                source_query=name,
                widen=2.0,
                improvement=0.2,
                catalog=galo.database.catalog,
            )
    for template_id in list(kb.templates):
        kb.record_steering_outcome(template_id, win=False)
        kb.quarantine_template(template_id)
    assert kb.save(directory) == 1
    return sorted(kb.templates)


class TestQuarantineDurability:
    def test_quarantine_survives_checkpoint_reload_and_crash(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sharded, "MAX_WORKER_RESTARTS", 2)
        kb_dir = str(tmp_path)
        quarantined = seed_quarantined_checkpoint(kb_dir)
        factory = MiniGaloFactory(sales_rows=SALES_ROWS)
        config = ShardedServiceConfig(
            num_workers=2,
            kb_directory=kb_dir,
            kb_poll_interval_seconds=0.2,
            learner_shard=None,
            worker_config=ServiceConfig(
                learning_enabled=False,
                # Probes effectively off: every match of a quarantined
                # template must block, cluster-wide.
                guard_probe_interval=10_000,
            ),
        )
        victim_shard = 0

        async def scenario():
            service = ShardedGaloService(factory, config)
            async with service:
                first_wave = []
                async for response in service.stream(mini_star_queries() * 2):
                    first_wave.append(response)

                statuses = await service.shard_status()
                page = await service.render_metrics()

                # Crash one worker; its replacement bootstraps from the
                # checkpoint and must come back quarantined too.
                service.inject_worker_crash(victim_shard)
                crash_wave = [
                    await service.submit(sql, query_name=name)
                    for name, sql in mini_star_queries() * 3
                ]
                after_statuses = await service.shard_status()
                after_page = await service.render_metrics()
                return (
                    first_wave, statuses, page,
                    crash_wave, after_statuses, after_page,
                )

        (first_wave, statuses, page,
         crash_wave, after_statuses, after_page) = run(scenario())

        # (1) Hot-loaded quarantine degrades steering on every shard.
        assert first_wave and all(r.ok for r in first_wave)
        assert all(not r.steered for r in first_wave)

        # (2) Every worker reports the quarantine it loaded.
        assert [s["quarantined_templates"] for s in statuses if s] == [
            len(quarantined)
        ] * 2
        for shard in (0, 1):
            assert (
                f'galo_quarantined_templates{{shard="{shard}"}} {len(quarantined)}'
                in page
            )
        assert f"galo_quarantined_templates {len(quarantined)}" in page

        # (3) The restarted worker still refuses to steer and still reports
        # the quarantine (state came back through the checkpoint).
        survivors = [r for r in crash_wave if r.ok]
        assert survivors, "the cluster must keep serving through the crash"
        assert all(not r.steered for r in survivors)
        assert all(
            r.ok or r.error_type == "WorkerCrashedError" for r in crash_wave
        )
        live_after = [s for s in after_statuses if s]
        assert len(live_after) == 2, "the crashed worker must restart"
        assert [s["quarantined_templates"] for s in live_after] == [
            len(quarantined)
        ] * 2
        assert (
            f'galo_quarantined_templates{{shard="{victim_shard}"}} {len(quarantined)}'
            in after_page
        )
