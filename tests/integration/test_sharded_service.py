"""Sharded multi-process serving: the acceptance scenario for the router.

The sharded tier's contract, end to end over real spawned workers:

(a) per-shard results are bit-identical to a single-process ``GaloService``
    over the same factory and knowledge-base checkpoint (rows, status,
    steering decisions, matched templates, simulated latency);
(b) a knowledge-base checkpoint version bump is picked up by every worker
    via hot-reload without a single dropped request;
(c) a killed worker fails only its in-flight requests with a typed error,
    the router restarts it, and the restarted shard serves at the latest
    checkpoint version.
"""

import asyncio
import time

import pytest

pytestmark = pytest.mark.slow

from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.service import (
    ServiceConfig,
    ShardedGaloService,
    ShardedServiceConfig,
    serve_workload,
    serve_workload_sharded,
)
from repro.service import sharded
from repro.service.workers import MiniGaloFactory, mini_star_queries

#: Spawned workers each build their own mini database; generous guard so a
#: hung queue fails the test rather than wedging the suite.
GUARD_SECONDS = 300

#: Small enough that worker start-up stays in seconds, large enough that the
#: optimizer still has real choices to mis-estimate.
SALES_ROWS = 2000


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, timeout=GUARD_SECONDS))


def seed_checkpoint(directory, query_count=None):
    """Publish checkpoint v1 built from the same database the workers build.

    Returns the number of templates written.  The factory is deterministic,
    so templates abstracted from a local replica match what any worker's
    replica would produce.
    """
    galo = MiniGaloFactory(sales_rows=SALES_ROWS)()
    kb = KnowledgeBase()
    count = 0
    queries = mini_star_queries()
    if query_count is not None:
        queries = queries[:query_count]
    for name, sql in queries:
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
    assert kb.save(directory) == 1
    return count


def quiet_config(**overrides):
    return ServiceConfig(learning_enabled=False, **overrides)


def response_key(response):
    """Everything deterministic about a response, including dict row order.

    ``elapsed_ms`` is the *simulated* cost-model latency and is exactly
    reproducible; wall-clock fields (``wall_ms``, ``match_time_ms``) are
    deliberately excluded.
    """
    return (
        response.query_name,
        response.status,
        tuple(tuple(row.items()) for row in response.rows),
        response.elapsed_ms,
        response.steered,
        tuple(response.matched_template_ids),
        response.max_q_error,
    )


class TestBitIdentity:
    def test_sharded_matches_single_process(self, tmp_path):
        """Three shards with steering == one GaloService, response for response."""
        kb_dir = str(tmp_path)
        seed_checkpoint(kb_dir)
        factory = MiniGaloFactory(sales_rows=SALES_ROWS)
        requests = mini_star_queries() * 3

        reference = factory()
        reference.load_knowledge_base(kb_dir)
        single, _ = serve_workload(reference, requests, quiet_config())

        config = ShardedServiceConfig(
            num_workers=3,
            kb_directory=kb_dir,
            learner_shard=None,
            worker_config=quiet_config(),
        )
        sharded, snapshot = serve_workload_sharded(factory, requests, config)

        assert sorted(map(response_key, single)) == sorted(map(response_key, sharded))
        # The checkpoint steers in both deployments -- the comparison above is
        # over steered plans, not a trivially-empty match.
        assert sum(r.steered for r in sharded) > 0
        assert snapshot["completed"] == len(requests)
        assert snapshot["failed"] == 0
        assert snapshot["rejected"] == 0

    def test_routing_is_deterministic_and_stamped(self, tmp_path):
        """Same statement -> same shard, and responses carry that shard id."""
        kb_dir = str(tmp_path)
        seed_checkpoint(kb_dir, query_count=1)
        factory = MiniGaloFactory(sales_rows=SALES_ROWS)
        config = ShardedServiceConfig(
            num_workers=2,
            kb_directory=kb_dir,
            learner_shard=None,
            worker_config=quiet_config(),
        )

        async def scenario():
            service = ShardedGaloService(factory, config)
            async with service:
                expected = {
                    name: service.shard_for(sql, name)
                    for name, sql in mini_star_queries()
                }
                responses = []
                async for response in service.stream(mini_star_queries() * 2):
                    responses.append(response)
                return expected, responses

        expected, responses = run(scenario())
        assert len(responses) == len(mini_star_queries()) * 2
        for response in responses:
            assert response.ok
            assert response.shard == expected[response.query_name]


class TestHotReload:
    def test_version_bump_reaches_all_workers_without_drops(self, tmp_path):
        kb_dir = str(tmp_path)
        seed_checkpoint(kb_dir, query_count=1)
        factory = MiniGaloFactory(sales_rows=SALES_ROWS)
        config = ShardedServiceConfig(
            num_workers=2,
            kb_directory=kb_dir,
            kb_poll_interval_seconds=0.2,
            learner_shard=None,
            worker_config=quiet_config(),
        )

        async def scenario():
            service = ShardedGaloService(factory, config)
            async with service:
                assert await service.kb_versions() == [1, 1]

                # Publish v2 from outside the cluster (an external learner),
                # then keep serving until every worker reports it.
                publisher = KnowledgeBase.load(kb_dir)
                new_version = publisher.save(kb_dir)
                assert new_version == 2

                responses = []
                deadline = time.monotonic() + GUARD_SECONDS / 2
                versions = await service.kb_versions()
                while time.monotonic() < deadline:
                    async for response in service.stream(mini_star_queries()):
                        responses.append(response)
                    versions = await service.kb_versions()
                    if all(v == new_version for v in versions):
                        break
                page = await service.render_metrics()
                return versions, new_version, responses, page

        versions, new_version, responses, page = run(scenario())
        assert versions == [new_version] * 2
        # Zero dropped requests while the reload happened under load.
        assert responses and all(r.ok for r in responses)
        assert 'galo_kb_version{shard="0"} 2' in page
        assert 'galo_kb_version{shard="1"} 2' in page


class TestWorkerCrash:
    @staticmethod
    def victim_shard(service):
        """The highest-numbered shard the mini workload routes a statement to:
        a drill on it always has requests to fail, whatever the routing key."""
        return max(service.shard_for(sql, name) for name, sql in mini_star_queries())

    @staticmethod
    def crash_setup(tmp_path, monkeypatch, max_worker_restarts):
        """Checkpoint directory, worker factory and router config of a
        two-shard crash drill with a restart budget of ``max_worker_restarts``."""
        monkeypatch.setattr(sharded, "MAX_WORKER_RESTARTS", max_worker_restarts)
        kb_dir = str(tmp_path)
        seed_checkpoint(kb_dir, query_count=1)
        factory = MiniGaloFactory(sales_rows=SALES_ROWS)
        config = ShardedServiceConfig(
            num_workers=2,
            kb_directory=kb_dir,
            kb_poll_interval_seconds=0.2,
            learner_shard=None,
            worker_config=quiet_config(),
        )
        return kb_dir, factory, config

    def test_crash_fails_inflight_typed_then_restarts_at_latest_kb(self, tmp_path, monkeypatch):
        kb_dir, factory, config = self.crash_setup(tmp_path, monkeypatch, max_worker_restarts=2)

        async def scenario():
            service = ShardedGaloService(factory, config)
            async with service:
                victim_shard = self.victim_shard(service)
                # Bump the checkpoint BEFORE the crash: the restarted worker
                # must come back at v2, not its birth version.
                publisher = KnowledgeBase.load(kb_dir)
                latest = publisher.save(kb_dir)

                victim_queries = [
                    (name, sql)
                    for name, sql in mini_star_queries()
                    if service.shard_for(sql, name) == victim_shard
                ]
                assert victim_queries

                # Queue the crash first, then requests right behind it on the
                # same FIFO: they are in flight when the process dies.
                service.inject_worker_crash(victim_shard)
                tasks = [
                    asyncio.create_task(service.submit(sql, query_name=name))
                    for name, sql in victim_queries * 3
                ]
                crashed_wave = await asyncio.gather(*tasks)

                # The service keeps serving: every shard, including the
                # restarted one, answers a full sweep.
                after = [
                    await service.submit(sql, query_name=name)
                    for name, sql in mini_star_queries()
                ]
                # The restarted worker bootstraps at the latest checkpoint;
                # the surviving worker converges via its poller -- give it a
                # bounded window rather than racing the poll interval.
                deadline = time.monotonic() + GUARD_SECONDS / 2
                versions = await service.kb_versions()
                while versions != [latest] * 2 and time.monotonic() < deadline:
                    await asyncio.sleep(0.1)
                    versions = await service.kb_versions()
                snapshot = service.metrics.snapshot()
                return victim_shard, crashed_wave, after, versions, latest, snapshot

        victim_shard, crashed_wave, after, versions, latest, snapshot = run(scenario())

        typed = [r for r in crashed_wave if r.error_type == "WorkerCrashedError"]
        assert typed, "requests queued behind the crash must fail typed"
        for response in typed:
            assert response.status == "error"
            assert response.shard == victim_shard
        # Only in-flight requests on the dead shard failed -- nothing else.
        assert all(
            r.ok or r.error_type == "WorkerCrashedError" for r in crashed_wave
        )
        assert all(r.ok for r in after)
        assert versions == [latest] * 2
        assert snapshot["worker_crashes"] == 1
        assert snapshot["worker_restarts"] == 1
        assert snapshot["router_crashed_requests"] == len(typed)

    def test_zero_restart_budget_leaves_the_crashed_shard_down(self, tmp_path, monkeypatch):
        """``MAX_WORKER_RESTARTS = 0`` turns restarts off: the dead shard stays
        down, every later request routed to it is answered with a typed
        error from the router, and the other shard keeps serving."""
        _, factory, config = self.crash_setup(tmp_path, monkeypatch, max_worker_restarts=0)

        async def scenario():
            service = ShardedGaloService(factory, config)
            async with service:
                victim_shard = self.victim_shard(service)
                service.inject_worker_crash(victim_shard)
                # The watchdog marks the shard failed in the same step that
                # counts the crash.
                deadline = time.monotonic() + GUARD_SECONDS / 2
                while (
                    service.metrics.snapshot()["worker_crashes"] == 0
                    and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.05)
                routed = []
                for name, sql in mini_star_queries():
                    response = await service.submit(sql, query_name=name)
                    routed.append((service.shard_for(sql, name), response))
                return victim_shard, routed, service.metrics.snapshot()

        victim_shard, routed, snapshot = run(scenario())

        down = [r for shard, r in routed if shard == victim_shard]
        up = [r for shard, r in routed if shard != victim_shard]
        assert down and up  # the mini workload covers both shards
        for response in down:
            assert response.status == "error"
            assert response.error_type == "WorkerCrashedError"
            assert response.shard == victim_shard
        assert all(r.ok for r in up)
        assert snapshot["worker_crashes"] == 1
        assert snapshot["worker_restarts"] == 0
        assert snapshot["router_failed_shard_errors"] == len(down)


class TestTracing:
    def test_one_trace_spans_router_worker_and_executor(self, tmp_path):
        """A routed request yields ONE trace: router request span on top, the
        worker's span tree re-parented beneath it, executor node spans at the
        bottom -- with the queue-wait, match, plan, and execute stages."""
        kb_dir = str(tmp_path)
        seed_checkpoint(kb_dir)
        factory = MiniGaloFactory(sales_rows=SALES_ROWS)
        config = ShardedServiceConfig(
            num_workers=2,
            kb_directory=kb_dir,
            learner_shard=None,
            worker_config=quiet_config(
                steering_enabled=True, tracing_enabled=True
            ),
        )

        async def scenario():
            service = ShardedGaloService(factory, config)
            async with service:
                responses = []
                async for response in service.stream(mini_star_queries()):
                    responses.append(response)
                timelines = {
                    response.request_id: service.explain_request(
                        response.request_id
                    )
                    for response in responses
                }
                traces = {
                    response.request_id: service.trace_store.get(
                        request_id=response.request_id
                    )
                    for response in responses
                }
                page = await service.render_metrics()
                return responses, traces, timelines, page

        responses, traces, timelines, page = run(scenario())

        assert all(response.ok for response in responses)
        steered = [r for r in responses if r.steered]
        assert steered, "the seeded checkpoint must steer at least one query"

        for response in responses:
            assert response.request_id and response.trace_id
            trace = traces[response.request_id]
            assert trace is not None, "router must store the merged trace"
            spans = trace["spans"]
            by_name = {}
            for span in spans:
                by_name.setdefault(span["name"], span)
            names = set(by_name)

            # One trace, three layers: router request -> adopted worker
            # subtree -> executor node spans.
            for stage in ("request", "worker_request", "queue_wait", "plan",
                          "execute"):
                assert stage in names, f"missing {stage} in {sorted(names)}"
            # Executor node spans at the bottom: the plan root ("return") is
            # always executed; deeper scans may be elided when the worker's
            # workload memo replays a subtree from an earlier request.
            assert "return" in names, f"no executor node spans in {sorted(names)}"
            if response.steered:
                assert "match" in names and "steer" in names

            # The worker subtree hangs off the router's request span.
            root = next(
                span for span in spans
                if span["span_id"] == trace["root_span_id"]
            )
            worker_root = by_name["worker_request"]
            assert worker_root["parent_id"] == root["span_id"]
            assert by_name["queue_wait"]["parent_id"] == worker_root["span_id"]
            assert root["attributes"]["shard"] == response.shard
            # The worker subtree nests inside the router span's window.
            worker_end = (
                worker_root["start_ms"] + worker_root["duration_ms"]
            )
            assert worker_end <= root["duration_ms"] + 1e-6

            timeline = timelines[response.request_id]
            assert "worker_request" in timeline and "execute" in timeline

        # The merged metrics page exposes per-shard stage histograms.
        assert "galo_stage_latency_ms_bucket" in page
        assert 'shard="0"' in page and 'stage="execute"' in page
