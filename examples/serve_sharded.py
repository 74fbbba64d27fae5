"""Sharded serving: a consistent-hash router over worker processes.

Run with::

    python examples/serve_sharded.py

One ``GaloService`` process is bounded by a single Python interpreter (one
GIL), however many threads it runs.  :class:`ShardedGaloService` scales past
that by spawning N worker processes -- each builds its own database replica
and engine from a picklable *factory* -- and routing every statement to a
shard by its SQL fingerprint, so repeat statements always land on the same
worker (keeping its feedback history and execution memo warm).

The script demonstrates the full lifecycle on the mini star schema:

1. publish a knowledge-base checkpoint (version 1) learned offline;
2. start a 2-worker cluster that bootstraps from the checkpoint and serve a
   request stream, showing per-shard routing;
3. publish checkpoint version 2 while the cluster keeps serving -- every
   worker hot-reloads it without dropping a request;
4. kill a worker mid-stream: queued requests on that shard fail with a typed
   ``WorkerCrashedError``, the router restarts the shard, and it comes back
   at the latest checkpoint version;
5. print the aggregated cluster ``/metrics`` page (merged counters and
   latency percentiles, plus per-shard labelled series).
"""

from __future__ import annotations

import asyncio
import tempfile
import time

from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.service import ServiceConfig, ShardedGaloService, ShardedServiceConfig
from repro.service.workers import MiniGaloFactory, mini_star_queries


def publish_checkpoint(directory: str, query_count: int) -> int:
    """Learn templates offline from a local replica and publish a checkpoint.

    The factory is deterministic: templates abstracted from this replica
    match the plans every worker's own replica produces.
    """
    galo = MiniGaloFactory()()
    kb = KnowledgeBase()
    if KnowledgeBase.checkpoint_version_on_disk(directory) > 0:
        kb = KnowledgeBase.load(directory)
    count = 0
    for name, sql in mini_star_queries()[:query_count]:
        for segment in segment_plan(galo.database.explain(sql), max_joins=3):
            count += 1
            abstract_template_from_plan(
                kb,
                segment,
                name=f"pub{len(kb)}",
                source_workload="example",
                source_query=name,
                widen=2.0,
                improvement=0.2,
                catalog=galo.database.catalog,
            )
    return kb.save(directory)


async def main() -> None:
    kb_dir = tempfile.mkdtemp(prefix="galo_ckpt_")
    version = publish_checkpoint(kb_dir, query_count=2)
    print(f"published checkpoint v{version} to {kb_dir}")

    config = ShardedServiceConfig(
        num_workers=2,
        kb_directory=kb_dir,
        kb_poll_interval_seconds=0.2,
        # Checkpoints come from outside the cluster in this demo, so no
        # worker is the designated learner -- all of them watch the stamp.
        learner_shard=None,
        worker_config=ServiceConfig(learning_enabled=False),
    )
    service = ShardedGaloService(MiniGaloFactory(), config)

    async with service:
        print("\n-- wave 1: routed serving ------------------------------")
        async for response in service.stream(mini_star_queries()):
            print(
                f"  shard {response.shard}  {response.query_name:<15}"
                f" {response.status:<4} rows={len(response.rows)}"
                f" steered={response.steered}"
            )
        print(f"kb versions: {await service.kb_versions()}")

        print("\n-- wave 2: hot-reload under load -----------------------")
        new_version = publish_checkpoint(kb_dir, query_count=4)
        print(f"published checkpoint v{new_version}; serving while it spreads...")
        served = 0
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            async for response in service.stream(mini_star_queries()):
                assert response.ok, response.error
                served += 1
            versions = await service.kb_versions()
            if all(v == new_version for v in versions):
                break
        print(f"kb versions: {await service.kb_versions()} "
              f"({served} requests served during the reload, zero dropped)")

        print("\n-- wave 3: worker crash and restart --------------------")
        victim = 1
        victim_queries = [
            (name, sql)
            for name, sql in mini_star_queries()
            if service.shard_for(sql, name) == victim
        ]
        service.inject_worker_crash(victim)
        tasks = [
            asyncio.create_task(service.submit(sql, query_name=name))
            for name, sql in victim_queries * 3
        ]
        results = await asyncio.gather(*tasks)
        crashed = sum(1 for r in results if r.error_type == "WorkerCrashedError")
        print(f"  shard {victim} died: {crashed}/{len(results)} in-flight requests "
              f"failed with a typed WorkerCrashedError")
        after = [await service.submit(sql, query_name=name)
                 for name, sql in mini_star_queries()]
        print(f"  after restart: {sum(r.ok for r in after)}/{len(after)} ok, "
              f"kb versions {await service.kb_versions()}")

        print("\n-- aggregated cluster metrics --------------------------")
        page = await service.render_metrics()
        for line in page.splitlines():
            if line.startswith("# TYPE"):
                continue
            if any(key in line for key in (
                "completed", "steered", "shard_up", "kb_version",
                "worker_crashes", "worker_restarts", "latency_p95",
            )):
                print(f"  {line}")


if __name__ == "__main__":
    asyncio.run(main())
