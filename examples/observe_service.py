"""Observe a live GALO service: request traces, slow queries, stage metrics.

Run with::

    python examples/observe_service.py

The script serves a small query mix through a :class:`GaloService` with
request tracing enabled (``ServiceConfig(tracing_enabled=True)``) and then
shows every observability surface the serving tier exposes:

1. **Request timelines** -- ``service.explain_request(request_id)`` renders
   one served request as a span tree: admission queue wait, plan, knowledge-
   base match, execute (down to per-operator executor spans with row counts
   and memo hit/miss deltas), and the feedback decision.
2. **The slow-query log** -- request traces over
   ``slow_query_threshold_ms`` land in a separate bounded ring so a burst of
   fast traffic cannot rotate a slow statement out before anyone looks.
3. **Background-plane traces** -- the learner records a
   ``learn_query`` trace per task (queue dwell, per-phase spans).
4. **The /metrics page** -- counters with ``# HELP``/``# TYPE`` headers plus
   per-stage latency histograms (``galo_stage_latency_ms_bucket{stage=...}``).

Tracing is differential-tested to be bit-identical: rows, counters and the
simulated ``elapsed_ms`` do not change whether it is on or off, and the
traced-throughput benchmark holds it to >= 95 % of untraced qps.
"""

from __future__ import annotations

import asyncio

from repro import Galo, GaloService, ServiceConfig
from repro.core.learning.engine import LearningConfig

# Reuse the demo star schema + query mix from the serving example.
from serve_workload import QUERY_MIX, build_database


async def main() -> None:
    db = build_database()
    galo = Galo(
        db,
        learning_config=LearningConfig(max_joins=3, random_plans_per_subquery=4),
    )
    service = GaloService(
        galo,
        ServiceConfig(
            tracing_enabled=True,
            # Demo threshold: low enough that the heavier joins land in the
            # slow-query log (production would use hundreds of ms).
            slow_query_threshold_ms=2.0,
        ),
    )

    async with service:
        # -- wave 1: cold serve; capture a timeline per request ---------------
        responses = []
        async for response in service.stream(QUERY_MIX):
            responses.append(response)

        print("=" * 72)
        print("request timelines (explain_request)")
        print("=" * 72)
        for response in responses:
            print(service.explain_request(response.request_id))
            print()

        # -- background planes: let the learner drain, then steered repeats --
        await service.drain()
        steered = [
            await service.submit(sql, query_name=f"{name}#again")
            for name, sql in QUERY_MIX
        ]
        print("=" * 72)
        print("a steered repeat (note the match/steer spans)")
        print("=" * 72)
        for response in steered:
            if response.steered:
                print(service.explain_request(response.request_id))
                print()
                break

        learn_traces = service.trace_store.traces(name="learn_query")
        if learn_traces:
            print("=" * 72)
            print(f"background learning traces ({len(learn_traces)})")
            print("=" * 72)
            from repro.obs import render_timeline

            print(render_timeline(learn_traces[0]))
            print()

        # -- slow-query log ---------------------------------------------------
        print("=" * 72)
        print("slow-query log (threshold "
              f"{service.config.slow_query_threshold_ms} ms)")
        print("=" * 72)
        for trace in service.slow_queries():
            print(
                f"  {trace['request_id']:<10} {trace['duration_ms']:8.2f} ms"
                f"  trace={trace['trace_id']}"
            )
        print()

        # -- the /metrics page ------------------------------------------------
        page = service.render_metrics()
        print("=" * 72)
        print("/metrics excerpt (stage histograms + trace gauges)")
        print("=" * 72)
        for line in page.splitlines():
            if "stage_latency" in line or "traces" in line or "slow_queries" in line:
                print(f"  {line}")


if __name__ == "__main__":
    asyncio.run(main())
