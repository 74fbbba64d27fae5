"""Sharded multi-process serving: a consistent-hash router over N workers.

The single-process :class:`~repro.service.service.GaloService` is GIL-bound:
matching, learning and execution all compete for one interpreter.  This
module scales it out:

- :class:`ShardedGaloService` is an asyncio front-end that consistent-hashes
  each request (by SQL fingerprint; ``routing_key`` overrides, e.g. per
  tenant) across ``num_workers`` worker *processes*.  Each worker builds its
  own :class:`~repro.engine.database.Database` + engines + KB replica from a
  picklable factory (:mod:`repro.service.workers`) and runs a full
  ``GaloService`` loop, so shards share nothing and scale past the GIL.
- Requests travel over a per-worker ``multiprocessing`` queue; responses come
  back on one shared queue drained by a reader thread that resolves futures
  on the event loop.  Admission is bounded per shard
  (``MAX_PENDING_PER_SHARD``); ``stream`` yields responses in completion
  order, matching the single-process API.
- Knowledge propagates through checkpoint files: the worker on
  ``learner_shard`` keeps the background learner and publishes atomic,
  versioned checkpoints to ``kb_directory``; every other worker polls for the
  newest version directory and hot-reloads on a bump without pausing serving.
- A worker process that dies fails only its in-flight requests with typed
  :class:`WorkerCrashedError` responses and is respawned by the router
  (reloading the latest checkpoint on the way up), bounded by
  ``MAX_WORKER_RESTARTS``.

.. code-block:: python

    from repro.service import ShardedGaloService, ShardedServiceConfig
    from repro.service.workers import MiniGaloFactory

    config = ShardedServiceConfig(num_workers=4, kb_directory="/tmp/galo-kb")
    async with ShardedGaloService(MiniGaloFactory(), config) as service:
        async for response in service.stream(requests):
            ...
"""

from __future__ import annotations

import asyncio
import bisect
import dataclasses
import hashlib
import os
import threading
import time
from dataclasses import replace
from typing import (
    Any,
    AsyncIterator,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    StageTimings,
    Tracer,
    TraceStore,
    render_sample,
    render_timeline,
)
from repro.service.config import ServiceConfig, ShardedServiceConfig
from repro.service.feedback import sql_fingerprint
from repro.service.metrics import ServiceMetrics
from repro.service.service import GaloService, ServiceResponse

#: Counters the router maintains on top of the per-worker service counters
#: (distinct names, so merging never double counts).
ROUTER_COUNTERS = (
    "router_requests",
    "router_rejected",
    "router_failed_shard_errors",
    "router_crashed_requests",
    "worker_crashes",
    "worker_restarts",
)
#: Bound on worker startup, first spawn or restart (each worker builds its
#: database replica here).
WORKER_START_TIMEOUT_SECONDS = 300.0
#: How often the router's watchdog checks worker liveness.
WATCHDOG_INTERVAL_SECONDS = 0.1
#: Per-shard admission cap: in-flight requests beyond it are rejected.
MAX_PENDING_PER_SHARD = 32
#: Restart budget per shard (0 = never restart); beyond it the shard stays
#: down and its requests are answered with typed errors.
MAX_WORKER_RESTARTS = 3


class WorkerCrashedError(RuntimeError):
    """A shard's worker process died while the request was in flight."""


# ---------------------------------------------------------------------------
# consistent-hash ring
# ---------------------------------------------------------------------------


class ConsistentHashRouter:
    """A classic consistent-hash ring with virtual nodes.

    Each shard owns ``virtual_nodes`` points on a 64-bit ring (sha1 of a
    stable label, so the layout is identical across processes and runs); a
    key routes to the first point clockwise from its own hash.  Virtual
    nodes smooth the per-shard arc share, and growing the worker count
    moves only ~1/N of the keyspace -- which keeps per-shard feedback
    history and memo warmth mostly intact across resizes.
    """

    def __init__(self, shard_count: int, virtual_nodes: int = 64):
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        points = []
        for shard in range(shard_count):
            for vnode in range(virtual_nodes):
                points.append((self._hash(f"shard-{shard}:vnode-{vnode}"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")

    def route(self, key: str) -> int:
        """Shard index owning ``key`` (deterministic for a fixed ring)."""
        position = bisect.bisect(self._hashes, self._hash(key)) % len(self._hashes)
        return self._shards[position]


def _default_routing_key(sql: str, query_name: str) -> str:
    return sql_fingerprint(sql)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

_RESPONSE_FIELDS = tuple(f.name for f in dataclasses.fields(ServiceResponse))


def _response_payload(response: ServiceResponse) -> Dict[str, Any]:
    """Flat picklable dict for one response (rows are plain scalar dicts)."""
    return {name: getattr(response, name) for name in _RESPONSE_FIELDS}


def _response_from_payload(payload: Dict[str, Any]) -> ServiceResponse:
    return ServiceResponse(**payload)


# ---------------------------------------------------------------------------
# worker process side
# ---------------------------------------------------------------------------


def _worker_service_config(
    config: ShardedServiceConfig, shard_id: int
) -> ServiceConfig:
    """Derive one shard's ``ServiceConfig`` from the sharded topology.

    The learner shard keeps background learning and publishes checkpoints to
    the shared directory; every other shard serves with learning off (it
    receives templates through hot-reload instead -- one writer, N readers).
    The worker's own admission cap is lifted to at least the router's
    per-shard cap so the router is the single place requests are shed.
    """
    base = config.worker_config
    is_learner = config.learner_shard is None or config.learner_shard == shard_id
    overrides: Dict[str, Any] = {
        "max_pending": max(base.max_pending, MAX_PENDING_PER_SHARD),
    }
    if not is_learner:
        overrides["learning_enabled"] = False
        overrides["kb_checkpoint_interval_seconds"] = None
        overrides["kb_checkpoint_directory"] = None
    elif config.kb_directory is not None and config.learner_shard is not None:
        overrides["kb_checkpoint_directory"] = config.kb_directory
        overrides["kb_checkpoint_interval_seconds"] = (
            config.kb_publish_interval_seconds
        )
    return replace(base, **overrides)


async def _shard_serve(
    shard_id: int,
    galo,
    service_config: ServiceConfig,
    config: ShardedServiceConfig,
    request_queue,
    response_queue,
) -> None:
    """The worker's event loop: a full GaloService fed from the request queue."""
    loop = asyncio.get_running_loop()
    directory = config.kb_directory
    if directory is not None:
        # Bootstrap from the latest checkpoint (restarted workers pick up
        # everything the learner published while they were down).  The load
        # is file I/O: keep it off the event loop, like the poll path below.
        await loop.run_in_executor(
            None, galo.maybe_reload_knowledge_base, directory, True
        )

    service = GaloService(galo, service_config)
    await service.start()

    def kb_version() -> int:
        return galo.knowledge_base.checkpoint_version

    def status_payload() -> Dict[str, Any]:
        return {
            "shard": shard_id,
            "pid": os.getpid(),
            "kb_version": kb_version(),
            "kb_templates": len(galo.knowledge_base),
            "quarantined_templates": len(galo.knowledge_base.quarantined_template_ids()),
            "prepared_entries": len(galo.matching_engine.prepared),
            "pending": service.pending,
            "learning_backlog": service.learning_backlog,
            "metrics": service.metrics.state(),
            "memo": galo.database.workload_memo().stats(),
            "stage_timings": service.stage_timings.state(),
        }

    async def watch_checkpoints() -> None:
        while True:
            await asyncio.sleep(config.kb_poll_interval_seconds)
            # The load runs on an executor thread; the swap is a reference
            # assignment, so serving never pauses.
            poll_started = time.perf_counter()
            version = await loop.run_in_executor(
                None, galo.maybe_reload_knowledge_base, directory
            )
            if version is not None and service.tracer.enabled:
                # A version was actually adopted: record the hot-reload as
                # its own trace (polls that found nothing stay silent).
                reload_span = service.tracer.start_trace(
                    "kb_reload", start=poll_started
                )
                reload_span.set("version", version)
                reload_span.set("templates", len(galo.knowledge_base))
                reload_span.end()

    async def serve_one(request_id: int, sql: str, query_name: str) -> None:
        try:
            response = await service.submit(sql, query_name=query_name)
        except Exception as exc:  # noqa: BLE001 - must answer, not die
            response = ServiceResponse(
                query_name=query_name,
                sql=sql,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
                error_type=type(exc).__name__,
            )
        payload = _response_payload(response)
        payload["shard"] = shard_id
        if response.trace_id and service.trace_store is not None:
            # Ship the finished worker-side trace with the response; the
            # router re-parents it under its own request span (popping keeps
            # the worker's bounded store for traces nobody will query here).
            worker_trace = service.trace_store.pop(response.trace_id)
            if worker_trace is not None:
                payload["worker_trace"] = worker_trace
        response_queue.put(("response", shard_id, request_id, payload, kb_version()))

    # Every shard that is not the designated publisher watches for a newer
    # version directory -- including all shards when ``learner_shard`` is
    # None and the checkpoints come from outside the cluster (e.g. an offline
    # learning job publishing into ``kb_directory``).
    is_publisher = config.learner_shard is not None and config.learner_shard == shard_id
    watcher: Optional[asyncio.Task] = None
    if directory is not None and not is_publisher:
        watcher = asyncio.create_task(watch_checkpoints())

    response_queue.put(("ready", shard_id, status_payload()))
    serve_tasks: set = set()
    try:
        while True:
            message = await loop.run_in_executor(None, request_queue.get)
            kind = message[0]
            if kind == "stop":
                break
            if kind == "serve":
                _, request_id, sql, query_name = message
                task = asyncio.create_task(serve_one(request_id, sql, query_name))
                serve_tasks.add(task)
                task.add_done_callback(serve_tasks.discard)
            elif kind == "status":
                response_queue.put(("status", shard_id, message[1], status_payload()))
            elif kind == "crash":
                # Test/chaos-drill hook: die the way a segfault would --
                # no cleanup, no responses for anything in flight.
                os._exit(17)
        # Drain in-flight work before stopping so every admitted request is
        # answered (queue order guarantees these responses precede "stopped").
        if serve_tasks:
            await asyncio.gather(*serve_tasks, return_exceptions=True)
    finally:
        if watcher is not None:
            watcher.cancel()
            try:
                await watcher
            except asyncio.CancelledError:
                pass
        await service.stop()
    response_queue.put(("stopped", shard_id, status_payload()))


def _shard_main(
    shard_id: int,
    factory: Callable[[], Any],
    service_config: ServiceConfig,
    config: ShardedServiceConfig,
    request_queue,
    response_queue,
) -> None:
    """Worker process entry point (module-level: spawn pickles it by name)."""
    try:
        galo = factory()
    except Exception as exc:  # noqa: BLE001 - surface build failures to the router
        response_queue.put(
            ("start_failed", shard_id, f"{type(exc).__name__}: {exc}")
        )
        return
    asyncio.run(
        _shard_serve(
            shard_id, galo, service_config, config, request_queue, response_queue
        )
    )


# ---------------------------------------------------------------------------
# router (parent process) side
# ---------------------------------------------------------------------------


class _WorkerHandle:
    """Parent-side bookkeeping for one shard."""

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.process = None
        self.request_queue = None
        #: request id -> (future, query_name, sql, request span, router
        #: request id) awaiting a response.
        self.in_flight: Dict[int, Tuple[asyncio.Future, str, str, Any, str]] = {}
        #: status request id -> future awaiting the worker's status payload.
        self.status_waiters: Dict[int, asyncio.Future] = {}
        self.ready: Optional[asyncio.Future] = None
        #: Set while the shard accepts requests; cleared during restart.
        self.available = asyncio.Event()
        self.pending = 0
        self.kb_version = 0
        self.restarts = 0
        #: Exhausted its restart budget (or restarts disabled): permanently down.
        self.failed = False
        self.state = "new"  # new -> starting -> up -> restarting/failed/stopped


class ShardedGaloService:
    """Consistent-hash front-end over ``num_workers`` GaloService processes.

    ``worker_factory`` is any picklable callable returning a
    :class:`~repro.core.galo.Galo` (see :mod:`repro.service.workers`); each
    worker process calls it once at startup to build its private replica.
    """

    def __init__(
        self,
        worker_factory: Callable[[], Any],
        config: Optional[ShardedServiceConfig] = None,
    ):
        self.config = config or ShardedServiceConfig()
        self.worker_factory = worker_factory
        self.router = ConsistentHashRouter(self.config.num_workers)
        #: Router-side counters (distinct names from the per-worker counters,
        #: so merging in :meth:`render_metrics` never double counts).
        self.metrics = ServiceMetrics()
        for counter in ROUTER_COUNTERS:
            self.metrics.register_counter(counter)
        #: Router-side tracing, gated on the worker config's switch so one
        #: knob traces the whole cluster.  The router opens a "request" trace
        #: per submission; the worker's finished trace comes back on the
        #: response and is re-parented under it (`worker_request` subtree).
        self.tracing_enabled = self.config.worker_config.resolved_tracing_enabled()
        self.trace_store: Optional[TraceStore] = None
        if self.tracing_enabled:
            self.trace_store = TraceStore(
                slow_threshold_ms=self.config.worker_config.slow_query_threshold_ms
            )
            self.tracer = Tracer(self.trace_store)
        else:
            self.tracer = NULL_TRACER
        self._routing_key = self.config.routing_key or _default_routing_key
        self._workers: List[_WorkerHandle] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._response_queue = None
        self._reader: Optional[threading.Thread] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self._request_counter = 0
        self._started = False
        self._stopping = False
        import multiprocessing

        # Spawn: portable, and the only start method safe under a
        # threaded/asyncio parent.
        self._ctx = multiprocessing.get_context("spawn")

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ShardedGaloService":
        """Spawn the worker processes and wait until every shard is serving."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._stopping = False
        self._ensure_child_pythonpath()
        self._response_queue = self._ctx.Queue()
        self._reader = threading.Thread(
            target=self._read_responses, name="galo-shard-reader", daemon=True
        )
        self._reader.start()
        self._workers = [
            _WorkerHandle(shard) for shard in range(self.config.num_workers)
        ]
        for handle in self._workers:
            self._spawn(handle)
        try:
            await asyncio.wait_for(
                asyncio.gather(*(handle.ready for handle in self._workers)),
                timeout=WORKER_START_TIMEOUT_SECONDS,
            )
        except (asyncio.TimeoutError, RuntimeError):
            await self._abort_start()
            raise
        self._watchdog_task = asyncio.create_task(self._watchdog())
        self._started = True
        return self

    async def stop(self) -> None:
        """Stop every worker (draining in-flight requests), then the plumbing."""
        if not self._started and not self._workers:
            return
        self._stopping = True
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        for handle in self._workers:
            if handle.process is not None and handle.process.is_alive():
                try:
                    handle.request_queue.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover - queue torn down
                    pass
            handle.state = "stopped"
        assert self._loop is not None
        await self._loop.run_in_executor(None, self._join_workers)
        # Unblock and retire the reader thread after the workers are gone, so
        # every drained response was already dispatched.  Joining the reader
        # and the queue feeder are blocking waits; they run on an executor
        # thread while _fail_pending (which resolves caller futures) stays on
        # the loop between them.
        if self._response_queue is not None:
            await self._loop.run_in_executor(None, self._retire_reader_sync)
            self._fail_pending("service stopped")
            await self._loop.run_in_executor(None, self._close_response_queue_sync)
        self._started = False

    async def __aenter__(self) -> "ShardedGaloService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def started(self) -> bool:
        return self._started

    @property
    def pending(self) -> int:
        """Requests in flight across all shards."""
        return sum(handle.pending for handle in self._workers)

    def shard_for(self, sql: str, query_name: str = "") -> int:
        """The shard a request would route to (deterministic)."""
        return self.router.route(self._routing_key(sql, query_name))

    # -- serving -------------------------------------------------------------

    async def submit(self, sql: str, query_name: str = "") -> ServiceResponse:
        """Serve one request on its consistent-hash shard."""
        if not self._started:
            raise RuntimeError("ShardedGaloService.submit before start()")
        shard = self.shard_for(sql, query_name)
        return await self._submit_to_shard(shard, sql, query_name)

    async def _submit_to_shard(
        self, shard: int, sql: str, query_name: str
    ) -> ServiceResponse:
        handle = self._workers[shard]
        self.metrics.increment("router_requests")
        span = NULL_SPAN
        router_request_id = ""
        if self.tracer.enabled:
            self._request_counter += 1
            router_request_id = f"req-{self._request_counter}"
            span = self.tracer.start_trace(
                "request",
                request_id=router_request_id,
                attributes={"query_name": query_name, "shard": shard},
            )
        if not handle.available.is_set() and not handle.failed:
            # Shard restarting: wait for the respawn rather than erroring --
            # callers see latency, not failures, across a worker bounce.
            with span.child("shard_wait"):
                await handle.available.wait()
        if handle.failed:
            self.metrics.increment("router_failed_shard_errors")
            span.set("status", "error")
            span.set("error", WorkerCrashedError.__name__)
            span.end()
            return ServiceResponse(
                query_name=query_name,
                sql=sql,
                status="error",
                error=f"shard {shard} is down (restart budget exhausted)",
                error_type=WorkerCrashedError.__name__,
                shard=shard,
                request_id=router_request_id,
                trace_id=span.trace_id,
            )
        if handle.pending >= MAX_PENDING_PER_SHARD:
            self.metrics.increment("router_rejected")
            span.set("status", "rejected")
            span.end()
            return ServiceResponse(
                query_name=query_name,
                sql=sql,
                status="rejected",
                error=f"admission control: shard {shard} has too many pending requests",
                shard=shard,
                request_id=router_request_id,
                trace_id=span.trace_id,
            )
        assert self._loop is not None
        self._request_counter += 1
        request_id = self._request_counter
        future: asyncio.Future = self._loop.create_future()
        handle.pending += 1
        handle.in_flight[request_id] = (future, query_name, sql, span, router_request_id)
        handle.request_queue.put(("serve", request_id, sql, query_name))
        # Shielded: an abandoned await (caller broke out of a stream) must not
        # lose the pending-count bookkeeping, which rides on the response.
        return await asyncio.shield(future)

    async def stream(
        self, requests: Sequence[Union[str, Tuple[str, str]]]
    ) -> AsyncIterator[ServiceResponse]:
        """Submit a batch concurrently; yield responses in completion order.

        Mirrors :meth:`GaloService.stream`: the batch throttles itself to
        each shard's admission cap, so a single caller streaming a large
        batch gets backpressure, not rejections.
        """
        throttles = [
            asyncio.Semaphore(MAX_PENDING_PER_SHARD)
            for _ in self._workers
        ]

        async def submit_throttled(name: str, sql: str) -> ServiceResponse:
            shard = self.shard_for(sql, name)
            async with throttles[shard]:
                return await self._submit_to_shard(shard, sql, name)

        tasks = []
        for position, entry in enumerate(requests, start=1):
            if isinstance(entry, tuple):
                name, sql = entry
            else:
                name, sql = f"Q{position}", entry
            tasks.append(asyncio.create_task(submit_throttled(name, sql)))
        try:
            for done in asyncio.as_completed(tasks):
                yield await done
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- observability -------------------------------------------------------

    async def shard_status(
        self, timeout_seconds: float = 10.0
    ) -> List[Optional[Dict[str, Any]]]:
        """Live status payload per shard (None for down/unresponsive shards)."""
        futures: List[Optional[asyncio.Future]] = []
        assert self._loop is not None
        for handle in self._workers:
            if handle.failed or handle.process is None or not handle.process.is_alive():
                futures.append(None)
                continue
            self._request_counter += 1
            request_id = self._request_counter
            future = self._loop.create_future()
            handle.status_waiters[request_id] = future
            try:
                handle.request_queue.put(("status", request_id))
            except (OSError, ValueError):  # pragma: no cover - mid-teardown
                handle.status_waiters.pop(request_id, None)
                futures.append(None)
                continue
            futures.append(future)
        statuses: List[Optional[Dict[str, Any]]] = []
        for future in futures:
            if future is None:
                statuses.append(None)
                continue
            try:
                statuses.append(
                    await asyncio.wait_for(asyncio.shield(future), timeout_seconds)
                )
            except (asyncio.TimeoutError, WorkerCrashedError):
                statuses.append(None)
        return statuses

    async def kb_versions(self) -> List[Optional[int]]:
        """Current KB checkpoint version per shard (None = shard down)."""
        statuses = await self.shard_status()
        versions: List[Optional[int]] = []
        for handle, status in zip(self._workers, statuses):
            if status is not None:
                versions.append(int(status["kb_version"]))
            elif handle.failed:
                versions.append(None)
            else:
                versions.append(handle.kb_version)
        return versions

    async def merged_metrics(self) -> ServiceMetrics:
        """Cluster-wide :class:`ServiceMetrics`: every live worker's state
        merged (counters summed, exact min/max, combined reservoirs) with the
        router's own ``router_*`` / ``worker_*`` counters."""
        statuses = await self.shard_status()
        return self._merge_metrics(statuses)

    def _merge_metrics(
        self, statuses: List[Optional[Dict[str, Any]]]
    ) -> ServiceMetrics:
        return ServiceMetrics.merge(
            [status["metrics"] for status in statuses if status is not None]
            + [self.metrics.state()]
        )

    async def render_metrics(self) -> str:
        """One aggregated ``/metrics`` page for the whole cluster.

        Per-worker :class:`ServiceMetrics` are merged (counters summed,
        exact min/max, percentiles from the combined reservoirs) together
        with the router's own counters, plus cluster gauges and a per-shard
        labelled section (``galo_<name>{shard="i"}``) for the stats worth
        watching per worker.
        """
        statuses = await self.shard_status()
        live = [status for status in statuses if status is not None]
        merged = self._merge_metrics(statuses)
        gauges: Dict[str, float] = {
            "workers": len(self._workers),
            "shards_up": len(live),
            "worker_restarts": sum(handle.restarts for handle in self._workers),
            "pending_requests": self.pending,
            "kb_templates": max(
                (status["kb_templates"] for status in live), default=0
            ),
            "quarantined_templates": max(
                (status.get("quarantined_templates", 0) for status in live),
                default=0,
            ),
            "learning_backlog": sum(status["learning_backlog"] for status in live),
            # Every worker prepares the statements routed to it in its own lane.
            "prepared_entries": sum(
                status.get("prepared_entries", 0) for status in live
            ),
        }
        page = merged.render_prometheus(gauges).rstrip("\n")
        lines = [page]
        prefix = ServiceMetrics.PROMETHEUS_PREFIX
        lines.append(f"# HELP {prefix}shard_up Whether the shard answered the status probe.")
        lines.append(f"# TYPE {prefix}shard_up gauge")
        for shard, status in enumerate(statuses):
            up = 0 if status is None else 1
            lines.append(render_sample(f"{prefix}shard_up", up, {"shard": shard}))
        for shard, status in enumerate(statuses):
            if status is None:
                continue
            snapshot = ServiceMetrics.from_state(status["metrics"]).snapshot()
            for name in (
                "submitted",
                "completed",
                "failed",
                "rejected",
                "steered",
                "latency_p50_ms",
                "latency_p95_ms",
            ):
                if name in snapshot:
                    lines.append(
                        render_sample(
                            f"{prefix}{name}", snapshot[name], {"shard": shard}
                        )
                    )
            lines.append(
                render_sample(
                    f"{prefix}kb_version", status["kb_version"], {"shard": shard}
                )
            )
            lines.append(
                render_sample(
                    f"{prefix}kb_templates", status["kb_templates"], {"shard": shard}
                )
            )
            lines.append(
                render_sample(
                    f"{prefix}quarantined_templates",
                    status.get("quarantined_templates", 0),
                    {"shard": shard},
                )
            )
            lines.append(
                render_sample(
                    f"{prefix}pending_requests", status["pending"], {"shard": shard}
                )
            )
        # Per-stage latency histograms, one labelled series set per shard
        # (the bounds are identical, so Prometheus can sum across shards).
        stage_lines: List[str] = []
        for shard, status in enumerate(statuses):
            if status is None or not status.get("stage_timings"):
                continue
            shard_stages = StageTimings()
            shard_stages.merge_state(status["stage_timings"])
            stage_lines.extend(
                shard_stages.render_prometheus(
                    f"{prefix}stage_latency_ms", {"shard": shard}
                )
            )
        if stage_lines:
            lines.append(
                f"# HELP {prefix}stage_latency_ms Per-stage request latency"
                " (queue_wait/match/plan/execute/feedback and request total), ms."
            )
            lines.append(f"# TYPE {prefix}stage_latency_ms histogram")
            lines.extend(stage_lines)
        return "\n".join(lines) + "\n"

    def explain_request(self, request_id: str) -> Optional[str]:
        """Span timeline of a routed request (None: unknown id / tracing off).

        The trace spans the router (admission, shard wait, queue/IPC gap) and
        the worker subtree (re-parented ``worker_request`` -> queue_wait /
        match / plan / execute / feedback, down to per-operator spans).
        """
        if self.trace_store is None:
            return None
        trace = self.trace_store.get(request_id=request_id)
        if trace is None:
            return None
        return render_timeline(trace)

    def slow_queries(self) -> List[Dict[str, Any]]:
        """Router-side slow-query log (end-to-end request traces)."""
        if self.trace_store is None:
            return []
        return self.trace_store.slow_queries()

    # -- chaos / test hooks ----------------------------------------------------

    def inject_worker_crash(self, shard: int) -> None:
        """Make shard ``shard``'s worker die abruptly (fault-drill hook)."""
        handle = self._workers[shard]
        if handle.request_queue is not None:
            handle.request_queue.put(("crash",))

    # -- internals -------------------------------------------------------------

    def _ensure_child_pythonpath(self) -> None:
        """Make sure spawn children can ``import repro``.

        Spawned interpreters inherit ``os.environ`` but not ``sys.path``
        mutations, so the package root (``src/``) is prepended to
        ``PYTHONPATH`` if it is not already there.
        """
        import repro

        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = os.environ.get("PYTHONPATH", "")
        parts = existing.split(os.pathsep) if existing else []
        if package_root not in parts:
            os.environ["PYTHONPATH"] = (
                package_root + (os.pathsep + existing if existing else "")
            )

    def _spawn(self, handle: _WorkerHandle) -> None:
        """Start (or restart) one shard with fresh queues and a ready future.

        A fresh request queue per incarnation: messages queued to a dead
        worker (including the crash that killed it) must not replay into its
        replacement.
        """
        assert self._loop is not None
        handle.request_queue = self._ctx.Queue()
        handle.ready = self._loop.create_future()
        handle.state = "starting"
        # routing_key stays parent-side (it may be a closure; workers never
        # route), so the config shipped over spawn is always picklable.
        child_config = replace(self.config, routing_key=None)
        handle.process = self._ctx.Process(
            target=_shard_main,
            args=(
                handle.shard_id,
                self.worker_factory,
                _worker_service_config(self.config, handle.shard_id),
                child_config,
                handle.request_queue,
                self._response_queue,
            ),
            name=f"galo-shard-{handle.shard_id}",
            daemon=True,
        )
        handle.process.start()

    def _read_responses(self) -> None:
        """Reader thread: drain the shared response queue onto the event loop."""
        assert self._response_queue is not None
        while True:
            message = self._response_queue.get()
            if message is None:
                return
            try:
                self._loop.call_soon_threadsafe(self._dispatch, message)
            except RuntimeError:  # pragma: no cover - loop closed mid-teardown
                return

    def _dispatch(self, message: Tuple) -> None:
        """Event-loop thread: route one worker message to its waiter."""
        kind = message[0]
        shard = message[1]
        handle = self._workers[shard]
        if kind == "response":
            _, _, request_id, payload, kb_version = message
            handle.kb_version = max(handle.kb_version, int(kb_version))
            entry = handle.in_flight.pop(request_id, None)
            if entry is None:
                # Stale response from a previous incarnation (its requests
                # were already failed by the watchdog): drop it.
                return
            handle.pending -= 1
            future, _, _, span, router_request_id = entry
            worker_trace = payload.pop("worker_trace", None)
            response = _response_from_payload(payload)
            if span.recording:
                if worker_trace is not None:
                    # Graft the worker's span tree under the router's request
                    # span; the remote root is renamed so the timeline reads
                    # router request -> worker_request -> stages.
                    self.tracer.adopt_remote(
                        span, worker_trace, root_name="worker_request"
                    )
                span.set("status", response.status)
                span.end()
                # The caller-facing ids are the router's (the worker-side
                # trace no longer exists as its own entity).
                response.request_id = router_request_id
                response.trace_id = span.trace_id
            if not future.done():
                future.set_result(response)
        elif kind == "status":
            _, _, request_id, payload = message
            handle.kb_version = max(handle.kb_version, int(payload["kb_version"]))
            waiter = handle.status_waiters.pop(request_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(payload)
        elif kind == "ready":
            _, _, payload = message
            handle.kb_version = int(payload["kb_version"])
            handle.state = "up"
            handle.available.set()
            if handle.ready is not None and not handle.ready.done():
                handle.ready.set_result(payload)
        elif kind == "start_failed":
            _, _, detail = message
            handle.state = "failed"
            handle.failed = True
            handle.available.set()
            if handle.ready is not None and not handle.ready.done():
                handle.ready.set_exception(
                    RuntimeError(f"shard {shard} failed to start: {detail}")
                )
        elif kind == "stopped":
            handle.state = "stopped"

    async def _watchdog(self) -> None:
        """Detect dead workers; fail their in-flight requests and restart."""
        while True:
            await asyncio.sleep(WATCHDOG_INTERVAL_SECONDS)
            for handle in self._workers:
                if handle.state != "up":
                    continue
                if handle.process is not None and not handle.process.is_alive():
                    await self._handle_worker_death(handle)

    async def _handle_worker_death(self, handle: _WorkerHandle) -> None:
        exitcode = handle.process.exitcode if handle.process is not None else None
        handle.state = "restarting"
        handle.available.clear()
        self.metrics.increment("worker_crashes")
        self._fail_shard_requests(
            handle,
            f"shard {handle.shard_id} worker died (exit code {exitcode}) "
            "with the request in flight",
        )
        can_restart = (
            handle.restarts < MAX_WORKER_RESTARTS and not self._stopping
        )
        if not can_restart:
            handle.failed = True
            handle.state = "failed"
            handle.available.set()  # release submitters into the typed-error path
            return
        handle.restarts += 1
        self.metrics.increment("worker_restarts")
        self._spawn(handle)
        try:
            await asyncio.wait_for(
                asyncio.shield(handle.ready),
                timeout=WORKER_START_TIMEOUT_SECONDS,
            )
        except (asyncio.TimeoutError, RuntimeError):
            handle.failed = True
            handle.state = "failed"
            handle.available.set()

    def _fail_shard_requests(self, handle: _WorkerHandle, detail: str) -> None:
        """Answer every in-flight request of one shard with a typed error."""
        crashed = list(handle.in_flight.values())
        handle.in_flight.clear()
        handle.pending = 0
        for future, query_name, sql, span, router_request_id in crashed:
            self.metrics.increment("router_crashed_requests")
            if span.recording:
                span.set("status", "error")
                span.set("error", WorkerCrashedError.__name__)
                span.end()
            if not future.done():
                future.set_result(
                    ServiceResponse(
                        query_name=query_name,
                        sql=sql,
                        status="error",
                        error=detail,
                        error_type=WorkerCrashedError.__name__,
                        shard=handle.shard_id,
                        request_id=router_request_id,
                        trace_id=span.trace_id,
                    )
                )
        for waiter in handle.status_waiters.values():
            if not waiter.done():
                waiter.set_exception(WorkerCrashedError(detail))
        handle.status_waiters.clear()

    def _fail_pending(self, detail: str) -> None:
        for handle in self._workers:
            self._fail_shard_requests(handle, detail)

    def _join_workers(self) -> None:
        """Blocking (executor-thread) join of every worker, escalating politely."""
        for handle in self._workers:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=30.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                process.kill()
                process.join(timeout=5.0)
            if handle.request_queue is not None:
                handle.request_queue.close()
                handle.request_queue.join_thread()
                handle.request_queue = None

    def _retire_reader_sync(self) -> None:
        """Blocking (executor-thread) unblock + join of the reader thread."""
        assert self._response_queue is not None
        self._response_queue.put(None)
        if self._reader is not None:
            self._reader.join(timeout=5.0)
            self._reader = None

    def _close_response_queue_sync(self) -> None:
        """Blocking (executor-thread) close of the shared response queue."""
        assert self._response_queue is not None
        self._response_queue.close()
        self._response_queue.join_thread()
        self._response_queue = None

    async def _abort_start(self) -> None:
        """Tear down a partially started cluster after a startup failure."""
        self._stopping = True
        for handle in self._workers:
            if handle.process is not None and handle.process.is_alive():
                try:
                    handle.request_queue.put(("stop",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
            if handle.ready is not None and not handle.ready.done():
                handle.ready.cancel()
        assert self._loop is not None
        await self._loop.run_in_executor(None, self._join_workers)
        if self._response_queue is not None:
            await self._loop.run_in_executor(None, self._retire_reader_sync)
            await self._loop.run_in_executor(None, self._close_response_queue_sync)


# ---------------------------------------------------------------------------
# convenience
# ---------------------------------------------------------------------------


async def _serve_all_sharded(
    worker_factory: Callable[[], Any],
    requests: Sequence[Union[str, Tuple[str, str]]],
    config: Optional[ShardedServiceConfig],
) -> Tuple[List[ServiceResponse], Dict[str, float]]:
    service = ShardedGaloService(worker_factory, config)
    await service.start()
    try:
        responses = []
        async for response in service.stream(requests):
            responses.append(response)
        snapshot = (await service.merged_metrics()).snapshot()
    finally:
        await service.stop()
    return responses, snapshot


def serve_workload_sharded(
    worker_factory: Callable[[], Any],
    requests: Sequence[Union[str, Tuple[str, str]]],
    config: Optional[ShardedServiceConfig] = None,
) -> Tuple[List[ServiceResponse], Dict[str, float]]:
    """Synchronous convenience mirroring :func:`repro.service.serve_workload`.

    Spins up a sharded cluster from ``worker_factory``, streams the batch,
    and returns ``(responses, merged metrics snapshot)`` with responses in
    completion order.
    """
    return asyncio.run(_serve_all_sharded(worker_factory, requests, config))
