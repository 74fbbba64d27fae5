"""The asyncio serving front-end: GALO as a long-lived online system.

``GaloService`` accepts a stream of SQL requests and, for each one:

1. matches the query against the knowledge base via the indexed online tier
   (:meth:`repro.core.matching.engine.MatchingEngine.steer_prepared`: a
   repeated statement replays its cached verdict instead of re-matching) and
   plans the steered (or baseline) QGM;
2. executes that plan exactly once on the vectorized engine and returns rows
   + runtime metrics as soon as they are ready.  Every request is served on
   the event-loop thread.  A statement the prepared lane answers under the
   current stamp (a *hit*) is served the moment it is submitted -- plans are
   read-only and the execution memo keeps each repeated plan's outcome, so
   that is a replay of the verdict and of the execution (after the first hit
   executes and stores it); everything else (misses and stale entries:
   parse, optimize, match, then execute or replay) first yields to the loop
   once, so a burst is admitted before any of it is served, then is served
   in admission order;
3. feeds the outcome to the :class:`repro.service.feedback.FeedbackMonitor`,
   which enqueues mis-estimated or regressed statements onto a FIFO
   background learning queue -- the paper's offline tier running continuously
   behind the online tier, Bao/superoptimizer-style.  The learner runs on the
   event loop too, one step at a time (the parent validation, then one
   sub-query analysis: the size of one miss) and yields to the loop after
   each, so a request waits for at most one step, never for a whole query;
4. after each learned task, enforces the knowledge-base size cap
   (cold/low-benefit templates are evicted with incremental index
   maintenance).

Admission control is load-shedding, not unbounded queueing: at most
``ServiceConfig.max_pending`` requests may be in flight (the one being served
plus those waiting for the loop); submissions beyond that are answered
immediately with a ``"rejected"`` response.  Parallelism comes from processes
(:class:`repro.service.sharded.ShardedGaloService`), not serving threads.

.. code-block:: python

    service = GaloService(galo, ServiceConfig(max_pending=64))
    async with service:
        response = await service.submit("SELECT ...", query_name="q1")
        async for response in service.stream(queries):
            ...
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from typing import AsyncIterator, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.galo import Galo
from repro.engine.executor.memo import PlanOutcome
from repro.engine.executor.vectorized import plan_key
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    StageTimings,
    Tracer,
    TraceStore,
    render_timeline,
)
from repro.service.config import ServiceConfig
from repro.service.feedback import FeedbackMonitor, LearningTask
from repro.service.guard import GuardScreen, SteeringGuard
from repro.service.metrics import ServiceMetrics


#: Bound on queued background-learning tasks (a full queue drops, not blocks).
LEARNING_QUEUE_LIMIT = 256


@dataclass
class ServiceResponse:
    """Outcome of one served request.

    ``status`` is ``"ok"``, ``"rejected"`` (admission control shed the
    request before execution) or ``"error"`` (planning/execution raised).
    On errors ``error_type`` carries the exception class name (e.g.
    ``"WorkerCrashedError"`` from the sharded router) so callers can branch
    without parsing the message.  ``shard`` is the worker index that served
    the request under :class:`repro.service.sharded.ShardedGaloService`
    (None in single-process serving).
    """

    query_name: str
    sql: str
    status: str
    #: One dict per result row, keyed ``"<ALIAS>.<column>"`` in select-list
    #: order; ``SELECT *`` carries every column of the joined tables in plan
    #: order, an aggregate its group keys then ``"SUM(<ALIAS>.<column>)"``...
    rows: List[dict] = field(default_factory=list)
    elapsed_ms: float = 0.0
    wall_ms: float = 0.0
    match_time_ms: float = 0.0
    steered: bool = False
    matched_template_ids: List[str] = field(default_factory=list)
    max_q_error: float = 1.0
    error: str = ""
    error_type: str = ""
    shard: Optional[int] = None
    #: Request id / trace id assigned when tracing is enabled ("" otherwise);
    #: feed ``request_id`` to :meth:`GaloService.explain_request` for the
    #: span timeline.  Under the sharded router these are the *router's* ids
    #: (the worker-side trace is re-parented into the router's trace).
    request_id: str = ""
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def rejected(self) -> bool:
        return self.status == "rejected"


class GaloService:
    """Long-lived asyncio front-end over a :class:`repro.core.galo.Galo`."""

    def __init__(self, galo: Galo, config: Optional[ServiceConfig] = None):
        self.galo = galo
        self.config = config or ServiceConfig()
        self.metrics = ServiceMetrics()
        self.feedback = FeedbackMonitor(
            q_error_threshold=self.config.q_error_threshold,
            regression_threshold=self.config.regression_threshold,
        )
        #: Regression guard (None when disabled).  The guard registers its
        #: counters on ``metrics`` either way it is built, so a guard-on
        #: service exposes the same counter set from request one.
        self.guard: Optional[SteeringGuard] = None
        if self.config.guard_enabled:
            self.guard = SteeringGuard(
                regression_threshold=self.config.guard_regression_threshold,
                min_observations=self.config.guard_min_observations,
                quarantine_loss_rate=self.config.guard_quarantine_loss_rate,
                probe_interval=self.config.guard_probe_interval,
                metrics=self.metrics,
            )
        #: Pending learning tasks, learned in FIFO order.
        self._learning_queue: Optional[asyncio.Queue] = None
        self._learner_task: Optional[asyncio.Task] = None
        self._pending = 0
        self._started = False
        self._stopping = False
        #: template id -> the statement it was learned from; lets an
        #: eviction re-open that statement for learning.
        self._template_sources: Dict[str, str] = {}
        #: Last background-learning failure, for operators ("" = none).
        self.last_learning_error = ""
        #: Monotonic time of the last KB checkpoint attempt.
        self._last_kb_checkpoint = 0.0
        #: Tracing plumbing (see :mod:`repro.obs`).  Disabled, the tracer is
        #: the shared no-op and every instrumentation site costs an attribute
        #: read; enabled, finished traces land in ``trace_store`` and feed
        #: the per-stage latency histograms.
        self.tracing_enabled = self.config.resolved_tracing_enabled()
        self.trace_store: Optional[TraceStore] = None
        if self.tracing_enabled:
            self.trace_store = TraceStore(
                slow_threshold_ms=self.config.slow_query_threshold_ms
            )
            self.tracer = Tracer(self.trace_store)
        else:
            self.tracer = NULL_TRACER
        #: Per-stage latency histograms (queue_wait / match / plan / execute /
        #: feedback / request), populated from finished request traces.
        self.stage_timings = StageTimings()
        #: Request-id sequence; touched only on the event-loop thread.
        self._request_seq = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "GaloService":
        """Bring up the background learner task (on this event loop)."""
        if self._started:
            return self
        self._learning_queue = asyncio.Queue(maxsize=LEARNING_QUEUE_LIMIT)
        self._last_kb_checkpoint = time.monotonic()
        if self.config.learning_enabled:
            self._learner_task = asyncio.create_task(self._drain_learning_queue())
        self._stopping = False
        self._started = True
        return self

    async def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` (default) finish queued learning first."""
        if not self._started:
            return
        # From here on, _enqueue_learning drops (and forgets) new feedback
        # tasks: with the learner about to be cancelled, anything enqueued now
        # would sit in the queue unconsumed and block its statement forever.
        self._stopping = True
        if drain and self.config.learning_enabled:
            await self.drain()
        if self._learner_task is not None:
            self._learner_task.cancel()
            try:
                await self._learner_task
            except asyncio.CancelledError:
                pass
            self._learner_task = None
        # Tasks still queued (stop without drain) are dropped, not kept for
        # a restart: the next start() brings a fresh queue.
        queue = self._learning_queue
        while not queue.empty():
            self._drop_learning(queue.get_nowait())
            queue.task_done()
        # Final checkpoint on the way down (forced past the interval):
        # online-learned templates survive a clean shutdown even when the
        # timer has not fired yet.
        self._checkpoint_kb_sync(force=True)
        self._learning_queue = None
        self._started = False

    async def __aenter__(self) -> "GaloService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.stop()

    @property
    def started(self) -> bool:
        return self._started

    @property
    def pending(self) -> int:
        """Requests currently admitted and unfinished (running + queued)."""
        return self._pending

    @property
    def learning_backlog(self) -> int:
        """Learning tasks waiting in the background queue (not the running one)."""
        if self._learning_queue is None:
            return 0
        return self._learning_queue.qsize()

    # -- serving -------------------------------------------------------------

    async def submit(self, sql: str, query_name: str = "") -> ServiceResponse:
        """Serve one query; resolves when its rows (or rejection) are ready."""
        if not self._started:
            raise RuntimeError("GaloService.submit before start()")
        self.metrics.increment("submitted")
        request_id = ""
        if self.tracer.enabled:
            # _request_seq is only touched on the event-loop thread.
            self._request_seq += 1
            request_id = f"req-{self._request_seq}"
        # Admission control: _pending is only touched on the event loop
        # thread, so the check-and-increment is race-free without a lock.
        if self._pending >= self.config.max_pending:
            self.metrics.increment("rejected")
            trace_id = ""
            if self.tracer.enabled:
                span = self.tracer.start_trace(
                    "request", request_id=request_id,
                    attributes={"query_name": query_name, "status": "rejected"},
                )
                trace_id = span.trace_id
                span.end()
            return ServiceResponse(
                query_name=query_name, sql=sql, status="rejected",
                error="admission control: too many pending requests",
                request_id=request_id, trace_id=trace_id,
            )
        self._pending += 1
        request_span = NULL_SPAN
        admitted_at = time.perf_counter()
        if self.tracer.enabled:
            request_span = self.tracer.start_trace(
                "request", request_id=request_id,
                attributes={"query_name": query_name}, start=admitted_at,
            )
        learning_task: Optional[LearningTask] = None
        try:
            steering = self.config.steering_enabled and len(self.galo.knowledge_base)
            if not (steering and self.galo.matching_engine.is_prepared(sql)):
                # Anything but a current prepared hit (parse, optimize, match,
                # cold execution) yields once first, so the rest of a burst is
                # admitted -- or shed by max_pending -- before any of it is
                # served; misses are then served in admission order.
                await asyncio.sleep(0)
            response, learning_task = self._serve_sync(
                sql, query_name, request_id, request_span, admitted_at
            )
        except asyncio.CancelledError:
            # Cancelled while yielding: never served.
            request_span.set("status", "cancelled")
            request_span.end()
            raise
        finally:
            self._serve_finished(learning_task)
        return response

    def _serve_finished(self, learning_task: Optional[LearningTask]) -> None:
        """Bookkeeping after every served request (event-loop thread)."""
        self._pending -= 1
        if learning_task is not None:
            self._enqueue_learning(learning_task)

    async def stream(
        self, requests: Sequence[Union[str, Tuple[str, str]]]
    ) -> AsyncIterator[ServiceResponse]:
        """Submit a batch concurrently; yield responses in completion order.

        The batch throttles itself to ``max_pending`` concurrent submissions:
        a single caller streaming a large batch gets backpressure, not
        rejections.  Admission control still sheds load from *other*
        submitters racing the stream.
        """
        throttle = asyncio.Semaphore(self.config.max_pending)

        async def submit_throttled(name: str, sql: str) -> ServiceResponse:
            async with throttle:
                return await self.submit(sql, query_name=name)

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
            # Cancel leftovers AND await them: cancel() alone leaves the
            # tasks pending, and if the consumer broke out of the stream the
            # un-retrieved tasks would be destroyed at loop close ("Task was
            # destroyed but it is pending").  gather(return_exceptions=True)
            # retrieves every cancellation/exception without raising.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    async def drain(self) -> None:
        """Wait until every queued background-learning task has completed."""
        if self._learning_queue is not None:
            await self._learning_queue.join()

    def render_metrics(self) -> str:
        """``/metrics``-style plaintext exposition of the service's state.

        Service counters and latency stats from :class:`ServiceMetrics`, plus
        gauges for the shared execution memo (entry count, estimated bytes,
        hit/miss totals under the ``memo_`` prefix), the knowledge-base size,
        the prepared-statement lane's entry count and the learning backlog.
        Serve it from any HTTP framework as ``text/plain``.
        """
        memo_stats = self.galo.database.workload_memo().stats()
        gauges: Dict[str, float] = {
            f"memo_{name}": value for name, value in memo_stats.items()
        }
        gauges["kb_templates"] = len(self.galo.knowledge_base)
        gauges["prepared_entries"] = len(self.galo.matching_engine.prepared)
        gauges["pending_requests"] = self._pending
        # Depth of the serve queue proper: admitted requests beyond the one
        # the loop thread serves are waiting for it, not running.
        gauges["serve_queue_depth"] = max(0, self._pending - 1)
        gauges["learning_backlog"] = self.learning_backlog
        if self.guard is not None:
            gauges["quarantined_templates"] = len(
                self.galo.knowledge_base.quarantined_template_ids()
            )
        if self.trace_store is not None:
            store_stats = self.trace_store.stats()
            gauges["traces_stored"] = store_stats["traces_stored"]
            gauges["slow_queries_stored"] = store_stats["slow_queries_stored"]
        text = self.metrics.render_prometheus(gauges)
        stage_lines = self.stage_timings.render_prometheus("galo_stage_latency_ms")
        if stage_lines:
            lines = [text.rstrip("\n")]
            lines.append(
                "# HELP galo_stage_latency_ms Per-stage request latency"
                " (queue_wait/match/plan/execute/feedback and request total), ms."
            )
            lines.append("# TYPE galo_stage_latency_ms histogram")
            lines.extend(stage_lines)
            text = "\n".join(lines) + "\n"
        return text

    # -- trace introspection ---------------------------------------------------

    def explain_request(self, request_id: str) -> Optional[str]:
        """Span timeline of a served request (None: unknown id / tracing off).

        ``request_id`` is the id returned on the :class:`ServiceResponse`;
        the rendering shows every stage's offset and duration, down to
        per-operator executor spans.
        """
        if self.trace_store is None:
            return None
        trace = self.trace_store.get(request_id=request_id)
        if trace is None:
            return None
        return render_timeline(trace)

    def slow_queries(self) -> List[dict]:
        """The slow-query log: request traces over the configured threshold."""
        if self.trace_store is None:
            return []
        return self.trace_store.slow_queries()

    # -- internals -----------------------------------------------------------

    def _serve_sync(
        self,
        sql: str,
        query_name: str,
        request_id: str = "",
        request_span=NULL_SPAN,
        admitted_at: Optional[float] = None,
    ) -> Tuple[ServiceResponse, Optional[LearningTask]]:
        """Plan, (maybe) steer, execute once (or replay), observe.

        A request whose plan (:func:`~repro.engine.executor.vectorized.plan_key`)
        has an outcome in the execution memo replays it -- a re-matched miss
        too: copies of the kept rows, the stored metrics and ``elapsed_ms``
        (:class:`~repro.engine.executor.memo.PlanOutcome`); the executor is
        not entered.  Otherwise the plan executes, and a statement served
        before (a prepared hit or stale entry) keeps the outcome, stored
        through the pinned memo view the execution ran against.
        ``max_q_error`` is the served plan's (RUNSTATS moves estimates, not
        the memo).  The response rows are materialized inside the
        ``execute`` span, on both paths, so ``wall_ms``, the latency
        histogram and the stage timings count building them.  Runs on the
        event-loop thread (see :meth:`submit`).
        ``request_span`` is the request trace's root (the no-op span when
        tracing is off), opened on the event loop at admission time; the gap
        between ``admitted_at`` and the work being picked up is the
        ``queue_wait`` stage: the wait for the loop behind the requests
        admitted before it (near zero for a hit served in place).  The
        root span ends here, on every path.
        """
        started = time.perf_counter()
        if request_span.recording and admitted_at is not None:
            request_span.child("queue_wait", start=admitted_at).end(started)
        trace_id = request_span.trace_id
        database = self.galo.database
        try:
            # Serving executes a plan once per request (unless the memo keeps
            # its outcome, below), through the vectorized engine and the
            # workload-scoped memo: recurring statements (the normal case for
            # served traffic) replay their subtrees' cold charges instead of
            # recomputing them, and the memo's epoch check drops entries and
            # outcomes the moment the data changes.
            engine = self.galo.matching_engine
            memo = engine.execution_memo()
            # The KB reference is captured once per request: a sharded
            # hot-reload swaps the object mid-flight, and the guard must
            # screen against and record into the same KB the match used.
            knowledge_base = self.galo.knowledge_base
            guard = self.guard
            screen: Optional[GuardScreen] = None
            served_before = False
            if self.config.steering_enabled and len(knowledge_base):
                match_filter = None
                if guard is not None:
                    def match_filter(matches, _kb=knowledge_base):
                        nonlocal screen
                        screen = guard.screen(_kb, matches)
                        return screen.allowed

                decision = engine.steer_prepared(
                    sql, query_name=query_name, span=request_span,
                    match_filter=match_filter,
                )
                served_before = decision.prepared != "miss"
                if decision.prepared == "hit":
                    self.metrics.increment("prepared_hits")
                else:
                    self.metrics.increment("prepared_misses")
                    if decision.prepared == "stale":
                        self.metrics.increment("prepared_invalidations")
                request_span.set("prepared", decision.prepared)
                qgm = decision.qgm
                steered = decision.steered
                matched_ids = decision.matched_template_ids
                match_time_ms = decision.match_time_ms
                if screen is not None and screen.degraded:
                    request_span.set("blocked", list(screen.blocked))
                if screen is not None and screen.probed:
                    request_span.set("probed", list(screen.probed))
            else:
                with request_span.child("plan"):
                    qgm = database.explain(sql, query_name=query_name)
                steered = False
                matched_ids = []
                match_time_ms = 0.0
            # A plan whose outcome the memo keeps replays it; otherwise it
            # executes, and a statement served before (the lane had an entry
            # for it, current or stale) keeps the outcome.  The response rows
            # are built (or copied) inside the span, so the stage timings and
            # ``wall_ms`` include them.
            key = plan_key(qgm)
            keep = served_before and key is not None and memo is not None
            outcome = None if memo is None else memo.peek(key)
            with request_span.child("execute") as execute_span:
                if outcome is None:
                    # Pinned here and stored through below: a load that
                    # overlaps the execution orphans the outcome with it.
                    pinned = None if memo is None else memo.pinned()
                    result = database.execute_plan(qgm, memo=pinned, span=execute_span)
                else:
                    result = outcome.replay()
                    self.metrics.increment("prepared_replays")
                    execute_span.set("replayed", True)
                rows = result.rows
                execute_span.set("rows", len(rows))
                execute_span.set("elapsed_ms", result.elapsed_ms)
            if keep and outcome is None:
                pinned.store(key, PlanOutcome.of(qgm, result))
        except Exception as exc:  # noqa: BLE001 - served errors become responses
            self.metrics.increment("failed")
            wall_ms = (time.perf_counter() - started) * 1000.0
            request_span.set("status", "error")
            request_span.set("error", type(exc).__name__)
            request_span.end()
            self._record_stage_timings(request_span)
            return (
                ServiceResponse(
                    query_name=query_name, sql=sql, status="error",
                    wall_ms=wall_ms, error=f"{type(exc).__name__}: {exc}",
                    error_type=type(exc).__name__,
                    request_id=request_id, trace_id=trace_id,
                ),
                None,
            )
        wall_ms = (time.perf_counter() - started) * 1000.0

        learning_task: Optional[LearningTask] = None
        with request_span.child("feedback") as feedback_span:
            # A plan re-planned after RUNSTATS has other estimates than the
            # one the outcome was kept from.
            if outcome is None or outcome.root is not qgm.root:
                max_q_error = result.max_q_error(qgm)
            else:
                max_q_error = outcome.q_error
            if self.config.learning_enabled:
                observation = self.feedback.observe(
                    sql=sql,
                    query_name=query_name,
                    qgm=qgm,
                    result=result,
                    matched=bool(matched_ids),
                    steered=steered,
                    max_q_error=max_q_error,
                )
                learning_task = observation.task
                if learning_task is not None:
                    feedback_span.set("reason", learning_task.reason)
            feedback_span.set("max_q_error", max_q_error)
            if guard is not None:
                # Win/loss vs the optimizer baseline, plus any quarantine /
                # re-arm transition.
                verdict = guard.observe(
                    knowledge_base,
                    sql=sql,
                    elapsed_ms=result.elapsed_ms,
                    steered=steered,
                    template_ids=matched_ids,
                )
                feedback_span.set("verdict", verdict)

        self.metrics.increment("completed")
        if steered:
            self.metrics.increment("steered")
        self.metrics.record_latency(wall_ms)
        request_span.set("status", "ok")
        if steered:
            request_span.set("steered", True)
        request_span.end()
        self._record_stage_timings(request_span)
        response = ServiceResponse(
            query_name=query_name,
            sql=sql,
            status="ok",
            rows=rows,
            elapsed_ms=result.elapsed_ms,
            wall_ms=wall_ms,
            match_time_ms=match_time_ms,
            steered=steered,
            matched_template_ids=matched_ids,
            max_q_error=max_q_error,
            request_id=request_id,
            trace_id=trace_id,
        )
        return response, learning_task

    def _record_stage_timings(self, request_span) -> None:
        """Fold a finished request trace into the per-stage histograms."""
        if not request_span.recording or self.trace_store is None:
            return
        trace = self.trace_store.get(trace_id=request_span.trace_id)
        if trace is None:
            return
        root_id = trace["root_span_id"]
        self.stage_timings.observe("request", trace["duration_ms"])
        for record in trace["spans"]:
            if record["parent_id"] == root_id:
                self.stage_timings.observe(record["name"], record["duration_ms"])

    def _enqueue_learning(self, task: LearningTask) -> None:
        """Hand a feedback task to the background queue (drop when full)."""
        queue = self._learning_queue
        if queue is None or self._stopping or not self.config.learning_enabled:
            # A concurrent stop() is tearing the learner down (or already
            # did) after this request's _serve_sync completed; the response
            # is still valid, the task is simply dropped (and stays
            # re-triggerable on a future service).
            self._drop_learning(task)
            return
        try:
            # Stamp the enqueue time so the learner can report queue dwell.
            queue.put_nowait(replace(task, enqueued_at=time.perf_counter()))
        except asyncio.QueueFull:
            self._drop_learning(task)
        else:
            self.metrics.increment("learning_enqueued")

    def _drop_learning(self, task: LearningTask) -> None:
        """Count a task that will not be learned; dropped, not deferred, so
        its statement may re-trigger later."""
        self.metrics.increment("learning_dropped")
        self.feedback.forget(task.sql)

    async def _drain_learning_queue(self) -> None:
        """Background task: learn queued tasks on the loop, step by step."""
        assert self._learning_queue is not None
        interval = self.config.kb_checkpoint_interval_seconds
        while True:
            if interval is None:
                task = await self._learning_queue.get()
            else:
                # Wake at least once per checkpoint interval even when no
                # learning work arrives: the timer must fire on a quiet
                # service too (the dirty check makes an idle wake-up free).
                try:
                    task = await asyncio.wait_for(
                        self._learning_queue.get(), timeout=interval
                    )
                except asyncio.TimeoutError:
                    self._checkpoint_kb_sync()
                    continue
            try:
                await self._learn(task)
            except asyncio.CancelledError:
                # stop(drain=False) between two steps: what the task stored
                # stays, and its statement may re-trigger later.
                self._drop_learning(task)
                raise
            except Exception as exc:  # noqa: BLE001 - learner must survive bad tasks
                # Not "failed": that counter tracks serving requests.  Keep
                # the detail so a broken learner is diagnosable from outside.
                self.metrics.increment("learning_failed")
                self.last_learning_error = (
                    f"{task.query_name or task.sql_hash}: {type(exc).__name__}: {exc}"
                )
                # Same policy as a queue-full drop: the statement may
                # re-trigger later (the failure may have been transient).
                self.feedback.forget(task.sql)
            finally:
                self._learning_queue.task_done()
            self._checkpoint_kb_sync()

    def _checkpoint_kb_sync(self, force: bool = False) -> None:
        """Snapshot the KB to disk if due and dirty.

        Atomicity comes from :meth:`KnowledgeBase.save` (a new version
        directory, committed by its rename); this
        method adds the interval pacing and the dirty check, so a quiet
        service performs no disk writes.  ``force`` (shutdown) skips the
        interval, not the dirty check.  The timer advances only when a
        snapshot is actually attempted: an idle (clean-KB) wake-up must not
        restart the interval, or a KB dirtied just after it would wait up to
        two intervals for its first snapshot.
        """
        directory = self.config.kb_checkpoint_directory
        interval = self.config.kb_checkpoint_interval_seconds
        if directory is None:
            return
        now = time.monotonic()
        if not force and (interval is None or now - self._last_kb_checkpoint < interval):
            return
        if not self.galo.knowledge_base.dirty:
            return
        self._last_kb_checkpoint = now
        with self.tracer.start_trace("kb_checkpoint") as span:
            try:
                self.galo.knowledge_base.save(directory)
                self.metrics.increment("kb_checkpoints")
                span.set("templates", len(self.galo.knowledge_base))
            except OSError as exc:  # pragma: no cover - disk trouble must not kill learning
                self.metrics.increment("kb_checkpoint_failures")
                self.last_learning_error = f"kb checkpoint: {type(exc).__name__}: {exc}"
                span.set("error", type(exc).__name__)

    async def _learn(self, task: LearningTask) -> None:
        """Learn one task, yielding to the loop after every learning step,
        then enforce the KB capacity.

        Every request that became ready is served before the next step.
        A template is tied to its source statement in the step that stored
        it, so one stored before a cancellation keeps its source too.
        """
        span = self.tracer.start_trace(
            "learn_query", request_id=task.query_name or task.sql_hash
        )
        with span:
            if span.recording and task.enqueued_at:
                # Dwell between _enqueue_learning and the learner picking the
                # task up (the tasks ahead of it, and the requests served
                # between their steps).
                dwell = span.child("queue_dwell", start=task.enqueued_at).end()
                span.set("queue_dwell_ms", dwell.duration_ms)
            span.set("reason", task.reason)
            steps = self.galo.learning_engine.learning_steps(
                task.sql,
                query_name=task.query_name or task.sql_hash,
                workload_name="online",
                span=span,
            )
            for record in steps:
                for template_id in record.templates_learned:
                    self._template_sources[template_id] = task.sql
                await asyncio.sleep(0)
            self.metrics.increment("learning_completed")
            self.metrics.increment("templates_learned", len(record.templates_learned))
            span.set("templates", len(record.templates_learned))
            # Re-arm the statement's feedback entry: a *future* regression on
            # this fingerprint must be able to trigger re-learning now that
            # its templates have (re-)learned (satellite of the guard work --
            # previously each statement was enqueued at most once per service
            # lifetime).
            self.feedback.mark_learned(task.sql)
            if self.config.kb_capacity is not None:
                with span.child("enforce_capacity") as evict_span:
                    evicted = self.galo.knowledge_base.enforce_capacity(
                        self.config.kb_capacity
                    )
                    evict_span.set("evicted", len(evicted))
                if evicted:
                    self.metrics.increment("templates_evicted", len(evicted))
                    # An evicted template's statement becomes learnable again:
                    # without this, one capacity-pressured eviction would lose
                    # steering for that statement for the rest of the process.
                    for template_id in evicted:
                        source_sql = self._template_sources.pop(template_id, None)
                        if source_sql is not None:
                            self.feedback.forget(source_sql)


async def _serve_all(
    galo: Galo,
    requests: Sequence[Union[str, Tuple[str, str]]],
    config: Optional[ServiceConfig],
    drain: bool,
) -> Tuple[List[ServiceResponse], Dict[str, float]]:
    service = GaloService(galo, config)
    await service.start()
    try:
        responses = []
        async for response in service.stream(requests):
            responses.append(response)
        if drain:
            await service.drain()
        snapshot = service.metrics.snapshot()
    finally:
        # Honour drain=False on the way out too: the default stop() would
        # otherwise drain the learning queue anyway.
        await service.stop(drain=drain)
    return responses, snapshot


def serve_workload(
    galo: Galo,
    requests: Sequence[Union[str, Tuple[str, str]]],
    config: Optional[ServiceConfig] = None,
    drain: bool = True,
) -> Tuple[List[ServiceResponse], Dict[str, float]]:
    """Synchronous convenience: serve ``requests`` through a fresh service.

    Spins up a :class:`GaloService`, streams the whole batch, optionally
    drains background learning, and returns ``(responses, metrics snapshot)``
    with responses in completion order.  Used by the benchmarks and examples;
    long-lived callers should drive :class:`GaloService` directly.
    """
    return asyncio.run(_serve_all(galo, requests, config, drain))
