"""Configuration for the online serving tier."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class ServiceConfig:
    """Knobs of :class:`repro.service.GaloService`.

    Admission control / backpressure
    --------------------------------
    Every request is served on the event-loop thread, one at a time (scale
    out with :class:`repro.service.sharded.ShardedGaloService` processes).
    ``max_pending`` bounds the total number of admitted-but-unfinished
    requests (the one being served plus those waiting for the loop); a
    submission arriving beyond that is rejected immediately with a
    ``"rejected"`` response instead of queueing without bound -- the caller
    sheds load or retries.

    Continuous learning
    -------------------
    With ``learning_enabled``, every executed query is fed to the feedback
    monitor; mis-estimated or regressed queries are enqueued (deduplicated by
    SQL hash) onto a background learning queue.  The learner drains it in
    FIFO order on the event loop, one learning step at a time, so a request
    waits for at most one step (about one miss) behind it.  The queue itself
    is bounded (``repro.service.service.LEARNING_QUEUE_LIMIT``); when it is
    full new candidates are dropped (and counted) rather than blocking
    serving.
    """

    #: Ignored: every request is served on the event loop.  Kept (and still
    #: validated) only because the pinned benchmark passes it; deleted with
    #: ROADMAP 1(d) / 9(b).
    max_workers: int = 4
    #: Admission cap: served + waiting requests before submissions are rejected.
    max_pending: int = 64
    #: Match incoming queries against the knowledge base and run steered plans.
    steering_enabled: bool = True
    #: Feed runtime feedback into the background learning loop.
    learning_enabled: bool = True
    #: Worst per-operator cardinality q-error before a query is considered
    #: mis-estimated and enqueued for learning (1.0 = estimates were perfect).
    q_error_threshold: float = 4.0
    #: Factor over a query's best observed runtime before a repeat execution
    #: is considered regressed and enqueued for (re-)learning.
    regression_threshold: float = 1.5
    #: Steering safety (see :mod:`repro.service.guard`).  With
    #: ``guard_enabled``, every steered execution is judged against the
    #: statement's best *unsteered* runtime: within
    #: ``guard_regression_threshold`` is a win, beyond it a loss.  A template
    #: with at least ``guard_min_observations`` judged executions whose loss
    #: rate reaches ``guard_quarantine_loss_rate`` is quarantined -- its
    #: matches stop steering (requests fall back to the optimizer plan) while
    #: learning continues.  Every ``guard_probe_interval``-th matched request
    #: still steers as a shadow probe; consecutive probe wins re-arm the
    #: template (:class:`repro.service.guard.SteeringGuard`'s
    #: ``probation_wins``).
    guard_enabled: bool = True
    guard_regression_threshold: float = 1.5
    guard_min_observations: int = 3
    guard_quarantine_loss_rate: float = 0.5
    guard_probe_interval: int = 4
    #: Knowledge-base size cap enforced after each learned task
    #: (None = unbounded).  Eviction follows the cold/low-benefit-first policy
    #: of :meth:`repro.core.knowledge_base.KnowledgeBase.eviction_order`.
    kb_capacity: Optional[int] = None
    #: Online KB checkpointing: with both fields set, the learner
    #: publishes the knowledge base to ``kb_checkpoint_directory`` at most
    #: every ``kb_checkpoint_interval_seconds`` -- as a new version directory
    #: committed by its rename (see
    #: :meth:`repro.core.knowledge_base.KnowledgeBase.save`) and only when
    #: the KB mutated since the last save, so a quiet service does no disk
    #: work.  ``None`` disables.
    kb_checkpoint_interval_seconds: Optional[float] = None
    kb_checkpoint_directory: Optional[str] = None
    #: Request tracing (see :mod:`repro.obs`).  ``None`` defers to the
    #: ``GALO_TRACE`` environment variable (off unless set), so the CI
    #: tracing leg can flip the whole suite without touching configs.
    #: Tracing only reads runtime state -- rows, counters and simulated
    #: ``elapsed_ms`` are bit-identical with it on or off.
    tracing_enabled: Optional[bool] = None
    #: Request traces at or above this wall duration (ms) also land in the
    #: slow-query log ring (ring sizes: :class:`repro.obs.TraceStore`'s
    #: defaults).
    slow_query_threshold_ms: float = 250.0

    def resolved_tracing_enabled(self) -> bool:
        """``tracing_enabled`` with ``None`` resolved via ``GALO_TRACE``."""
        if self.tracing_enabled is None:
            from repro.obs import env_tracing_default

            return env_tracing_default()
        return bool(self.tracing_enabled)

    def __post_init__(self) -> None:
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if self.q_error_threshold < 1.0:
            raise ValueError("q_error_threshold must be >= 1.0 (1.0 = exact)")
        if self.regression_threshold < 1.0:
            raise ValueError("regression_threshold must be >= 1.0")
        if self.guard_regression_threshold < 1.0:
            raise ValueError("guard_regression_threshold must be >= 1.0")
        if self.guard_min_observations < 1:
            raise ValueError("guard_min_observations must be >= 1")
        if not 0.0 < self.guard_quarantine_loss_rate <= 1.0:
            raise ValueError("guard_quarantine_loss_rate must be in (0, 1]")
        if self.guard_probe_interval < 1:
            raise ValueError("guard_probe_interval must be >= 1")
        if self.kb_capacity is not None and self.kb_capacity < 0:
            raise ValueError("kb_capacity must be >= 0")
        if (
            self.kb_checkpoint_interval_seconds is not None
            and self.kb_checkpoint_interval_seconds <= 0
        ):
            raise ValueError("kb_checkpoint_interval_seconds must be > 0")
        if (
            self.kb_checkpoint_interval_seconds is not None
            and not self.kb_checkpoint_directory
        ):
            raise ValueError(
                "kb_checkpoint_interval_seconds requires kb_checkpoint_directory"
            )
        if self.slow_query_threshold_ms < 0:
            raise ValueError("slow_query_threshold_ms must be >= 0")


@dataclass
class ShardedServiceConfig:
    """Knobs of :class:`repro.service.sharded.ShardedGaloService`.

    Topology
    --------
    ``num_workers`` worker *processes*, each running a full
    :class:`GaloService` over its own database + engine + KB replica.
    Requests are routed by consistent hash of the SQL fingerprint
    (``routing_key`` overrides the key function, e.g. for per-tenant
    routing).

    Knowledge-base propagation
    --------------------------
    With ``kb_directory`` set, the worker on ``learner_shard`` keeps
    background learning enabled and publishes atomic, versioned checkpoints
    there at most every ``kb_publish_interval_seconds``; every other worker
    disables its own learner and instead polls the newest version directory
    every ``kb_poll_interval_seconds``, hot-reloading on a bump
    without pausing serving.  ``learner_shard=None`` makes every worker
    learn locally (no propagation -- fine for a single shard).

    Fault handling
    --------------
    A worker process that dies fails only its in-flight requests (typed
    ``WorkerCrashedError`` responses) and is respawned -- reloading the
    latest KB checkpoint on the way up -- at most ``max_worker_restarts``
    times per shard; ``max_worker_restarts=0`` turns restarts off.  A shard
    past its budget stays down and answers every request routed to it with a
    ``WorkerCrashedError``.
    """

    #: Worker processes (shards).
    num_workers: int = 2
    #: Per-shard admission cap: in-flight requests beyond it are rejected.
    max_pending_per_shard: int = 32
    #: Per-worker service configuration (learning/checkpoint fields are
    #: overridden per shard according to ``learner_shard``/``kb_directory``).
    worker_config: ServiceConfig = field(default_factory=ServiceConfig)
    #: Shared checkpoint directory for KB propagation (None = no propagation).
    kb_directory: Optional[str] = None
    #: How often non-learner workers poll for a newer checkpoint version.
    kb_poll_interval_seconds: float = 0.5
    #: How often the learner shard publishes a (dirty) checkpoint.
    kb_publish_interval_seconds: float = 2.0
    #: Shard index whose worker runs the background learner (None = all do,
    #: without propagation).
    learner_shard: Optional[int] = 0
    #: Restart budget per shard (0 = never restart); beyond it the shard
    #: stays down and its requests are answered with typed errors.
    max_worker_restarts: int = 3
    #: Routing key function ``(sql, query_name) -> str``; None = SQL
    #: fingerprint (whitespace-normalized hash, the feedback monitor's key).
    routing_key: Optional[Callable[[str, str], str]] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.max_pending_per_shard < 1:
            raise ValueError("max_pending_per_shard must be >= 1")
        if self.kb_poll_interval_seconds <= 0:
            raise ValueError("kb_poll_interval_seconds must be > 0")
        if self.kb_publish_interval_seconds <= 0:
            raise ValueError("kb_publish_interval_seconds must be > 0")
        if self.learner_shard is not None and not (
            0 <= self.learner_shard < self.num_workers
        ):
            raise ValueError("learner_shard must be a valid shard index")
        if self.max_worker_restarts < 0:
            raise ValueError("max_worker_restarts must be >= 0")
