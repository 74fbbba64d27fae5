"""Configuration for the online serving tier."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ServiceConfig:
    """Knobs of :class:`repro.service.GaloService`.

    Admission control / backpressure
    --------------------------------
    Every request is served on the event-loop thread, one at a time.
    ``max_pending`` bounds the total number of admitted-but-unfinished
    requests (the one being served plus those waiting for the loop); a
    submission arriving beyond that is rejected immediately with a
    ``"rejected"`` response instead of queueing without bound -- the caller
    sheds load or retries.

    Continuous learning
    -------------------
    With ``learning_enabled``, every executed query is fed back into its
    statement's record (:mod:`repro.service.feedback`); mis-estimated or
    regressed queries are enqueued (at most once per statement) onto a
    background learning queue.  The learner drains it in FIFO order on the
    event loop, one learning step at a time, so a request waits for at most
    one step (about one miss) behind it.  The queue itself
    is bounded (``repro.service.service.LEARNING_QUEUE_LIMIT``); when it is
    full new candidates are dropped (and counted) rather than blocking
    serving.
    """

    #: Ignored: every request is served on the event loop.  Kept (and still
    #: validated) only because the pinned benchmark passes it; deleted with
    #: ROADMAP 1A(d) / 12(d).
    max_workers: int = 4
    #: Admission cap: served + waiting requests before submissions are rejected.
    max_pending: int = 64
    #: Match incoming queries against the knowledge base and run steered plans.
    steering_enabled: bool = True
    #: Feed runtime feedback into the background learning loop.
    learning_enabled: bool = True
    #: Factor over a statement's best runtime past which an execution
    #: regressed.  Feedback enqueues a regressed statement for learning (if
    #: never enqueued before); the guard counts a steered run past its
    #: statement's best *unsteered* runtime as a loss.
    regression_threshold: float = 1.5
    #: Steering safety (see :mod:`repro.service.guard`).  With
    #: ``guard_enabled``, every steered execution is judged against the
    #: statement's best *unsteered* runtime: within ``regression_threshold``
    #: is a win, beyond it a loss.  A template with at least
    #: ``guard_min_observations`` judged executions whose loss rate reaches
    #: ``guard_quarantine_loss_rate`` is quarantined -- its
    #: matches stop steering (requests fall back to the optimizer plan) while
    #: learning continues.  Every ``guard_probe_interval``-th matched request
    #: still steers as a shadow probe; consecutive probe wins re-arm the
    #: template (:class:`repro.service.guard.SteeringGuard`'s
    #: ``probation_wins``).
    guard_enabled: bool = True
    guard_min_observations: int = 3
    guard_quarantine_loss_rate: float = 0.5
    guard_probe_interval: int = 4
    #: Knowledge-base size cap enforced after each learned task
    #: (None = unbounded).  Eviction follows the cold/low-benefit-first policy
    #: of :meth:`repro.core.knowledge_base.KnowledgeBase.eviction_order`.
    kb_capacity: Optional[int] = None
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
        if self.regression_threshold < 1.0:
            raise ValueError("regression_threshold must be >= 1.0")
        if self.guard_min_observations < 1:
            raise ValueError("guard_min_observations must be >= 1")
        if not 0.0 < self.guard_quarantine_loss_rate <= 1.0:
            raise ValueError("guard_quarantine_loss_rate must be in (0, 1]")
        if self.guard_probe_interval < 1:
            raise ValueError("guard_probe_interval must be >= 1")
        if self.kb_capacity is not None and self.kb_capacity < 0:
            raise ValueError("kb_capacity must be >= 0")
        if self.slow_query_threshold_ms < 0:
            raise ValueError("slow_query_threshold_ms must be >= 0")
