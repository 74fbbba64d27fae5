"""Steering safety: the per-template regression guard and workload drift.

The knowledge base steers plans from learned templates, but a learned
template can be *wrong* for live traffic -- Bao's defining contribution is
exactly this regression avoidance.  This module protects the serving path:

- :class:`SteeringGuard` keeps a per-template **win/loss ledger** (stored in
  the :class:`~repro.core.knowledge_base.KnowledgeBase`, so it persists
  through checkpoints and propagates to sharded followers): every steered
  execution is judged against the statement's own optimizer-baseline runtime
  (the best *unsteered* ``elapsed_ms`` the guard has observed for that SQL
  fingerprint).  A template whose loss rate crosses the configured threshold
  is **quarantined**: its matches stop steering (requests fall back to the
  optimizer's plan -- graceful degradation) while learning continues.  Every
  ``guard_probe_interval``-th matched request still steers as a shadow
  *probe*; ``guard_probation_wins`` consecutive probe wins re-arm the
  template.  Wins/losses also feed
  :meth:`~repro.core.knowledge_base.KnowledgeBase.eviction_order`, so chronic
  losers evict first under capacity pressure.

- :class:`WorkloadDriftDetector` summarizes the live workload as a feature
  vector (join/scan/predicate counts, group-by/order-by presence, scan share
  -- the E2ETune feature set) and compares a rolling window against the mean
  of the population the knowledge base learned from.  On drift onset the
  guard emits targeted re-learning tasks for the hottest statements in the
  window and :class:`LearningScheduler` switches the background learning
  queue from FIFO to frequency x estimated-benefit priority (the Learned
  Query Superoptimization loop: re-invest idle cycles by expected payoff).

Everything here is deterministic: probes fire on a per-template counter (not
wall time or randomness), verdicts compare simulated ``elapsed_ms`` values,
and every ordering ties off on fingerprints/sequence numbers -- so guard-on
serving with zero observed regressions is bit-identical to guard-off.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.knowledge_base import KnowledgeBase, TemplateMatch
from repro.service.feedback import LearningTask, sql_fingerprint
from repro.service.metrics import ServiceMetrics

#: Guard counters, registered on the service's :class:`ServiceMetrics` by
#: :meth:`SteeringGuard.register_metrics` (GL003: declared here, incremented
#: with literals below).
GUARD_COUNTERS = (
    "steering_wins",
    "steering_losses",
    "steering_unjudged",
    "quarantine_blocks",
    "quarantine_probes",
    "templates_quarantined",
    "templates_rearmed",
    "drift_events",
    "learning_drift_enqueued",
)

#: Names of the workload feature vector's positions (E2ETune's feature set,
#: reduced to what the simulated engine exposes).
WORKLOAD_FEATURE_NAMES = (
    "join_count",
    "scan_count",
    "predicate_count",
    "has_group_by",
    "has_order_by",
    "scan_share",
)


def workload_features(plan) -> List[float]:
    """Feature vector of one plan (a ``Qgm`` or a ``PlanNode`` subtree).

    Joins, scans and predicate counts are absolute; group-by/order-by are
    0/1 presence flags; ``scan_share`` normalizes scans by operator count so
    plans of different sizes stay comparable.
    """
    if hasattr(plan, "nodes"):
        nodes = list(plan.nodes())
    else:
        nodes = list(plan.walk())
    total = max(len(nodes), 1)
    joins = sum(1 for node in nodes if node.is_join)
    scans = sum(1 for node in nodes if node.is_scan)
    predicates = sum(
        len(node.predicates) + len(node.join_predicates) for node in nodes
    )
    has_group_by = any(node.display_type == "GRPBY" for node in nodes)
    has_order_by = any(node.display_type == "SORT" for node in nodes)
    return [
        float(joins),
        float(scans),
        float(predicates),
        1.0 if has_group_by else 0.0,
        1.0 if has_order_by else 0.0,
        scans / total,
    ]


def drift_score(live_mean: Sequence[float], reference_mean: Sequence[float]) -> float:
    """Normalized L1 distance between two feature means (0 = identical).

    Each position's absolute difference is scaled by ``1 + |reference|`` so
    count-valued features (joins, predicates) and ratio-valued features
    (scan share, presence flags) contribute on comparable scales.
    """
    if not live_mean or len(live_mean) != len(reference_mean):
        return 0.0
    distances = [
        abs(live - ref) / (1.0 + abs(ref))
        for live, ref in zip(live_mean, reference_mean)
    ]
    return sum(distances) / len(distances)


@dataclass
class GuardScreen:
    """Outcome of screening one request's template matches.

    ``allowed`` are the matches that may steer this request (unquarantined
    templates plus any quarantined template whose probe tick fired);
    ``blocked`` / ``probed`` carry the quarantined template ids each way.
    """

    allowed: List[TemplateMatch] = field(default_factory=list)
    blocked: List[str] = field(default_factory=list)
    probed: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """True when quarantine changed what this request would have run."""
        return bool(self.blocked)


class WorkloadDriftDetector:
    """Rolling live-workload feature window vs. the KB's learned population.

    Not thread-safe on its own -- the owning :class:`SteeringGuard`
    serializes access under its lock.
    """

    def __init__(
        self,
        window: int = 64,
        threshold: float = 0.5,
        min_reference_samples: int = 4,
    ) -> None:
        self.window = window
        self.threshold = threshold
        self.min_reference_samples = min_reference_samples
        self._features: Deque[List[float]] = deque(maxlen=window)
        self._fingerprints: Deque[str] = deque(maxlen=window)
        #: fingerprint -> occurrences inside the current window.
        self._frequency: Dict[str, int] = {}
        self.score = 0.0
        self.drifted = False

    def frequency(self, fingerprint: str) -> int:
        """How often ``fingerprint`` occurs in the current window."""
        return self._frequency.get(fingerprint, 0)

    def hottest(self, limit: int) -> List[str]:
        """Up to ``limit`` window fingerprints, most frequent first.

        Ties break on the fingerprint itself so the selection is
        deterministic regardless of arrival interleaving.
        """
        ranked = sorted(
            self._frequency.items(), key=lambda item: (-item[1], item[0])
        )
        return [fingerprint for fingerprint, _ in ranked[:limit]]

    def observe(
        self,
        fingerprint: str,
        features: Sequence[float],
        reference: Tuple[int, Sequence[float]],
    ) -> bool:
        """Fold one served request into the window; True on *drift onset*.

        ``reference`` is ``(sample count, mean vector)`` of the knowledge
        base's learned population.  Until the window is full and the
        reference has ``min_reference_samples`` samples the score stays 0 --
        a cold service must not flag drift against nothing.
        """
        if len(self._fingerprints) == self._fingerprints.maxlen:
            expiring = self._fingerprints[0]
            remaining = self._frequency.get(expiring, 0) - 1
            if remaining > 0:
                self._frequency[expiring] = remaining
            else:
                self._frequency.pop(expiring, None)
        self._fingerprints.append(fingerprint)
        self._frequency[fingerprint] = self._frequency.get(fingerprint, 0) + 1
        self._features.append(list(features))

        reference_count, reference_mean = reference
        if (
            len(self._features) < self.window
            or reference_count < self.min_reference_samples
            or not reference_mean
        ):
            self.score = 0.0
            self.drifted = False
            return False
        width = len(self._features[0])
        live_mean = [
            sum(vector[position] for vector in self._features) / len(self._features)
            for position in range(width)
        ]
        self.score = drift_score(live_mean, reference_mean)
        previously = self.drifted
        self.drifted = self.score >= self.threshold
        return self.drifted and not previously


class LearningScheduler:
    """Pending background-learning tasks: FIFO normally, priority on drift.

    The service's ``asyncio.Queue`` keeps carrying one token per task (so
    queue size, backpressure and ``join()`` semantics are untouched); the
    tasks themselves live here.  Push and pop both happen on the event-loop
    thread.  In FIFO mode pop order is exactly insertion order -- guard-on
    behaviour is bit-identical to the historical queue when no drift has been
    detected.  Under drift, pop picks the task with the highest
    ``frequency x estimated benefit`` (window frequency of its statement
    times its worst cardinality q-error), insertion order breaking ties.
    """

    def __init__(self, guard: Optional["SteeringGuard"] = None) -> None:
        self._guard = guard
        self._entries: List[Tuple[int, LearningTask]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, task: LearningTask) -> None:
        self._seq += 1
        self._entries.append((self._seq, task))

    def pop(self) -> LearningTask:
        if not self._entries:
            raise IndexError("pop from an empty LearningScheduler")
        guard = self._guard
        if guard is None or not guard.drifted:
            return self._entries.pop(0)[1]

        def priority(entry: Tuple[int, LearningTask]) -> Tuple[float, int]:
            seq, task = entry
            frequency = max(guard.statement_frequency(task.sql_hash), 1)
            benefit = max(task.max_q_error, 1.0)
            # Higher priority first; lower seq (older) breaks ties.
            return (-(frequency * benefit), seq)

        best = min(self._entries, key=priority)
        self._entries.remove(best)
        return best[1]


class SteeringGuard:
    """The serving tier's regression guard (see the module docstring).

    One instance per :class:`~repro.service.GaloService`.  The knowledge base
    is passed *per call* rather than captured at construction: a sharded
    follower hot-reloads by swapping the KB object, and the guard must always
    judge against (and record into) the currently adopted one.
    """

    def __init__(
        self,
        *,
        regression_threshold: float = 1.5,
        min_observations: int = 3,
        quarantine_loss_rate: float = 0.5,
        probation_wins: int = 2,
        probe_interval: int = 4,
        drift_window: int = 64,
        drift_threshold: float = 0.5,
        drift_min_reference: int = 4,
        drift_relearn_limit: int = 4,
        max_tracked_statements: int = 4096,
        metrics: Optional[ServiceMetrics] = None,
    ) -> None:
        if regression_threshold < 1.0:
            raise ValueError("regression_threshold must be >= 1.0")
        if min_observations < 1:
            raise ValueError("min_observations must be >= 1")
        if not 0.0 < quarantine_loss_rate <= 1.0:
            raise ValueError("quarantine_loss_rate must be in (0, 1]")
        if probation_wins < 1:
            raise ValueError("probation_wins must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        self.regression_threshold = regression_threshold
        self.min_observations = min_observations
        self.quarantine_loss_rate = quarantine_loss_rate
        self.probation_wins = probation_wins
        self.probe_interval = probe_interval
        self.drift_relearn_limit = drift_relearn_limit
        self.max_tracked_statements = max_tracked_statements
        self.metrics = metrics or ServiceMetrics()
        self.register_metrics(self.metrics)
        self._lock = threading.Lock()
        #: fingerprint -> best *unsteered* elapsed_ms (the optimizer baseline
        #: the ledger judges steered runs against).  Insertion-ordered for
        #: FIFO trimming, like the feedback monitor's history.
        self._baselines: Dict[str, float] = {}
        #: fingerprint -> (sql, query_name, last max_q_error): what a drift
        #: re-learn task needs, for statements still in the drift window.
        self._statements: Dict[str, Tuple[str, str, float]] = {}
        self.drift = WorkloadDriftDetector(
            window=drift_window,
            threshold=drift_threshold,
            min_reference_samples=drift_min_reference,
        )
        self._pending_drift_tasks: List[LearningTask] = []
        #: Drift onsets observed (mirrors the counter, readable without it).
        self.drift_events = 0

    def register_metrics(self, metrics: ServiceMetrics) -> None:
        """Declare every guard counter on ``metrics`` (idempotent)."""
        self.metrics = metrics
        for name in GUARD_COUNTERS:
            metrics.register_counter(name)

    # -- pre-execution screening ------------------------------------------

    def screen(
        self, knowledge_base: KnowledgeBase, matches: Sequence[TemplateMatch]
    ) -> GuardScreen:
        """Filter one request's matches through the quarantine policy.

        Unquarantined templates pass through untouched (same objects, same
        order -- the zero-quarantine path is bit-identical to no guard).  A
        quarantined template steers only when its deterministic probe tick
        fires; otherwise its match is blocked and the request degrades to
        whatever the remaining matches (or the optimizer baseline) give.
        """
        screen = GuardScreen()
        for match in matches:
            template_id = match.template.template_id
            if not knowledge_base.is_quarantined(template_id):
                screen.allowed.append(match)
                continue
            tick = knowledge_base.advance_probe_counter(template_id)
            if tick % self.probe_interval == 0:
                self.metrics.increment("quarantine_probes")
                screen.probed.append(template_id)
                screen.allowed.append(match)
            else:
                self.metrics.increment("quarantine_blocks")
                screen.blocked.append(template_id)
        return screen

    # -- post-execution ledger ---------------------------------------------

    def observe(
        self,
        knowledge_base: KnowledgeBase,
        *,
        sql: str,
        elapsed_ms: float,
        steered: bool,
        template_ids: Sequence[str],
    ) -> str:
        """Record one served execution; returns the verdict.

        Unsteered executions update the statement's optimizer baseline and
        return ``"baseline"``.  Steered executions are judged against that
        baseline: ``"win"`` within the regression threshold, ``"loss"``
        beyond it, ``"unjudged"`` when no baseline exists yet (the guard
        never probes baselines itself -- that would change served plans and
        break the zero-regression differential identity).  Wins and losses
        are tallied against every template that steered the request, and
        quarantine / re-arm transitions are applied here.
        """
        fingerprint = sql_fingerprint(sql)
        if not steered:
            with self._lock:
                best = self._baselines.get(fingerprint)
                if best is None:
                    while len(self._baselines) >= self.max_tracked_statements:
                        oldest = next(iter(self._baselines))
                        del self._baselines[oldest]
                    self._baselines[fingerprint] = elapsed_ms
                elif elapsed_ms < best:
                    self._baselines[fingerprint] = elapsed_ms
            return "baseline"
        with self._lock:
            baseline = self._baselines.get(fingerprint)
        if baseline is None:
            self.metrics.increment("steering_unjudged")
            return "unjudged"
        win = elapsed_ms <= baseline * self.regression_threshold
        if win:
            self.metrics.increment("steering_wins")
        else:
            self.metrics.increment("steering_losses")
        for template_id in template_ids:
            record = knowledge_base.record_steering_outcome(template_id, win)
            if record.quarantined:
                if record.probation_wins >= self.probation_wins:
                    if knowledge_base.rearm_template(template_id):
                        self.metrics.increment("templates_rearmed")
            elif (
                record.observations >= self.min_observations
                and record.loss_rate >= self.quarantine_loss_rate
            ):
                if knowledge_base.quarantine_template(template_id):
                    self.metrics.increment("templates_quarantined")
        return "win" if win else "loss"

    # -- workload drift ----------------------------------------------------

    def observe_workload(
        self,
        knowledge_base: KnowledgeBase,
        *,
        sql: str,
        query_name: str,
        qgm,
        max_q_error: float,
    ) -> None:
        """Fold one served request into the drift window (serving thread).

        On drift onset, re-learning tasks for the window's hottest
        statements are staged; the service's event loop collects them via
        :meth:`take_drift_tasks` and feeds the learning queue.
        """
        features = workload_features(qgm)
        fingerprint = sql_fingerprint(sql)
        reference = knowledge_base.learned_feature_population()
        with self._lock:
            while len(self._statements) >= self.max_tracked_statements:
                oldest = next(iter(self._statements))
                del self._statements[oldest]
            self._statements[fingerprint] = (sql, query_name, max_q_error)
            onset = self.drift.observe(fingerprint, features, reference)
            if not onset:
                return
            self.drift_events += 1
            hot = self.drift.hottest(self.drift_relearn_limit)
            for hot_fingerprint in hot:
                entry = self._statements.get(hot_fingerprint)
                if entry is None:
                    continue
                hot_sql, hot_name, hot_q_error = entry
                self._pending_drift_tasks.append(
                    LearningTask(
                        sql=hot_sql,
                        query_name=hot_name,
                        reason="drift",
                        sql_hash=hot_fingerprint,
                        max_q_error=hot_q_error,
                        elapsed_ms=0.0,
                    )
                )
                self.metrics.increment("learning_drift_enqueued")
        self.metrics.increment("drift_events")

    def take_drift_tasks(self) -> List[LearningTask]:
        """Drain staged drift re-learning tasks (event-loop thread)."""
        with self._lock:
            tasks = self._pending_drift_tasks
            self._pending_drift_tasks = []
        return tasks

    @property
    def drifted(self) -> bool:
        return self.drift.drifted

    @property
    def drift_score(self) -> float:
        return self.drift.score

    def statement_frequency(self, fingerprint: str) -> int:
        """Window frequency of a statement (the scheduler's priority input)."""
        with self._lock:
            return self.drift.frequency(fingerprint)

    def baseline_ms(self, sql: str) -> Optional[float]:
        """The optimizer baseline the ledger judges ``sql`` against."""
        with self._lock:
            return self._baselines.get(sql_fingerprint(sql))
