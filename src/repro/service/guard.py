"""Steering safety: the per-template regression guard.

The knowledge base steers plans from learned templates, but a learned
template can be *wrong* for live traffic -- Bao's defining contribution is
exactly this regression avoidance.  :class:`SteeringGuard` protects the
serving path with a per-template **win/loss ledger** (stored in the
:class:`~repro.core.knowledge_base.KnowledgeBase`, so it persists through
checkpoints and hot reloads): every steered execution is
judged against the statement's own optimizer-baseline runtime (the best
*unsteered* ``elapsed_ms`` its ``StatementRecord`` holds).  A template whose
loss rate crosses the configured threshold is **quarantined**: its matches
stop steering (requests fall back to the optimizer's plan -- graceful
degradation) while learning continues.  Every
``guard_probe_interval``-th matched request still steers as a shadow *probe*;
``guard_probation_wins`` consecutive probe wins re-arm the template.
Wins/losses also feed
:meth:`~repro.core.knowledge_base.KnowledgeBase.eviction_order`, so chronic
losers evict first under capacity pressure.

Everything here is deterministic: probes fire on a per-template counter (not
wall time or randomness) and verdicts compare simulated ``elapsed_ms``
values -- so guard-on serving with zero observed regressions is
bit-identical to guard-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.knowledge_base import KnowledgeBase, TemplateMatch
from repro.service.feedback import StatementLedger, StatementRecord, statement_key
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
)


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


class SteeringGuard:
    """The serving tier's regression guard (see the module docstring).

    One instance per :class:`~repro.service.GaloService`, sharing the
    service's ``ledger`` (a guard built alone keeps its own).  The knowledge
    base is passed *per call* rather than captured at construction: a hot
    reload (``Galo.maybe_reload_knowledge_base``) swaps the KB object, and the
    guard must always judge against (and record into) the current one.
    """

    def __init__(
        self,
        *,
        regression_threshold: float = 1.5,
        min_observations: int = 3,
        quarantine_loss_rate: float = 0.5,
        probation_wins: int = 2,
        probe_interval: int = 4,
        ledger: Optional[StatementLedger] = None,
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
        self.ledger = StatementLedger() if ledger is None else ledger
        self.metrics = metrics or ServiceMetrics()
        self.register_metrics(self.metrics)

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
        """:meth:`judge` one served execution of ``sql``, whose record is
        looked up in the ledger (created on an unsteered run)."""
        record = self.ledger.observe(statement_key(sql), create=not steered)
        return self.judge(
            knowledge_base, record,
            elapsed_ms=elapsed_ms, steered=steered, template_ids=template_ids,
        )

    def judge(
        self,
        knowledge_base: KnowledgeBase,
        record: Optional[StatementRecord],
        *,
        elapsed_ms: float,
        steered: bool,
        template_ids: Sequence[str],
    ) -> str:
        """Judge one served execution of ``record``'s statement.

        Unsteered executions update the statement's optimizer baseline and
        return ``"baseline"``.  Steered executions are judged against that
        baseline: ``"win"`` within the regression threshold, ``"loss"``
        beyond it, ``"unjudged"`` when no baseline exists yet (the guard
        never probes baselines itself -- that would change served plans and
        break the zero-regression differential identity).  Wins and losses
        are tallied against every template that steered the request, and
        quarantine / re-arm transitions are applied here.
        """
        if not steered:
            # The ledger creates the record of every unsteered run.
            assert record is not None
            record.best_unsteered_ms = min(record.best_unsteered_ms, elapsed_ms)
            return "baseline"
        if record is None or record.best_unsteered_ms == math.inf:
            self.metrics.increment("steering_unjudged")
            return "unjudged"
        win = elapsed_ms <= record.best_unsteered_ms * self.regression_threshold
        if win:
            self.metrics.increment("steering_wins")
        else:
            self.metrics.increment("steering_losses")
        for template_id in template_ids:
            tally = knowledge_base.record_steering_outcome(template_id, win)
            if tally.quarantined:
                if tally.probation_wins >= self.probation_wins:
                    if knowledge_base.rearm_template(template_id):
                        self.metrics.increment("templates_rearmed")
            elif (
                tally.observations >= self.min_observations
                and tally.loss_rate >= self.quarantine_loss_rate
            ):
                if knowledge_base.quarantine_template(template_id):
                    self.metrics.increment("templates_quarantined")
        return "win" if win else "loss"
