"""Service-level observability: counters and a latency reservoir.

In a ``GaloService`` requests and the learner both report from the
event-loop thread, so an update is a plain read-modify-write.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.obs.prometheus import format_sample_value

#: Counters every service instance starts with.  ``increment`` refuses names
#: outside the registry (catching typo'd counter names at the call site);
#: extensions declare theirs with :meth:`ServiceMetrics.register_counter`.
DECLARED_COUNTERS = (
    "submitted",
    "completed",
    "rejected",
    "failed",
    "steered",
    "prepared_hits",
    "prepared_misses",
    "prepared_invalidations",
    "prepared_replays",
    "learning_enqueued",
    "learning_dropped",
    "learning_completed",
    "learning_failed",
    "templates_learned",
    "templates_evicted",
)


class ServiceMetrics:
    """Counters + request-latency percentiles for one service instance."""

    #: Latency samples kept; beyond this the reservoir keeps every k-th sample
    #: so percentiles stay representative without unbounded memory.
    MAX_LATENCY_SAMPLES = 65536

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {name: 0 for name in DECLARED_COUNTERS}
        self._latencies_ms: List[float] = []
        self._latency_stride = 1
        self._latency_skip = 0
        # Exact running extremes, tracked outside the reservoir: both the
        # stride (skipped samples) and the halving (dropped samples) can lose
        # the true tail, so min/max must never depend on reservoir contents.
        self._latency_min_ms: Optional[float] = None
        self._latency_max_ms: Optional[float] = None

    def register_counter(self, name: str) -> None:
        """Declare an extension counter (idempotent, never resets a value)."""
        self._counters.setdefault(name, 0)

    def increment(self, name: str, amount: int = 1) -> None:
        if name not in self._counters:
            raise ValueError(
                f"unregistered counter {name!r}; declare it with "
                "register_counter() first"
            )
        self._counters[name] += amount

    def count(self, name: str) -> int:
        return self._counters.get(name, 0)

    def record_latency(self, wall_ms: float) -> None:
        if self._latency_min_ms is None or wall_ms < self._latency_min_ms:
            self._latency_min_ms = wall_ms
        if self._latency_max_ms is None or wall_ms > self._latency_max_ms:
            self._latency_max_ms = wall_ms
        self._latency_skip += 1
        if self._latency_skip < self._latency_stride:
            return
        self._latency_skip = 0
        self._latencies_ms.append(wall_ms)
        if len(self._latencies_ms) >= self.MAX_LATENCY_SAMPLES:
            # Halve the reservoir and double the stride: keeps memory
            # bounded while remaining a uniform-ish sample of the stream.
            self._latencies_ms = self._latencies_ms[::2]
            self._latency_stride *= 2

    @staticmethod
    def _nearest_rank(sorted_samples: List[float], percentile: float) -> float:
        if not sorted_samples:
            return 0.0
        size = len(sorted_samples)
        rank = max(0, min(size - 1, int(round(percentile / 100.0 * size)) - 1))
        return sorted_samples[rank]

    def latency_percentile(self, percentile: float) -> float:
        """Nearest-rank percentile of recorded wall latencies (ms); 0 if none."""
        if not 0 < percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        return self._nearest_rank(sorted(self._latencies_ms), percentile)

    @property
    def sample_count(self) -> int:
        return len(self._latencies_ms)

    @property
    def latency_min_ms(self) -> Optional[float]:
        """Exact minimum recorded wall latency (None before any sample)."""
        return self._latency_min_ms

    @property
    def latency_max_ms(self) -> Optional[float]:
        """Exact maximum recorded wall latency (None before any sample)."""
        return self._latency_max_ms

    def snapshot(self) -> Dict[str, float]:
        """A point-in-time copy of every counter plus latency summary stats.

        Percentiles come from the (downsampled) reservoir; ``latency_min_ms``
        and ``latency_max_ms`` are the exact running extremes -- the reservoir
        may have dropped the true tail sample, the running trackers cannot.
        """
        out: Dict[str, float] = dict(self._counters)
        samples = sorted(self._latencies_ms)
        out["latency_samples"] = len(samples)
        if samples:
            out["latency_p50_ms"] = self._nearest_rank(samples, 50)
            out["latency_p95_ms"] = self._nearest_rank(samples, 95)
        if self._latency_min_ms is not None:
            out["latency_min_ms"] = self._latency_min_ms
        if self._latency_max_ms is not None:
            out["latency_max_ms"] = self._latency_max_ms
        return out

    #: Prefix for every exposed series (``galo_submitted``, ...).
    PROMETHEUS_PREFIX = "galo_"

    #: ``# HELP`` text per metric (un-prefixed name); names absent here fall
    #: back to a generic line so every exposed series carries metadata.
    PROMETHEUS_HELP: Dict[str, str] = {
        "submitted": "Requests admitted for execution.",
        "completed": "Requests served to completion.",
        "rejected": "Requests refused by admission control.",
        "failed": "Requests that raised during serving.",
        "steered": "Requests executed with a KB-steered plan.",
        "prepared_hits": "Requests whose match verdict the prepared lane replayed.",
        "prepared_misses": "Requests whose match verdict was computed (no current entry).",
        "prepared_invalidations": "Misses that found an entry under a stale stamp.",
        "prepared_replays": "Requests answered by replaying a kept execution outcome.",
        "prepared_entries": "Statements currently held by the prepared lane.",
        "learning_enqueued": "Queries enqueued for background learning.",
        "learning_dropped": "Learning candidates dropped (queue full).",
        "learning_completed": "Background learning tasks finished.",
        "learning_failed": "Background learning tasks that raised.",
        "templates_learned": "Plan templates added to the knowledge base.",
        "templates_evicted": "Plan templates evicted by the capacity policy.",
        "steering_wins": "Steered executions at or under the optimizer baseline.",
        "steering_losses": "Steered executions regressed past the optimizer baseline.",
        "steering_unjudged": "Steered executions with no optimizer baseline yet.",
        "quarantine_blocks": "Template matches blocked by quarantine.",
        "quarantine_probes": "Quarantined-template matches allowed as shadow probes.",
        "templates_quarantined": "Templates quarantined by the regression guard.",
        "templates_rearmed": "Quarantined templates re-armed after probation wins.",
        "quarantined_templates": "Templates currently quarantined (not steering).",
        "latency_samples": "Latency reservoir size (post-downsampling).",
        "latency_p50_ms": "Median request wall latency (reservoir, ms).",
        "latency_p95_ms": "95th-percentile request wall latency (reservoir, ms).",
        "latency_min_ms": "Exact minimum request wall latency (ms).",
        "latency_max_ms": "Exact maximum request wall latency (ms).",
    }

    def render_prometheus(
        self, extra_gauges: Optional[Mapping[str, float]] = None
    ) -> str:
        """``/metrics``-style plaintext rendering of :meth:`snapshot`.

        One ``galo_<name> <value>`` sample per counter/summary stat, each
        preceded by ``# HELP`` and ``# TYPE`` headers (monotonic counters as
        ``counter``, everything else -- latency stats and the caller-supplied
        ``extra_gauges`` such as the execution memo's entry/byte totals -- as
        ``gauge``), sorted by name so the output is diff-stable.  Ends with a
        trailing newline as the exposition format requires.
        """
        samples = self.snapshot()
        if extra_gauges:
            for name, value in extra_gauges.items():
                samples[name] = value
        lines: List[str] = []
        for name in sorted(samples):
            value = samples[name]
            metric = self.PROMETHEUS_PREFIX + name
            kind = "counter" if name in self._counters else "gauge"
            help_text = self.PROMETHEUS_HELP.get(
                name, f"GALO service metric {name}."
            )
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {format_sample_value(value)}")
        return "\n".join(lines) + "\n"
