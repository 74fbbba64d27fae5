"""Fixed-bucket latency histograms and the per-stage timing collection.

Buckets are upper bounds in milliseconds; observations are O(log n) via
bisect.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.prometheus import format_labels, format_sample_value

#: Default latency bucket upper bounds (ms), spanning sub-millisecond node
#: executions up to multi-second learning passes.
DEFAULT_BOUNDS_MS: Tuple[float, ...] = (
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
)


class Histogram:
    """Thread-safe fixed-bucket histogram of millisecond durations."""

    __slots__ = ("bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS_MS):
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = tuple(float(b) for b in bounds)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = ordered
        # One overflow bucket past the last bound (the +Inf bucket).
        self._counts = [0] * (len(ordered) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value_ms: float) -> None:
        index = bisect_left(self.bounds, value_ms)
        with self._lock:
            self._counts[index] += 1
            self._sum += value_ms
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    # -- exposition ----------------------------------------------------------

    def render_prometheus(
        self,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
    ) -> List[str]:
        """Cumulative ``_bucket``/``_sum``/``_count`` sample lines."""
        with self._lock:
            counts = list(self._counts)
            total_sum = self._sum
            total_count = self._count
        lines: List[str] = []
        cumulative = 0
        for bound, count in zip(self.bounds, counts):
            cumulative += count
            bucket_labels = dict(labels or {})
            bucket_labels["le"] = format_sample_value(bound)
            lines.append(f"{name}_bucket{format_labels(bucket_labels)} {cumulative}")
        bucket_labels = dict(labels or {})
        bucket_labels["le"] = "+Inf"
        lines.append(f"{name}_bucket{format_labels(bucket_labels)} {total_count}")
        lines.append(
            f"{name}_sum{format_labels(labels)} {format_sample_value(total_sum)}"
        )
        lines.append(f"{name}_count{format_labels(labels)} {total_count}")
        return lines


class StageTimings:
    """Named per-stage histograms (queue_wait, match, plan, execute, ...)."""

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS_MS):
        self.bounds = tuple(float(b) for b in bounds)
        self._stages: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def _stage(self, stage: str) -> Histogram:
        histogram = self._stages.get(stage)
        if histogram is None:
            with self._lock:
                histogram = self._stages.setdefault(stage, Histogram(self.bounds))
        return histogram

    def observe(self, stage: str, value_ms: float) -> None:
        self._stage(stage).observe(value_ms)

    def stages(self) -> List[str]:
        with self._lock:
            return sorted(self._stages)

    def get(self, stage: str) -> Optional[Histogram]:
        with self._lock:
            return self._stages.get(stage)

    # -- exposition ----------------------------------------------------------

    def render_prometheus(self, name: str) -> List[str]:
        """Sample lines for every stage, labelled ``stage="..."``."""
        lines: List[str] = []
        with self._lock:
            items = sorted(self._stages.items())
        for stage, histogram in items:
            lines.extend(histogram.render_prometheus(name, {"stage": stage}))
        return lines
