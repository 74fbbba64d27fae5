"""Bounded in-memory trace storage plus the slow-query log and timeline view.

Finished traces are plain dicts (JSON-exportable as-is)::

    {
        "trace_id": "1a2b-3",
        "name": "request",           # request | learn_query | kb_checkpoint | ...
        "request_id": "req-17",
        "root_span_id": 42,
        "duration_ms": 12.4,
        "spans": [
            {"span_id": 42, "parent_id": None, "name": "request",
             "start_ms": 0.0, "duration_ms": 12.4, "attributes": {...}},
            ...
        ],
    }

The store keeps the last ``capacity`` traces in a ring buffer; request traces
whose root wall duration crosses ``slow_threshold_ms`` are additionally kept
in a separate slow-query ring so a burst of fast traffic cannot rotate a slow
statement out of the log before anyone looks at it.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import Any, Dict, List, Optional


class TraceStore:
    """Thread-safe bounded buffer of finished traces + slow-query log."""

    def __init__(
        self,
        capacity: int = 256,
        slow_threshold_ms: Optional[float] = None,
        slow_capacity: int = 64,
    ):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if slow_capacity < 0:
            raise ValueError("slow_capacity must be >= 0")
        if slow_threshold_ms is not None and slow_threshold_ms < 0:
            raise ValueError("slow_threshold_ms must be >= 0")
        self.capacity = capacity
        self.slow_threshold_ms = slow_threshold_ms
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=capacity)
        self._slow: deque = deque(maxlen=slow_capacity)
        self._recorded = 0
        self._slow_recorded = 0

    # -- ingestion -----------------------------------------------------------

    def add(self, trace: Dict[str, Any]) -> None:
        """File one finished trace (called by the tracer)."""
        with self._lock:
            self._recorded += 1
            if self.capacity:
                self._traces.append(trace)
            if (
                self.slow_threshold_ms is not None
                and trace.get("name") == "request"
                and trace.get("duration_ms", 0.0) >= self.slow_threshold_ms
            ):
                self._slow_recorded += 1
                if self._slow.maxlen:
                    self._slow.append(trace)

    # -- retrieval -----------------------------------------------------------

    def get(
        self, request_id: Optional[str] = None, trace_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """Most recent trace matching ``request_id`` or ``trace_id``."""
        with self._lock:
            for trace in reversed(self._traces):
                if request_id is not None and trace.get("request_id") == request_id:
                    return trace
                if trace_id is not None and trace.get("trace_id") == trace_id:
                    return trace
        return None

    def pop(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """Remove and return the trace with ``trace_id`` (ship-over-the-wire)."""
        with self._lock:
            for index in range(len(self._traces) - 1, -1, -1):
                if self._traces[index].get("trace_id") == trace_id:
                    trace = self._traces[index]
                    del self._traces[index]
                    return trace
        return None

    def traces(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Stored traces, oldest first, optionally filtered by trace name."""
        with self._lock:
            out = list(self._traces)
        if name is not None:
            out = [trace for trace in out if trace.get("name") == name]
        return out

    def slow_queries(self) -> List[Dict[str, Any]]:
        """Request traces over the slow threshold, oldest first."""
        with self._lock:
            return list(self._slow)

    # -- stats / export ------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "traces_stored": len(self._traces),
                "traces_recorded": self._recorded,
                "slow_queries_stored": len(self._slow),
                "slow_queries_recorded": self._slow_recorded,
            }

    def export_json(self, slow_only: bool = False, indent: Optional[int] = None) -> str:
        """JSON dump of the stored traces (or just the slow-query log)."""
        payload = self.slow_queries() if slow_only else self.traces()
        return json.dumps(payload, indent=indent, default=str)


# ---------------------------------------------------------------------------
# timeline rendering
# ---------------------------------------------------------------------------

#: Attributes surfaced inline on timeline lines (everything else is elided to
#: keep the rendering one line per span).
_TIMELINE_ATTRS = (
    "status",
    "shard",
    "rows",
    "elapsed_ms",
    "matches",
    "steered",
    # Prepared-statement lane: hit = verdict replayed, miss/stale = computed;
    # replayed = the execution too (an ``execute`` span with no operators).
    "prepared",
    "replayed",
    "memo_hits",
    "memo_misses",
    "table",
    "alias",
    "reason",
    "queue_dwell_ms",
    "templates",
    "evicted",
    "version",
    "error",
    # Steering-guard verdicts: the win/loss/baseline judgement, quarantined
    # templates blocked from (or probed into) this request.
    "verdict",
    "blocked",
    "probed",
)


def render_timeline(trace: Dict[str, Any]) -> str:
    """Human-readable span timeline of one finished trace.

    One line per span -- ``[start..end]`` offsets in ms relative to the trace
    root, indentation mirroring the span tree -- followed by the key
    attributes worth reading at a glance.
    """
    spans = trace.get("spans", [])
    children: Dict[Optional[int], List[Dict[str, Any]]] = {}
    by_id = {span["span_id"]: span for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: (span["start_ms"], span["span_id"]))

    header = (
        f"trace {trace.get('trace_id', '?')}"
        f" {trace.get('name', '?')}"
        f" request_id={trace.get('request_id') or '-'}"
        f" duration={trace.get('duration_ms', 0.0):.3f}ms"
    )
    lines = [header]

    def emit(span: Dict[str, Any], depth: int) -> None:
        start = span["start_ms"]
        end = start + span["duration_ms"]
        attrs = span.get("attributes") or {}
        shown = [
            f"{key}={attrs[key]}" for key in _TIMELINE_ATTRS if key in attrs
        ]
        suffix = ("  " + " ".join(shown)) if shown else ""
        lines.append(
            f"  {'  ' * depth}{span['name']:<{max(1, 24 - 2 * depth)}}"
            f" [{start:9.3f}..{end:9.3f}] {span['duration_ms']:9.3f}ms{suffix}"
        )
        for child in children.get(span["span_id"], ()):
            emit(child, depth + 1)

    for root in children.get(None, ()):
        emit(root, 0)
    return "\n".join(lines)
