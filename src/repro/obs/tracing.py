"""Tracer / Span: monotonic-clock request tracing with explicit propagation.

A :class:`Tracer` opens *traces* (one per served request, background learning
task, ...); each trace is a tree of :class:`Span` objects timed
on ``time.perf_counter()``.  Finished traces land in the tracer's
:class:`~repro.obs.store.TraceStore` as plain JSON-able dicts.

Enabling is a config switch (``ServiceConfig.tracing_enabled``; a traced
request also gets executor-level node spans); the default is the :data:`NULL_TRACER`, whose spans are one shared no-op
singleton -- instrumentation sites never branch on "is tracing on", they just
talk to whatever span they were handed.

Propagation is explicit: spans travel as function arguments (a service's
requests and its learner share the event-loop thread).  A trace never leaves
the process that opened it.

Inside one synchronous executor call the current node span is tracked in a
thread-local (:func:`current_execution_span` / :class:`execution_tracing`):
the executors' recursive ``_execute_node`` is the single choke point and a
thread-local read there keeps the untraced hot path free of signature
changes and allocations.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.store import TraceStore

#: Environment switch consulted by the config defaults: setting ``GALO_TRACE``
#: to 1/true/yes/on turns tracing on wherever a config left it unset, which is
#: how the CI tracing leg runs the entire tier-1 suite traced.
ENV_SWITCH = "GALO_TRACE"


def env_tracing_default() -> bool:
    """Tracing default from the ``GALO_TRACE`` environment variable."""
    return os.environ.get(ENV_SWITCH, "").strip().lower() in ("1", "true", "yes", "on")


#: Process-wide id sources.  ``itertools.count`` is a C iterator, so ``next``
#: is atomic under the GIL -- spans can be allocated from any thread.
_span_ids = itertools.count(1)
_trace_ids = itertools.count(1)


def _new_trace_id() -> str:
    # The pid prefix keeps ids from two processes apart in a shared log.
    return f"{os.getpid():x}-{next(_trace_ids):x}"


class Span:
    """One timed operation inside a trace.

    Spans are started by :meth:`Tracer.start_trace` (roots) or
    :meth:`Span.child`, carry free-form ``attributes``, and report themselves
    to their trace's buffer on :meth:`end`.  Ending the *root* span finalizes
    the whole trace into the tracer's store.  Spans are context managers; an
    exception escaping the block is recorded as an ``error`` attribute.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "end_time", "attributes", "_trace")

    #: Real spans record; the :data:`NULL_SPAN` singleton reports False so
    #: call sites can skip work that only matters when traced.
    recording = True

    def __init__(
        self,
        name: str,
        trace: "_TraceBuffer",
        parent_id: Optional[int],
        start: Optional[float] = None,
    ):
        self.name = name
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.start = time.perf_counter() if start is None else start
        self.end_time: Optional[float] = None
        self.attributes: Dict[str, Any] = {}
        self._trace = trace

    # -- structure -----------------------------------------------------------

    def child(self, name: str, start: Optional[float] = None) -> "Span":
        """Open a child span (caller must ``end()`` it or use ``with``)."""
        return Span(name, self._trace, self.span_id, start=start)

    def set(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    @property
    def trace_id(self) -> str:
        return self._trace.trace_id

    @property
    def duration_ms(self) -> float:
        if self.end_time is None:
            return 0.0
        return (self.end_time - self.start) * 1000.0

    # -- lifecycle -----------------------------------------------------------

    def end(self, end: Optional[float] = None) -> "Span":
        """Close the span (idempotent); ending the root finalizes the trace."""
        if self.end_time is not None:
            return self
        self.end_time = time.perf_counter() if end is None else end
        self._trace.record(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.end()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, trace={self.trace_id})"


class _NullSpan:
    """Shared no-op span: every operation is free and returns a no-op."""

    __slots__ = ()
    recording = False
    span_id = 0
    parent_id = None
    trace_id = ""
    duration_ms = 0.0
    attributes: Dict[str, Any] = {}

    def child(self, name: str, start: Optional[float] = None) -> "_NullSpan":
        return self

    def set(self, key: str, value: Any) -> None:
        pass

    def end(self, end: Optional[float] = None) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class _TraceBuffer:
    """Collects the finished spans of one in-flight trace."""

    __slots__ = ("trace_id", "name", "request_id", "root", "tracer", "spans")

    def __init__(self, trace_id: str, name: str, request_id: str, tracer: "Tracer"):
        self.trace_id = trace_id
        self.name = name
        self.request_id = request_id
        self.tracer = tracer
        self.root: Optional[Span] = None
        #: Finished span *records* (dicts with absolute perf_counter times,
        #: converted to root-relative offsets at finalization).  Appended as
        #: each span ends; finalization happens strictly after every child
        #: ended (children are lexically scoped inside the request's
        #: lifetime).
        self.spans: List[Dict[str, Any]] = []

    def record(self, span: Span) -> None:
        self.spans.append(
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "_start_abs": span.start,
                "duration_ms": span.duration_ms,
                "attributes": span.attributes,
            }
        )
        if span is self.root:
            self.tracer._finish(self)


class Tracer:
    """Factory for traces; finished traces are published to ``self.store``."""

    enabled = True

    def __init__(self, store: Optional[TraceStore] = None):
        self.store = store if store is not None else TraceStore()

    def start_trace(
        self,
        name: str,
        request_id: str = "",
        attributes: Optional[Mapping[str, Any]] = None,
        start: Optional[float] = None,
    ) -> Span:
        """Open a new trace and return its root span."""
        buffer = _TraceBuffer(_new_trace_id(), name, request_id, self)
        root = Span(name, buffer, None, start=start)
        buffer.root = root
        if attributes:
            root.attributes.update(attributes)
        return root

    # -- finalization --------------------------------------------------------

    def _finish(self, buffer: _TraceBuffer) -> None:
        root = buffer.root
        assert root is not None and root.end_time is not None
        base = root.start
        spans: List[Dict[str, Any]] = []
        for record in buffer.spans:
            record = dict(record)
            record["start_ms"] = (record.pop("_start_abs") - base) * 1000.0
            spans.append(record)
        spans.sort(key=lambda record: (record["start_ms"], record["span_id"]))
        self.store.add(
            {
                "trace_id": buffer.trace_id,
                "name": buffer.name,
                "request_id": buffer.request_id,
                "root_span_id": root.span_id,
                "duration_ms": root.duration_ms,
                "spans": spans,
            }
        )


class _NullTracer:
    """Disabled tracing: every trace root is the shared no-op span."""

    enabled = False
    store: Optional[TraceStore] = None

    def start_trace(
        self,
        name: str,
        request_id: str = "",
        attributes: Optional[Mapping[str, Any]] = None,
        start: Optional[float] = None,
    ) -> _NullSpan:
        return NULL_SPAN


NULL_TRACER = _NullTracer()


# ---------------------------------------------------------------------------
# executor-side context: thread-local current node span
# ---------------------------------------------------------------------------

_exec_local = threading.local()


def current_execution_span() -> Optional[Span]:
    """The active execution span on this thread (None = execution untraced).

    Consulted once per plan node by the executors; a single thread-local read
    is the entire cost of disabled tracing on the execution hot path.
    """
    return getattr(_exec_local, "span", None)


class execution_tracing:
    """Context manager installing ``span`` as this thread's execution span.

    Used by ``Database.execute_plan`` to activate node-level tracing for one
    executor call, and re-entered by the executors themselves so nested node
    spans parent correctly.  Passing a non-recording span (or None) installs
    nothing, keeping the executor untraced.
    """

    __slots__ = ("span", "_previous")

    def __init__(self, span: Optional[Span]):
        self.span = span if (span is not None and span.recording) else None

    def __enter__(self) -> Optional[Span]:
        self._previous = getattr(_exec_local, "span", None)
        _exec_local.span = self.span
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _exec_local.span = self._previous
        return False
