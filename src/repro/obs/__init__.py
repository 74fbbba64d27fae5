"""Unified observability layer: tracing, trace storage, histograms, exposition.

Dependency-free (stdlib only) so every layer of the system -- the engine's
executors, the learning engine, the serving tier -- can import it without
cycles.  The design contract, relied on throughout:

* **Disabled tracing is near-free.**  ``NULL_TRACER`` / ``NULL_SPAN`` are
  shared no-op singletons; every instrumentation site works unconditionally
  against them, so the disabled path costs an attribute read and a no-op
  call, never an allocation.
* **Tracing never changes results.**  Spans only *read* runtime state; rows,
  counters and simulated ``elapsed_ms`` are bit-identical with tracing on or
  off (asserted differentially in the test suite).
* **Context propagation is explicit.**  Spans are passed as arguments (a
  service's requests and its learner share the event-loop thread; the tests'
  own threads serve too).  The only implicit state is a thread-local
  *execution* span used inside one synchronous executor call
  (:func:`current_execution_span`).
"""

from repro.obs.histogram import DEFAULT_BOUNDS_MS, Histogram, StageTimings
from repro.obs.prometheus import (
    escape_label_value,
    format_labels,
    format_sample_value,
)
from repro.obs.store import TraceStore, render_timeline
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Span,
    Tracer,
    current_execution_span,
    env_tracing_default,
    execution_tracing,
)

__all__ = [
    "DEFAULT_BOUNDS_MS",
    "Histogram",
    "StageTimings",
    "NULL_SPAN",
    "NULL_TRACER",
    "Span",
    "Tracer",
    "TraceStore",
    "current_execution_span",
    "env_tracing_default",
    "escape_label_value",
    "execution_tracing",
    "format_labels",
    "format_sample_value",
    "render_timeline",
]
