"""Runtime metrics collected during plan execution.

These are the same resource measures the paper's ranking module uses as tie
breakers: elapsed time, buffer pool logical/physical reads, CPU work, and the
sort-heap high-water mark.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.executor.bufferpool import BufferPool
from repro.engine.plan.physical import PopType, Qgm
from repro.errors import PlanBudgetExceeded
from repro.obs.tracing import current_execution_span

#: Runtime-simulation constants (simulated milliseconds), calibrated apart
#: from the optimizer's ``OPT_*`` family in
#: :mod:`repro.engine.optimizer.costmodel` -- the gap between the two is what
#: makes the optimizer's choices wrong in the ways GALO learns to fix.
#: Per page read sequentially / at random, and per row of CPU work:
RUN_SEQ_PAGE_COST = 0.08
RUN_RAND_PAGE_COST = 0.55
RUN_CPU_ROW_COST = 0.0011
#: Per row sorted, hashed into a build side, and probed:
RUN_SORT_ROW_COST = 0.0035
RUN_HASH_BUILD_ROW_COST = 0.0022
RUN_HASH_PROBE_ROW_COST = 0.0012
#: Per page spilled to temp by sorts / hash joins.
RUN_SPILL_PAGE_COST = 0.9


@dataclass
class RuntimeMetrics:
    """Aggregated runtime counters for one plan execution."""

    rows_processed: int = 0
    rows_returned: int = 0
    logical_reads: int = 0
    physical_reads: int = 0
    sequential_pages: int = 0
    random_pages: int = 0
    sort_rows: int = 0
    spill_pages: int = 0
    hash_build_rows: int = 0
    hash_probe_rows: int = 0
    bloom_filtered_rows: int = 0
    index_lookups: int = 0
    cpu_operations: int = 0
    sort_heap_high_water_mark: int = 0
    #: Simulated-time budget of this one execution (None = run to the end).
    #: Not a counter: it rides here because the metrics object is the one
    #: piece of state every operator handler already receives and that no two
    #: executions share (the executor itself is shared by every caller).
    budget: Optional["ExecutionBudget"] = field(default=None, compare=False, repr=False)
    #: Operator id -> rows the operator produced in this execution.  Not a
    #: counter either, and here for the same reason: plans are read-only and
    #: shared by every execution, so what a run observes is recorded per run.
    actual_cardinalities: Dict[int, int] = field(
        default_factory=dict, compare=False, repr=False
    )

    def merge(self, other: "RuntimeMetrics") -> None:
        """Accumulate another metrics object into this one."""
        for name in METRIC_DELTA_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.sort_heap_high_water_mark = max(
            self.sort_heap_high_water_mark, other.sort_heap_high_water_mark
        )

    def elapsed_ms(
        self, physical_reads: Optional[int] = None, pending_bloom_rows: int = 0
    ) -> float:
        """Simulated elapsed milliseconds from the runtime cost constants.

        The two optional arguments turn the same formula into a lower bound
        on the finished plan's time while the plan is still running (see
        :class:`ExecutionBudget`): ``physical_reads`` overrides the counter
        of that name, which lives on the buffer pool until the end, and
        ``pending_bloom_rows`` is granted the bloom-filter rebate up front.
        """
        if physical_reads is None:
            physical_reads = self.physical_reads
        io_time = (
            self.sequential_pages * RUN_SEQ_PAGE_COST
            + self.random_pages * RUN_RAND_PAGE_COST
            + physical_reads * RUN_RAND_PAGE_COST * 0.1
        )
        cpu_time = (
            self.cpu_operations * RUN_CPU_ROW_COST
            + self.rows_processed * RUN_CPU_ROW_COST
            + self.hash_build_rows * RUN_HASH_BUILD_ROW_COST
            + self.hash_probe_rows * RUN_HASH_PROBE_ROW_COST
            - (self.bloom_filtered_rows + pending_bloom_rows)
            * RUN_HASH_PROBE_ROW_COST
            * 0.6
        )
        sort_time = (
            self.sort_rows * RUN_SORT_ROW_COST
            + self.spill_pages * RUN_SPILL_PAGE_COST
        )
        lookup_time = self.index_lookups * RUN_RAND_PAGE_COST * 0.05
        return max(0.0, io_time + cpu_time + sort_time + lookup_time)

    def as_dict(self) -> Dict[str, float]:
        return {
            name: getattr(self, name)
            for name in METRIC_DELTA_FIELDS + ("sort_heap_high_water_mark",)
        }


#: Summable counter fields, in declaration order.  ``sort_heap_high_water_mark``
#: is a running max, not a sum, so its delta is meaningless and excluded;
#: ``budget`` and ``actual_cardinalities`` are not counters at all.
METRIC_DELTA_FIELDS: Tuple[str, ...] = tuple(
    name
    for name in RuntimeMetrics.__dataclass_fields__
    if name not in ("sort_heap_high_water_mark", "budget", "actual_cardinalities")
)


class ExecutionBudget:
    """Simulated-time limit of one plan execution.

    The executors call :meth:`check` whenever a plan node has finished.  It
    compares a *lower bound* on the finished plan's ``elapsed_ms`` with the
    limit and raises :class:`PlanBudgetExceeded` once the bound is above it,
    so a plan is stopped early only if running it to the end would have
    produced a time above the limit as well.  Checked after the root, the
    bound is the exact time: a budgeted execution raises if and only if the
    plan's ``elapsed_ms`` is above the limit.

    Why a bound and not simply the partial time: every term of
    :meth:`RuntimeMetrics.elapsed_ms` grows with its counter except the
    bloom-filter rebate, which *lowers* the time by 0.6 probe costs for every
    outer row a bloom hash join filters out.  A bloom join filters at most
    its outer input, so each bloom join that has not finished is granted the
    rebate for all of its outer rows in advance; while one of them does not
    know its outer row count yet the rebate is unbounded and nothing is
    decided.  "Finished" is read off the execution's
    :attr:`RuntimeMetrics.actual_cardinalities`, which the executors fill as
    nodes return and the memo for the nodes a hit skips; the plan itself is
    never written.
    """

    __slots__ = ("limit_ms", "_bloom_joins")

    def __init__(self, limit_ms: float, qgm: Qgm):
        self.limit_ms = limit_ms
        #: (join, outer input) operator ids of every bloom hash join.
        self._bloom_joins: List[Tuple[int, int]] = [
            (node.operator_id, node.inputs[0].operator_id)
            for node in qgm.root.walk()
            if node.pop_type is PopType.HSJOIN and node.properties.get("bloom_filter")
        ]

    def check(self, metrics: RuntimeMetrics, pool: BufferPool) -> None:
        """Stop the plan (raise) if it is certain to end above the limit."""
        pending_bloom_rows = 0
        actuals = metrics.actual_cardinalities
        for join_id, outer_id in self._bloom_joins:
            if join_id not in actuals:
                outer_rows = actuals.get(outer_id)
                if outer_rows is None:
                    return
                pending_bloom_rows += outer_rows
        elapsed = metrics.elapsed_ms(pool.physical_reads, pending_bloom_rows)
        if elapsed > self.limit_ms:
            # Under execution tracing, mark the node span being executed.
            span = current_execution_span()
            if span is not None:
                span.set("aborted", True)
                span.set("elapsed_ms", elapsed)
                span.set("budget_ms", self.limit_ms)
            raise PlanBudgetExceeded(elapsed, self.limit_ms)

_snapshot_getter = operator.attrgetter(*METRIC_DELTA_FIELDS)


def snapshot_metrics(metrics: RuntimeMetrics) -> Tuple[float, ...]:
    """Cheap positional snapshot of the summable counters.

    One C-level ``attrgetter`` call instead of a dict build -- this runs
    twice per traced operator node, so it is on the traced hot path.
    """
    return _snapshot_getter(metrics)


def record_node_metric_deltas(span, before, after) -> None:
    """Attach per-subtree :class:`RuntimeMetrics` deltas as span attributes.

    Used by the executors' traced node path: ``before``/``after`` are
    :func:`snapshot_metrics` tuples around one operator subtree.  Only
    nonzero deltas are recorded to keep spans small.
    """
    for name, b, a in zip(METRIC_DELTA_FIELDS, before, after):
        if a != b:
            span.set(name, a - b)
