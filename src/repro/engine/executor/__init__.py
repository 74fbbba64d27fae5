"""Plan execution and runtime simulation.

Two engines implement the same ``execute(qgm, memo=None) -> ExecutionResult``
contract and produce bit-identical results (rows, metrics, simulated
``elapsed_ms``, per-operator actual cardinalities):

* :class:`VectorizedExecutor` (default) -- operators exchange column batches
  with position vectors; predicates compile once per plan; every execution
  runs through an :class:`ExecutionMemo` (the caller's, else a private one
  dropped after the call) that shares structurally identical subtrees.
* :class:`Executor` -- the legacy row-at-a-time engine, kept as the
  differential-testing oracle; it ignores ``memo``.

A database picks its engine once, at construction, from ``DbConfig.executor``
(``"vectorized"`` / ``"row"``); :func:`make_executor` builds one directly.
"""

from repro.engine.executor.db2batch import BatchMeasurement, Db2Batch
from repro.engine.executor.executor import ExecutionResult, Executor
from repro.engine.executor.factory import ENGINES, make_executor
from repro.engine.executor.memo import ExecutionMemo, MemoEntry
from repro.engine.executor.metrics import RuntimeMetrics
from repro.engine.executor.vectorized import Batch, VectorizedExecutor

__all__ = [
    "Batch",
    "BatchMeasurement",
    "Db2Batch",
    "ENGINES",
    "ExecutionMemo",
    "ExecutionResult",
    "Executor",
    "MemoEntry",
    "RuntimeMetrics",
    "VectorizedExecutor",
    "make_executor",
]
