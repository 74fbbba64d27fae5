"""The pinned benchmark for the learn -> match -> steer loop.

Four workloads (``serve-repeat``, ``serve-distinct``, ``serve-churn``,
``learn-sweep``), end-to-end metrics from untraced runs and per-layer metrics
from traced runs, all measured from outside ``src/`` through public calls.
See ``bench/README.md``; ``BENCHMARK.json`` at the repository root declares
the command, the workloads and every metric.
"""
