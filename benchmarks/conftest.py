"""Shared fixtures for the benchmark harness.

Every benchmark runs against a "laptop" configuration of the workloads so the
whole harness (`pytest benchmarks/ --benchmark-only`) completes in minutes.
Scale the :class:`ExperimentSettings` up to approach the paper's setup.

Setting ``GALO_BENCH_TINY=1`` shrinks everything further (CI smoke mode: the
GitHub Actions workflow runs ``bench_exp1`` this way on every PR and uploads
the resulting ``BENCH_exp1.json`` so the perf trajectory is tracked).
"""

from __future__ import annotations

import os
import platform
import subprocess
import time

import numpy
import pytest

from repro.experiments.harness import (
    ExperimentSettings,
    bench_tiny_mode,
    build_bundle,
    learn_bundle,
)

BENCH_SETTINGS = ExperimentSettings(
    scale=0.2,
    tpcds_query_count=24,
    client_query_count=24,
    learning_query_count=8,
    max_joins=3,
    random_plans_per_subquery=4,
    max_variants=2,
)

#: CI smoke configuration: small enough for a per-PR GitHub Actions run.
TINY_SETTINGS = ExperimentSettings(
    scale=0.1,
    tpcds_query_count=8,
    client_query_count=8,
    learning_query_count=2,
    max_joins=2,
    random_plans_per_subquery=2,
    max_variants=1,
)


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    return TINY_SETTINGS if bench_tiny_mode() else BENCH_SETTINGS


def _git_revision() -> str:
    """Short commit SHA of the benched tree ("unknown" outside a checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


#: Provenance stamped into every BENCH_*.json record: comparing qps across
#: commits is only meaningful when the records say what produced them.
BENCH_PROVENANCE = {
    "git_sha": _git_revision(),
    "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    "python_version": platform.python_version(),
    "numpy_version": numpy.__version__,
    "cpu_count": os.cpu_count(),
}


@pytest.fixture(autouse=True)
def record_engine_config(request):
    """Stamp every benchmark's JSON record with run provenance (git SHA,
    timestamp, interpreter/numpy versions, core count), so perf trajectories
    are attributable per commit."""
    yield
    benchmark = request.node.funcargs.get("benchmark") if hasattr(request.node, "funcargs") else None
    if benchmark is None:
        return
    for key, value in BENCH_PROVENANCE.items():
        benchmark.extra_info.setdefault(key, value)


@pytest.fixture(scope="session")
def tpcds_bundle(settings):
    """TPC-DS workload with a knowledge base already learned (shared by benches)."""
    bundle = build_bundle("tpcds", settings)
    learn_bundle(bundle, settings.learning_query_count)
    return bundle


@pytest.fixture(scope="session")
def client_bundle(settings, tpcds_bundle):
    """Client workload sharing the TPC-DS knowledge base (for reuse measurements)."""
    bundle = build_bundle("client", settings, knowledge_base=tpcds_bundle.galo.knowledge_base)
    learn_bundle(bundle, settings.learning_query_count)
    return bundle
