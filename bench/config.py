"""Pinned configuration: sizes, seeds and the declared metric names.

Every count lives here so the pinned run, ``--smoke`` and a ``--seconds``
other than the pinned one differ only by a :class:`Sizes` value.
"""

from __future__ import annotations

import contextlib
import json
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterator, List

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"

#: Seed of the *population*: database contents, the 99 workload queries (and
#: therefore the learned knowledge base) and the pool of generated statements
#: serve-distinct serves.  ``--seed`` draws the *order* in which a fixed
#: composition of that population is requested and the churn row samples --
#: not the population.  Two measurements forced this: a
#: seeded database moved the KB between 26 and 61 templates and qps between
#: 197 and 296 across six seeds (a different system per seed, not noise), and
#: 570 freshly generated statements carry +-7 % sampling noise in their
#: steered share, while the benchmark's contract bounds every end-to-end
#: metric's spread *across seeds*.  ``--population-seed`` varies it by hand.
POPULATION_SEED = 42

#: ``run_seconds`` of BENCHMARK.json; the request counts below are sized so
#: the measured part of a run lasts about this long on the 2-core reference
#: box.  ``--seconds`` scales them linearly (counts, not durations, are
#: fixed, so counters repeat exactly).
PINNED_SECONDS = 10

WORKLOADS = ("serve-repeat", "serve-distinct", "serve-churn", "learn-sweep")

#: Closed loop: this many coroutine clients, each awaiting its reply before
#: sending the next request, against this many serving threads (= nproc).
CLIENTS = 2

#: Plan operators whose self time the traced run reports.
OPERATORS = (
    "TBSCAN", "IXSCAN", "FETCH", "HSJOIN", "MSJOIN", "NLJOIN", "SORT", "FILTER", "GRPBY",
)
FACT_TABLES = ("STORE_SALES", "CATALOG_SALES", "WEB_SALES")


@dataclass(frozen=True)
class Sizes:
    """Every pinned value of a run.  Request counts are per round."""

    population_seed: int = POPULATION_SEED
    scale: float = 0.2
    #: The serving KB is learned over workload queries 1..learned_queries.
    learned_queries: int = 16
    #: serve-repeat / serve-churn working set: workload queries 1..statements.
    statements: int = 48
    #: Replica rounds per untraced run, each with its own set-up.
    rounds: int = 3
    warmup_requests: int = 200
    repeat_requests: int = 900
    distinct_requests: int = 190
    #: serve-churn: cycles per round, requests per cycle, share of each fact
    #: table's rows re-inserted per write cycle, KB capacity enforced.
    churn_cycles: int = 2
    churn_cycle_requests: int = 150
    churn_sample_share: float = 0.02
    kb_capacity: int = 32
    #: learn-sweep: queries 1..sweep_queries per round, in workload order.
    sweep_queries: int = 20
    #: learn-sweep: workload queries re-optimized for the quality metrics.
    reoptimize_queries: int = 99
    #: Every verify_stride-th timed response is checked against the row executor.
    verify_stride: int = 20
    #: Requests after a write cycle that count as the foreground stall.
    post_churn_window: int = 50
    #: Traced run: requests per service round / per hand-wired path round,
    #: and distinct statements the cold probes visit.
    trace_service_requests: int = 400
    trace_path_requests: int = 400
    trace_distinct_requests: int = 120
    probe_statements: int = 30

    def for_seconds(self, seconds: float) -> "Sizes":
        """Scale the request counts from the pinned run length to ``seconds``."""
        factor = seconds / PINNED_SECONDS
        if factor == 1:
            return self

        def scaled(count: int) -> int:
            return max(4, round(count * factor))

        return replace(
            self,
            warmup_requests=scaled(self.warmup_requests),
            repeat_requests=scaled(self.repeat_requests),
            distinct_requests=scaled(self.distinct_requests),
            churn_cycle_requests=scaled(self.churn_cycle_requests),
            sweep_queries=min(64, scaled(self.sweep_queries)),
            trace_service_requests=scaled(self.trace_service_requests),
            trace_path_requests=scaled(self.trace_path_requests),
            trace_distinct_requests=scaled(self.trace_distinct_requests),
        )


PINNED = Sizes()

#: ``--smoke``: the sizes the tier-1 smoke test runs -- twelve runs (four
#: workloads, untraced twice and traced once) in under 20 s.
SMOKE = Sizes(
    scale=0.1,
    learned_queries=3,
    statements=12,
    rounds=1,
    warmup_requests=16,
    repeat_requests=60,
    distinct_requests=20,
    churn_cycles=1,
    churn_cycle_requests=40,
    kb_capacity=16,
    sweep_queries=3,
    reoptimize_queries=12,
    verify_stride=10,
    post_churn_window=10,
    trace_service_requests=20,
    trace_path_requests=20,
    trace_distinct_requests=16,
    probe_statements=3,
)


def load_declaration() -> Dict[str, object]:
    """BENCHMARK.json, the single declaration of workloads and metrics."""
    return json.loads(BENCHMARK_JSON.read_text())


def declared_metrics(kind: str) -> List[Dict[str, object]]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    return list(load_declaration()[kind])


@contextlib.contextmanager
def scratch_directory() -> Iterator[Path]:
    """A temporary directory inside the checkout (the benchmark writes nowhere else)."""
    parent = REPO_ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=parent) as directory:
        yield Path(directory)
    with contextlib.suppress(OSError):
        parent.rmdir()
