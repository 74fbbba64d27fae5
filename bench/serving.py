"""Serving-side machinery: the closed loop, the churn write cycle, the verifier."""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.galo import Galo
from repro.engine.executor.factory import make_executor
from repro.service import GaloService, ServiceConfig
from repro.service.service import ServiceResponse

from bench.config import CLIENTS, FACT_TABLES, Sizes
from bench.inputs import WORKLOAD_NAME, Population, Request


def service_config(tracing: bool = False) -> ServiceConfig:
    """The pinned serving configuration: 2 threads, learner off, guard on."""
    return ServiceConfig(
        max_workers=CLIENTS, learning_enabled=False, tracing_enabled=tracing
    )


def percentile(ordered: Sequence[float], percent: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Sample:
    """One request as the client saw it.

    ``response`` is kept only where ``closed_loop`` was asked to: result rows
    of every request of a round would hold hundreds of MiB.
    """

    latency_ms: float
    ok: bool
    steered: bool
    response: Optional[ServiceResponse] = None


async def closed_loop(
    service: GaloService,
    requests: Sequence[Request],
    keep: Optional[Sequence[bool]] = None,
) -> List[Sample]:
    """Serve ``requests`` from ``CLIENTS`` clients that each wait for their reply.

    Clients pull from one shared iterator, so the request order is the list's
    and only the interleaving of the two in-flight requests varies.  Samples
    are returned in request order; those marked in ``keep`` keep their response.
    """
    samples: List[Optional[Sample]] = [None] * len(requests)
    pending: Iterator[Tuple[int, Request]] = iter(enumerate(requests))

    async def client() -> None:
        for position, (name, sql) in pending:
            started = time.perf_counter()
            response = await service.submit(sql, query_name=name)
            latency_ms = (time.perf_counter() - started) * 1000.0
            kept = response if keep is not None and keep[position] else None
            samples[position] = Sample(latency_ms, response.ok, response.steered, kept)

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return [sample for sample in samples if sample is not None]


def latency_stats(samples: Sequence[Sample], wall_seconds: float) -> Dict[str, float]:
    """Throughput, latency percentiles and outcome counts of one round."""
    ok = [sample for sample in samples if sample.ok]
    ordered = sorted(sample.latency_ms for sample in ok)
    return {
        "attempted": len(samples),
        "ok": len(ok),
        "steered": sum(1 for sample in ok if sample.steered),
        "wall_s": wall_seconds,
        "throughput_per_s": len(ok) / wall_seconds,
        "latency_p50_ms": percentile(ordered, 50) if ordered else math.nan,
        "latency_p95_ms": percentile(ordered, 95) if ordered else math.nan,
        "latency_p99_ms": percentile(ordered, 99) if ordered else math.nan,
    }


class WriteCycle:
    """serve-churn's deterministic write cycle, run on the driver at quiescence.

    Re-inserts a seeded sample of each fact table's own rows, refreshes the
    fact tables' statistics, learns the next unlearned workload query, caps
    the KB, checkpoints it and hot-swaps the checkpoint back in.
    """

    def __init__(
        self, population: Population, sizes: Sizes, seed: int, directory: Path
    ):
        self.population = population
        self.sizes = sizes
        self.rng = random.Random(seed)
        self.directory = directory
        self.next_query = sizes.statements
        self.evicted = 0

    def run(self, learn_query=None) -> Dict[str, float]:
        """One write cycle; returns milliseconds per step plus ``total``.

        ``learn_query(name, sql)`` replaces the plain ``Galo.learn_query``
        call (the traced run passes one that learns under a span).
        """
        galo: Galo = self.population.galo
        database = self.population.database
        steps: Dict[str, float] = {}
        cycle_started = started = time.perf_counter()

        def lap(step: str) -> None:
            nonlocal started
            now = time.perf_counter()
            steps[step] = (now - started) * 1000.0
            started = now

        for table in FACT_TABLES:
            data = database.catalog.table_data(table)
            count = max(1, int(data.row_count * self.sizes.churn_sample_share))
            row_ids = self.rng.sample(range(data.row_count), count)
            database.load_rows(table, list(data.rows(row_ids)))
        lap("load_rows")
        for table in FACT_TABLES:
            database.runstats(table)
        lap("runstats")
        queries = self.population.queries
        name, sql = queries[self.next_query % len(queries)]
        self.next_query += 1
        if learn_query is None:
            galo.learn_query(sql, query_name=name, workload_name=WORKLOAD_NAME)
        else:
            learn_query(name, sql)
        lap("learn_query")
        self.evicted += len(galo.enforce_kb_capacity(self.sizes.kb_capacity))
        lap("enforce_capacity")
        galo.save_knowledge_base(str(self.directory))
        lap("save")
        galo.maybe_reload_knowledge_base(str(self.directory), force=True)
        lap("reload")
        steps["total"] = (time.perf_counter() - cycle_started) * 1000.0
        return steps

    def checkpoint_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.directory.iterdir() if path.is_file())


class Verifier:
    """Checks served responses against the row executor, memo-less.

    For a response, the expected plan is the one ``MatchingEngine.steer``
    returns for the statement on the current KB, restricted to the templates
    the response says it used (so a guard block or probe is checked against
    the plan it actually ran).  Rows (with dict key order) and ``elapsed_ms``
    must be equal, exactly.  Also sums the simulated runtime of the chosen
    plan and of the optimizer's plan for ``sim_runtime_ratio``.
    """

    def __init__(self, galo: Galo):
        self.galo = galo
        database = galo.database
        self.row_executor = make_executor(
            database.catalog, database.config.with_overrides(executor="row")
        )
        self._expected: Dict[Tuple[str, Tuple[str, ...]], Tuple] = {}
        self.checked = 0
        self.mismatches: List[str] = []
        self.chosen_ms = 0.0
        self.baseline_ms = 0.0

    def check(self, response: ServiceResponse) -> None:
        self.checked += 1
        if not response.ok:
            self.mismatches.append(f"{response.query_name}: {response.status}")
            return
        key = (response.sql, tuple(response.matched_template_ids))
        expected = self._expected.get(key)
        if expected is None:
            expected = self._expected[key] = self._execute_expected(response)
        template_ids, steered, rows, elapsed_ms, baseline_ms = expected
        served_rows = [tuple(row.items()) for row in response.rows]
        if (
            template_ids != list(response.matched_template_ids)
            or steered != response.steered
            or rows != served_rows
            or elapsed_ms != response.elapsed_ms
        ):
            self.mismatches.append(response.query_name)
        self.chosen_ms += response.elapsed_ms
        self.baseline_ms += baseline_ms

    def _execute_expected(self, response: ServiceResponse) -> Tuple:
        used = set(response.matched_template_ids)
        decision = self.galo.matching_engine.steer(
            response.sql,
            query_name=response.query_name,
            match_filter=lambda matches: [
                match for match in matches if match.template.template_id in used
            ],
        )
        result = self.row_executor.execute(decision.qgm)
        baseline_ms = result.elapsed_ms
        if decision.steered:
            # Simulated time is engine-independent, so the optimizer's plan
            # may run on the cheaper default engine through the memo.
            baseline_ms = self.galo.database.execute_plan(
                decision.baseline_qgm, memo=self.galo.matching_engine.execution_memo()
            ).elapsed_ms
        return (
            decision.matched_template_ids,
            decision.steered,
            [tuple(row.items()) for row in result.rows],
            result.elapsed_ms,
            baseline_ms,
        )

    @property
    def sim_runtime_ratio(self) -> float:
        return self.chosen_ms / self.baseline_ms if self.baseline_ms else math.nan
