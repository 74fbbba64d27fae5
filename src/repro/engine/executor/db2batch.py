"""`db2batch`-style benchmarking of plans.

The paper obtains runtime statistics by executing candidate QGMs several times
via DB2's ``db2batch`` utility; repeated runs are needed because measurements
are noisy (server and network load).  This module reproduces that workflow:
the plan executes once, and each run's simulated elapsed time is that base
perturbed by deterministic multiplicative noise (seeded per plan and run), and
occasionally by a large "interference" spike, so the ranking module's K-means
outlier removal has real work to do.

Benchmarking under a cap
------------------------
The learning tier keeps one plan per variant, so most candidates only have to
be shown to lose.  :meth:`Db2Batch.benchmark_within` takes the elapsed time
above which a plan can no longer matter (``cap_ms``, owned by
:func:`repro.core.learning.ranking.candidate_cap_ms`).  The noise factors
depend on the plan's seed alone, not on the measured base, so they are drawn
*before* the plan runs, and the plan executes under the simulated-time budget
``cap_ms / min(factor)``: a base above that budget puts every one of the
``runs`` samples -- and therefore any mean the ranking can form from a subset
of them -- above ``cap_ms``.  The executor stops such a plan as soon as its
partial time settles the question (see
:class:`repro.engine.executor.metrics.ExecutionBudget`) and no measurement is
returned.  A plan that stays within the budget yields exactly the measurement
:meth:`Db2Batch.benchmark` would have produced.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.engine.catalog import Catalog
from repro.engine.config import DbConfig
from repro.engine.executor.executor import ExecutionResult
from repro.engine.executor.factory import make_executor
from repro.engine.executor.memo import ExecutionMemo
from repro.engine.executor.metrics import RuntimeMetrics
from repro.engine.plan.physical import Qgm
from repro.errors import PlanBudgetExceeded

#: Standard deviation of the multiplicative per-run noise.
NOISE_LEVEL = 0.06


@dataclass
class BatchMeasurement:
    """One benchmarked plan: the clean execution plus noisy per-run timings."""

    qgm: Qgm
    base_elapsed_ms: float
    run_elapsed_ms: List[float]
    metrics: RuntimeMetrics
    result: ExecutionResult

    @property
    def median_elapsed_ms(self) -> float:
        ordered = sorted(self.run_elapsed_ms)
        middle = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2.0


class Db2Batch:
    """Runs a plan multiple times and reports noisy elapsed-time samples."""

    def __init__(
        self,
        catalog: Catalog,
        config: Optional[DbConfig] = None,
        runs: int = 5,
        interference_probability: float = 0.12,
        interference_factor: float = 2.5,
        executor: Any = None,
    ):
        self.catalog = catalog
        self.config = config or catalog.config
        self.executor = executor or make_executor(catalog, self.config)
        self.runs = max(1, runs)
        self.interference_probability = interference_probability
        self.interference_factor = interference_factor

    def benchmark(self, qgm: Qgm, memo: Optional[ExecutionMemo] = None) -> BatchMeasurement:
        """Execute ``qgm`` once for real, then derive noisy per-run timings.

        ``memo`` (vectorized engine only) shares structurally identical scan
        subtrees across the candidate plans of one learning sweep; charges are
        replayed cold, so the measurement is identical with or without it.
        """
        result = self.executor.execute(qgm, memo=memo)
        return self._measurement(qgm, result, self.noise_factors(qgm))

    def benchmark_within(
        self, qgm: Qgm, cap_ms: float, memo: Optional[ExecutionMemo] = None
    ) -> Optional[BatchMeasurement]:
        """:meth:`benchmark`, or None if every sample would be above ``cap_ms``.

        The plan stops executing once that is certain (module docstring); an
        interrupted plan leaves only completed subtrees in ``memo``.
        """
        factors = self.noise_factors(qgm)
        smallest = min(
            scale * self.interference_factor if spiked else scale
            for scale, spiked in factors
        )
        budget_ms = cap_ms / smallest
        try:
            result = self.executor.execute(qgm, memo=memo, budget_ms=budget_ms)
        except PlanBudgetExceeded:
            return None
        return self._measurement(qgm, result, factors)

    def noise_factors(self, qgm: Qgm) -> List[Tuple[float, bool]]:
        """Per run: the noise multiplier and whether an interference spike
        hits it.  Seeded by the plan alone, so known before the plan runs."""
        rng = random.Random(self._seed_for(qgm))
        factors = []
        for _ in range(self.runs):
            scale = max(0.5, 1.0 + rng.gauss(0.0, NOISE_LEVEL))
            factors.append((scale, rng.random() < self.interference_probability))
        return factors

    def _measurement(
        self, qgm: Qgm, result: ExecutionResult, factors: List[Tuple[float, bool]]
    ) -> BatchMeasurement:
        base = result.elapsed_ms
        samples = []
        for scale, spiked in factors:
            sample = base * scale
            if spiked:
                sample *= self.interference_factor
            samples.append(sample)
        return BatchMeasurement(
            qgm=qgm,
            base_elapsed_ms=base,
            run_elapsed_ms=samples,
            metrics=result.metrics,
            result=result,
        )

    def _seed_for(self, qgm: Qgm) -> int:
        text = (qgm.sql or "") + "|" + qgm.shape_signature() + "|".join(qgm.aliases())
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return (int(digest[:8], 16) ^ self.config.noise_seed) & 0x7FFFFFFF
