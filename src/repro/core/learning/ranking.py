"""Plan ranking: noise removal via K-means clustering and tie breaking.

Each candidate plan is run several times by ``db2batch``.  Because the samples
are noisy (server / network interference), the paper's ranking module clusters
the elapsed times into two clusters -- *prospective* and *anomaly* -- keeps the
prospective one, and only then compares plans.  Ties are broken on other
resource measures (buffer-pool reads, CPU, sort-heap high-water mark).

The module also owns the other side of that comparison:
:func:`candidate_cap_ms` is the noise-filtered time above which a candidate
plan cannot change what the ranking decides, so the learning tier can stop
benchmarking it (``Db2Batch.benchmark_within``).  The cap is built from the
same tie tolerance and improvement threshold the ranking applies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.engine.executor.db2batch import BatchMeasurement

#: Runner-up plans within this relative distance of the best are ties.
TIE_TOLERANCE = 0.02

#: Minimum whole-query improvement a rewrite must show on the workload query
#: it came from to be kept (the learning engine's parent validation).
PARENT_IMPROVEMENT_THRESHOLD = 0.05

#: Multiplicative widening applied to learned cardinality bounds.
BOUNDS_WIDENING = 2.0

#: Relative head-room on every bound derived here.  The bounds are compared
#: with times that went through a handful of float operations (noise factors,
#: cluster means, the improvement ratio); a margin far above one ulp and far
#: below any difference that matters keeps rounding out of the argument.
_MARGIN = 1.0 + 1e-9


def kmeans_two_clusters(
    values: Sequence[float], iterations: int = 25
) -> Tuple[List[int], Tuple[float, float]]:
    """1-D K-means with k=2.

    Returns per-value cluster assignments (0 = lower-mean cluster, the
    *prospective* one; 1 = higher-mean *anomaly* cluster) and the two final
    centroids.  With fewer than two distinct values everything is prospective.
    """
    values = list(values)
    if not values:
        return [], (0.0, 0.0)
    low, high = min(values), max(values)
    if low == high:
        return [0] * len(values), (low, high)
    centroids = [low, high]
    assignments = [0] * len(values)
    for _ in range(iterations):
        new_assignments = [
            0 if abs(value - centroids[0]) <= abs(value - centroids[1]) else 1
            for value in values
        ]
        if new_assignments == assignments and _ > 0:
            break
        assignments = new_assignments
        for cluster in (0, 1):
            members = [value for value, a in zip(values, assignments) if a == cluster]
            if members:
                centroids[cluster] = sum(members) / len(members)
    if centroids[0] > centroids[1]:
        centroids = [centroids[1], centroids[0]]
        assignments = [1 - a for a in assignments]
    return assignments, (centroids[0], centroids[1])


def robust_elapsed_ms(measurement: BatchMeasurement) -> float:
    """Elapsed time after discarding the anomaly cluster of the repeated runs."""
    samples = measurement.run_elapsed_ms
    if len(samples) <= 2:
        return min(samples) if samples else measurement.base_elapsed_ms
    assignments, centroids = kmeans_two_clusters(samples)
    prospective = [s for s, a in zip(samples, assignments) if a == 0]
    # Guard: if the clustering degenerates (everything anomalous), fall back.
    if not prospective:
        prospective = samples
    # Only treat the high cluster as anomalous when it is clearly separated;
    # otherwise the "anomaly" cluster is just the upper half of normal noise.
    if centroids[0] > 0 and centroids[1] / max(centroids[0], 1e-9) < 1.3:
        prospective = samples
    return sum(prospective) / len(prospective)


@dataclass
class RankedPlan:
    """A benchmarked plan with its noise-filtered elapsed time."""

    measurement: BatchMeasurement
    elapsed_ms: float

    @property
    def tie_breaker(self) -> Tuple[float, float, float, float]:
        """Secondary resource measures, compared only on (near-)ties."""
        metrics = self.measurement.metrics
        return (
            float(metrics.logical_reads),
            float(metrics.physical_reads),
            float(metrics.cpu_operations),
            float(metrics.sort_heap_high_water_mark),
        )


def improvement_bound_ms(reference_ms: float, threshold: float) -> float:
    """The time above which a plan does not improve on ``reference_ms`` by the
    relative ``threshold``: ``(reference - t) / reference < threshold``."""
    return (1.0 - threshold) * reference_ms * _MARGIN


def candidate_cap_ms(
    optimizer_ms: float,
    best_candidate_ms: Optional[float],
    improvement_threshold: float,
    tie_tolerance: float = TIE_TOLERANCE,
) -> float:
    """Noise-filtered time above which one more candidate cannot matter.

    ``optimizer_ms`` is the optimizer plan's noise-filtered time,
    ``best_candidate_ms`` the lowest one among the candidates benchmarked so
    far (None before the first).  A variant is decided by
    :func:`rank_measurements` followed by the improvement test: the first
    ranked plan wins if it is a candidate and improves on the optimizer's
    plan by ``improvement_threshold``.  With ``bound`` the smaller of the
    best candidate time and :func:`improvement_bound_ms` of the optimizer's
    plan, the cap is ``(1 + tie_tolerance) * bound``, and a candidate ``p``
    above it can be dropped from the measurements without changing the
    decision:

    * The cap only falls as candidates complete, so ``p`` is also above the
      cap computed from the final best candidate time ``b``.
    * If ``b`` meets the improvement threshold (give or take rounding), the
      fastest candidate was never above a cap (each cap is at least ``b``),
      so it completed and ``b`` is the best time overall.  ``p`` is above
      ``(1 + tie_tolerance) * b``: it is not first, and it is outside the tie
      window, the only other way into first place.  Taking it out leaves the
      order of the rest alone; if it was the runner-up, the next one is
      further out still.
    * Otherwise every candidate misses the threshold by more than rounding,
      so whichever plan ends up first the variant yields nothing -- with
      ``p`` and without it.
    * "Give or take rounding" is what ``_MARGIN`` pays for: both bounds sit
      a hair above the exact values, so a best time within float error of
      the threshold still falls under the first argument.
    """
    bound = improvement_bound_ms(optimizer_ms, improvement_threshold)
    if best_candidate_ms is not None:
        bound = min(bound, best_candidate_ms * _MARGIN)
    return (1.0 + tie_tolerance) * bound


def rank_measurements(
    measurements: Sequence[BatchMeasurement], tie_tolerance: float = TIE_TOLERANCE
) -> List[RankedPlan]:
    """Rank plans by noise-filtered elapsed time (resource usage breaks ties)."""
    ranked = [
        RankedPlan(measurement=m, elapsed_ms=robust_elapsed_ms(m)) for m in measurements
    ]

    def sort_key(plan: RankedPlan) -> Tuple[float, Tuple[float, float, float, float]]:
        return (plan.elapsed_ms, plan.tie_breaker)

    ranked.sort(key=sort_key)
    if len(ranked) >= 2:
        best, runner_up = ranked[0], ranked[1]
        if best.elapsed_ms > 0:
            gap = abs(runner_up.elapsed_ms - best.elapsed_ms) / best.elapsed_ms
            if gap <= tie_tolerance and runner_up.tie_breaker < best.tie_breaker:
                ranked[0], ranked[1] = runner_up, best
    return ranked
