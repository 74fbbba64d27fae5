"""Engine configuration and the storage geometry every engine layer shares.

The paper's problem patterns all stem from a gap between what the optimizer
*believes* (estimated cardinalities, calibrated cost constants) and what
actually happens at runtime (true cardinalities, true device behaviour,
buffer-pool flooding, sort spills).  The two calibrations are fixed parts of
this reproduction and live next to the code that reads them: the optimizer's
``OPT_*`` constants in :mod:`repro.engine.optimizer.costmodel`, the runtime
simulator's ``RUN_*`` constants in :mod:`repro.engine.executor.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

#: How many rows fit in one storage page (a coarse stand-in for bytes).
PAGE_SIZE_ROWS = 64
#: Memory (pages) available to sorts and hash-join build sides before they
#: spill; read by the cost model and by both executors.
SORT_HEAP_PAGES = 128


@dataclass
class DbConfig:
    """Tunable parameters of the engine.

    Attributes
    ----------
    buffer_pool_pages:
        Size of the simulated buffer pool.  Index scans over poorly clustered
        indexes flood this pool and incur repeated physical reads.
    executor:
        Execution engine: ``"vectorized"`` (column batches + position
        vectors, the default) or ``"row"`` (legacy row-at-a-time engine, kept
        as the differential-testing oracle).  Both produce bit-identical rows,
        runtime metrics and simulated elapsed times; see
        :mod:`repro.engine.executor.vectorized`.
    noise_seed:
        Seed of the multiplicative measurement noise added by the
        ``db2batch`` runner (the ranking module must filter this noise out,
        which is what the K-means clustering step in the paper is for).
    """

    buffer_pool_pages: int = 256
    executor: str = "vectorized"
    noise_seed: int = 7

    def with_overrides(self, **kwargs: Any) -> "DbConfig":
        """Return a copy of this configuration with ``kwargs`` replaced."""
        return replace(self, **kwargs)
