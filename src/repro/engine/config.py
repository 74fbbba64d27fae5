"""Engine configuration: optimizer cost-model knobs and runtime simulation knobs.

The paper's problem patterns all stem from a gap between what the optimizer
*believes* (estimated cardinalities, calibrated cost constants) and what
actually happens at runtime (true cardinalities, true device behaviour,
buffer-pool flooding, sort spills).  We therefore keep **two** parameter sets:

* the ``opt_*`` constants are the ones the cost-based optimizer uses;
* the ``run_*`` constants drive the runtime simulator in the executor.

By default they are deliberately mis-calibrated against each other in the same
directions the paper describes (e.g. the optimizer's sequential transfer rate
is too optimistic relative to random I/O, reproducing the Figure 7 pattern).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass
class DbConfig:
    """Tunable parameters of the engine.

    Attributes
    ----------
    page_size_rows:
        How many rows fit in one storage page (a coarse stand-in for bytes).
    buffer_pool_pages:
        Size of the simulated buffer pool.  Index scans over poorly clustered
        indexes flood this pool and incur repeated physical reads.
    sort_heap_pages:
        Memory available to sorts and hash-join build sides before spilling.
    opt_seq_page_cost / opt_rand_page_cost / opt_cpu_row_cost:
        Optimizer cost-model constants (timerons per page / per row).
    opt_transfer_rate:
        Multiplier on sequential page cost used by the optimizer.  The paper's
        Figure 7 pattern is an overestimated table-scan cost caused by a
        mis-set transfer rate; the default here is > 1 for the same effect.
    run_seq_page_cost / run_rand_page_cost / run_cpu_row_cost:
        Runtime-simulation constants (simulated milliseconds).
    run_spill_page_cost:
        Cost per page spilled to temp by sorts / hash joins at runtime.
    noise_seed / noise_level:
        Parameters of the multiplicative measurement noise added by the
        ``db2batch`` runner (the ranking module must filter this noise out,
        which is what the K-means clustering step in the paper is for).
    """

    page_size_rows: int = 64
    buffer_pool_pages: int = 256
    sort_heap_pages: int = 128

    #: Execution engine: ``"vectorized"`` (column batches + position vectors,
    #: the default) or ``"row"`` (legacy row-at-a-time engine, kept as the
    #: differential-testing oracle).  Both produce bit-identical rows,
    #: runtime metrics and simulated elapsed times; see
    #: :mod:`repro.engine.executor.vectorized`.
    executor: str = "vectorized"

    # --- optimizer cost model (timerons) ---
    opt_seq_page_cost: float = 1.0
    opt_rand_page_cost: float = 4.0
    opt_cpu_row_cost: float = 0.01
    opt_transfer_rate: float = 1.8
    opt_sort_row_cost: float = 0.03
    opt_hash_build_row_cost: float = 0.025
    opt_hash_probe_row_cost: float = 0.012

    # --- runtime simulation (simulated milliseconds) ---
    run_seq_page_cost: float = 0.08
    run_rand_page_cost: float = 0.55
    run_cpu_row_cost: float = 0.0011
    run_sort_row_cost: float = 0.0035
    run_hash_build_row_cost: float = 0.0022
    run_hash_probe_row_cost: float = 0.0012
    run_spill_page_cost: float = 0.9

    noise_seed: int = 7
    noise_level: float = 0.06

    def with_overrides(self, **kwargs: Any) -> "DbConfig":
        """Return a copy of this configuration with ``kwargs`` replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = DbConfig()
