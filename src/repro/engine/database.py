"""High-level engine facade: one object bundling catalog, optimizer and executor.

``Database`` is the public entry point downstream code (and GALO itself) uses:

.. code-block:: python

    db = Database()
    db.create_table(schema)
    db.load_rows("ITEM", rows)
    qgm = db.explain("SELECT ... FROM item, web_sales WHERE ...")
    result = db.execute_sql("SELECT ...")
"""

from __future__ import annotations

import threading
from typing import Iterable, List, Optional, Union

from repro.cache import LruCache

from repro.engine.catalog import Catalog
from repro.engine.config import DbConfig
from repro.engine.executor.db2batch import BatchMeasurement, Db2Batch
from repro.engine.executor.executor import ExecutionResult
from repro.engine.executor.factory import make_executor
from repro.engine.executor.memo import ExecutionMemo
from repro.engine.optimizer.guidelines import GuidelineDocument
from repro.engine.optimizer.optimizer import Optimizer
from repro.obs.tracing import execution_tracing
from repro.engine.optimizer.random_plans import RandomPlanGenerator
from repro.engine.plan.physical import Qgm
from repro.engine.schema import Index, TableSchema
from repro.engine.sql.binder import BoundQuery
from repro.engine.statistics import TableStatistics


class Database:
    """An in-memory database instance: catalog + optimizer + executor."""

    #: Number of optimized plans kept by the explain cache.
    EXPLAIN_CACHE_SIZE = 256
    #: Entry cap for the shared workload-scoped execution memo (per cache).
    WORKLOAD_MEMO_MAX_ENTRIES = 4096
    #: Byte budget for the memo's result entries (estimated payload bytes):
    #: a handful of huge materialized join outputs must not outweigh
    #: thousands of scan entries under the entry-count cap alone.
    WORKLOAD_MEMO_MAX_BYTES = 128 * 1024 * 1024

    def __init__(self, config: Optional[DbConfig] = None, name: str = "GALODB"):
        self.name = name
        # Own a private copy: the catalog and the executor share this one
        # object, and ``set_executor`` mutates it -- copying keeps that
        # mutation from leaking into other Database instances built from the
        # same caller-owned DbConfig.
        self.config = (config or DbConfig()).with_overrides()
        self.catalog = Catalog(self.config)
        self.optimizer = Optimizer(self.catalog)
        self.executor = make_executor(self.catalog, self.config)
        self.random_plan_generator = RandomPlanGenerator(self.catalog)
        # Plan cache for ``explain``: re-optimizing a workload plans every
        # query at least once and matched queries twice, and batch/parallel
        # re-optimization replans recurring statements constantly.  Keyed by
        # (sql, guideline xml, statistics epoch); cleared whenever DDL or
        # statistics change.
        self._explain_cache = LruCache(self.EXPLAIN_CACHE_SIZE)
        # Two invalidation epochs, split by what an event can actually stale:
        # the *storage* epoch moves on DDL and data loads (anything that
        # changes positions, column values or page layouts) and keys the
        # workload execution memo -- entries, gathered aux columns, key
        # groupings are pure functions of storage.  The *statistics*
        # epoch additionally moves on RUNSTATS, which changes only the cost
        # model's inputs: cached plans must go, but ColumnVector typed views,
        # index groupings and every memo payload stay valid and are kept.
        self._storage_epoch = 0
        self._stats_epoch = 0
        self._workload_memo = ExecutionMemo(
            epoch=0,
            max_entries=self.WORKLOAD_MEMO_MAX_ENTRIES,
            max_bytes=self.WORKLOAD_MEMO_MAX_BYTES,
        )
        self._memo_lock = threading.Lock()

    # -- DDL / DML -----------------------------------------------------------

    def create_table(self, schema: TableSchema) -> None:
        self.catalog.create_table(schema)
        self.invalidate_plan_cache()

    def create_index(self, index: Index) -> None:
        self.catalog.create_index(index)
        self.invalidate_plan_cache()

    def load_rows(self, table: str, rows: Iterable[dict]) -> int:
        added = self.catalog.load_rows(table, rows)
        if added:
            self.invalidate_plan_cache()
        return added

    def runstats(self, table: str) -> TableStatistics:
        stats = self.catalog.runstats(table)
        self.invalidate_plan_cache(stats_only=True)
        stats.collected_epoch = self._stats_epoch
        return stats

    def invalidate_plan_cache(self, stats_only: bool = False) -> None:
        """Drop cached plans (called on any DDL / data / statistics change).

        Every invalidation advances the statistics epoch (cached plans embed
        cost estimates, so they go on both kinds of change).  Unless
        ``stats_only`` (RUNSTATS -- it touches nothing in storage), the
        storage epoch advances too, which resets the workload-scoped
        execution memo: cached subtree results are only ever valid against
        the exact table data they were computed from.  A stats-only bump
        deliberately leaves the memo -- and with it the gathered aux columns,
        key groupings and typed views it holds -- untouched.
        """
        self._explain_cache.clear()
        self._stats_epoch += 1
        if not stats_only:
            self._storage_epoch += 1

    @property
    def storage_epoch(self) -> int:
        """Monotonic counter of DDL / data-load events (keys the memo)."""
        return self._storage_epoch

    @property
    def stats_epoch(self) -> int:
        """Monotonic counter of plan-cache invalidations (keys cost caches)."""
        return self._stats_epoch

    def workload_memo(self) -> ExecutionMemo:
        """The shared workload-scoped execution memo, epoch-validated.

        One memo instance serves every plan evaluation against this database
        -- all ``learn_query`` calls of a workload sweep, the online tier's
        steered-vs-baseline measurements, and the serving layer -- so repeated
        sub-plans are executed once per *storage* epoch, not once per query.
        The memo is reset (under a lock, at most once per epoch change)
        whenever DDL or data loads have bumped :attr:`storage_epoch`; RUNSTATS
        does not reset it -- entries and aux caches are pure functions of
        storage, and statistics only steer the optimizer.  The cold-charge
        accounting rule keeps results bit-identical to memo-less execution,
        so sharing is always safe.
        """
        memo = self._workload_memo
        if memo.epoch != self._storage_epoch:
            with self._memo_lock:
                if memo.epoch != self._storage_epoch:
                    memo.reset(epoch=self._storage_epoch)
        return memo

    @property
    def explain_cache_hits(self) -> int:
        return self._explain_cache.hits

    @property
    def explain_cache_misses(self) -> int:
        return self._explain_cache.misses

    @property
    def tables(self) -> List[str]:
        return self.catalog.table_names

    # -- planning -----------------------------------------------------------

    def bind(self, sql: str) -> BoundQuery:
        return self.optimizer.bind_sql(sql)

    def explain(
        self,
        sql: str,
        guidelines: Union[GuidelineDocument, str, None] = None,
        query_name: str = "",
        bound: Optional[BoundQuery] = None,
    ) -> Qgm:
        """Optimize ``sql`` (optionally with guidelines) and return the QGM.

        ``bound`` is ``sql`` already bound (``Qgm.query`` of an earlier plan
        of the same statement): a miss then plans it without parsing and
        binding the text again.

        Plans are cached per (sql, guidelines) and are read-only: the cache
        keeps the plan it planned and a hit hands out a
        :meth:`~repro.engine.plan.physical.Qgm.renamed` view of it, no copy.
        The key carries the statistics epoch read before optimizing: a plan
        computed while RUNSTATS (or DDL, or a load) went by is stored under
        the epoch it started in, where no later call looks, instead of being
        put back after the invalidation cleared the cache.
        """
        key = (sql, _guideline_cache_key(guidelines), self._stats_epoch)
        cached = self._explain_cache.get(key)
        if cached is not None:
            return cached.renamed(query_name)
        qgm = self.optimizer.optimize(
            bound if bound is not None else self.bind(sql),
            guidelines=guidelines,
            query_name=query_name,
        )
        self._explain_cache.put(key, qgm)
        return qgm

    def random_plans(self, sql: str, count: int, query_name: str = "") -> List[Qgm]:
        """Generate random alternative plans via the Random Plan Generator."""
        query = self.bind(sql)
        return self.random_plan_generator.generate(query, count, query_name=query_name)

    # -- execution ------------------------------------------------------------

    def set_executor(self, engine: str) -> None:
        """Switch the execution engine (``"vectorized"`` or ``"row"``).

        Both engines are result- and charge-identical; the row engine exists
        as the differential-testing oracle and for perf baselines.  The
        database owns its config (copied at construction), so mutating the
        engine field here stays consistent across every component that
        shares it (``catalog.config``, default ``Db2Batch`` construction)
        without affecting other Database instances.
        """
        # Validate before mutating, so an unknown engine leaves state intact.
        make_executor(self.catalog, self.config.with_overrides(executor=engine))
        self.config.executor = engine
        self.executor = make_executor(self.catalog, self.config)

    def execute_plan(
        self,
        qgm: Qgm,
        memo: Optional[ExecutionMemo] = None,
        span=None,
        budget_ms: Optional[float] = None,
    ) -> ExecutionResult:
        """Execute a plan; ``memo`` shares scan subtrees across plans (see
        :mod:`repro.engine.executor.memo`; ignored by the row engine).

        ``span`` (a recording :class:`repro.obs.Span`) activates per-node
        child spans for this execution; tracing only reads runtime state, so
        the result is bit-identical either way.  ``budget_ms`` stops the plan
        with :class:`~repro.errors.PlanBudgetExceeded` as soon as its
        simulated ``elapsed_ms`` is certain to end above it.
        """
        if span is not None and span.recording:
            with execution_tracing(span):
                return self.executor.execute(qgm, memo=memo, budget_ms=budget_ms)
        return self.executor.execute(qgm, memo=memo, budget_ms=budget_ms)

    def execute_sql(
        self,
        sql: str,
        guidelines: Union[GuidelineDocument, str, None] = None,
    ) -> ExecutionResult:
        """Optimize and execute ``sql`` in one call."""
        qgm = self.explain(sql, guidelines=guidelines)
        return self.execute_plan(qgm)

    def benchmark_plan(self, qgm: Qgm, runs: int = 5) -> BatchMeasurement:
        """Benchmark a plan the way the paper uses ``db2batch``."""
        batch = Db2Batch(self.catalog, self.config, runs=runs, executor=self.executor)
        return batch.benchmark(qgm)


def _guideline_cache_key(
    guidelines: Union[GuidelineDocument, str, None]
) -> Optional[str]:
    """Serialize a guideline argument into a stable cache-key component."""
    if guidelines is None:
        return None
    if isinstance(guidelines, str):
        return guidelines
    return guidelines.to_xml()
