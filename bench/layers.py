"""The traced run: per-layer metrics, all taken from outside ``src/``.

Three kinds of measurement (names are ``<module path under src/repro>.<what>``):

* *path spans* -- each request is driven single-threaded through the same
  public calls, in the same order, that ``GaloService._serve_sync`` makes,
  each wrapped in a bench-owned :mod:`repro.obs` span; the execute span is
  handed to ``execute_plan(span=...)`` so operator self time comes from the
  engine's own node spans;
* *cold probes* -- each layer's public function called directly, caches
  bypassed, over the workload's first distinct statements;
* *counters* -- deltas of public statistics around the path round.

The path round runs before anything concurrent, so its counters repeat
exactly from run to run.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence

from repro.core.knowledge_base import (
    KnowledgeBase,
    SegmentProfile,
    abstract_template_from_plan,
)
from repro.core.learning.property_ranges import generate_variants
from repro.core.learning.ranking import rank_measurements
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import join_tree_root
from repro.core.transform.sparql_gen import sparql_for_subplan
from repro.engine.executor.db2batch import Db2Batch
from repro.engine.sql.binder import bind
from repro.engine.sql.parser import parse_select
from repro.obs import Tracer, TraceStore
from repro.rdf.sparql.parser import parse_sparql
from repro.service import GaloService

from bench.config import OPERATORS, Sizes, declared_metrics, scratch_directory
from bench.inputs import (
    WORKLOAD_NAME,
    Population,
    Request,
    build_population,
    build_serving_population,
    first_distinct,
    requests_digest,
)
from bench.serving import (
    WriteCycle,
    closed_loop,
    latency_stats,
    percentile,
    service_config,
)
from bench.workloads import traffic, warmup_count

#: Path span -> the metric its mean duration is reported as.
PATH_SPANS = {
    "explain": "engine.database.explain_ms",
    "match_plan": "core.matching.match_plan_ms",
    "build_guidelines": "core.matching.build_guidelines_ms",
    "explain_guided": "engine.database.explain_guided_ms",
    "execute": "engine.executor.execute_ms",
    "rows": "engine.executor.rows_ms",
    "feedback": "service.feedback_ms",
}
LEARNING_PHASES = ("bind", "generate_subqueries", "validate_parent", "analyze_subquery")
SERVICE_STAGES = ("queue_wait", "plan", "match", "steer", "execute", "feedback")
WRITE_CYCLE_STEPS = {
    "load_rows": "engine.storage.load_rows_ms",
    "runstats": "engine.statistics.runstats_ms",
    "enforce_capacity": "core.knowledge_base.enforce_capacity_ms",
    "save": "core.knowledge_base.save_ms",
    "reload": "core.knowledge_base.reload_ms",
}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Recorder:
    """Sums and call counts of named timings; a metric is their mean."""

    def __init__(self) -> None:
        self.total_ms: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def add(self, name: str, milliseconds: float) -> None:
        self.total_ms[name] += milliseconds
        self.calls[name] += 1

    @contextlib.contextmanager
    def time(self, name: str) -> Iterator[None]:
        started = time.perf_counter()
        yield
        self.add(name, (time.perf_counter() - started) * 1000.0)

    def mean(self, name: str) -> float:
        return ratio(self.total_ms[name], self.calls[name])


class TracedRun:
    """State of one traced run: the population, a recorder, a tracer, counters."""

    def __init__(self, population: Population):
        self.population = population
        self.recorder = Recorder()
        self.counters: Dict[str, float] = defaultdict(float)
        self.store = TraceStore(capacity=4)
        self.tracer = Tracer(self.store)
        #: Never started: it only lends the path the guard, the metrics and
        #: the configuration a real service would have built.
        self.service = GaloService(population.galo, service_config())
        self.path_ms: List[float] = []
        self.match_plan_ms: List[float] = []
        self.span_ms = 0.0

    # -- the hand-wired serve path -------------------------------------------

    def drive_path(self, requests: Sequence[Request], record: bool = True) -> List[float]:
        """Serve ``requests`` one at a time through ``_serve_sync``'s calls.

        Returns each request's wall milliseconds.  With ``record`` the spans
        and the executed plans' runtime counters are folded into the run.
        """
        galo = self.population.galo
        database = self.population.database
        engine = galo.matching_engine
        guard = self.service.guard
        config = self.service.config
        latencies: List[float] = []
        for name, sql in requests:
            root = self.tracer.start_trace("path")
            memo = engine.execution_memo()
            knowledge_base = galo.knowledge_base
            matches = []
            steering = config.steering_enabled and len(knowledge_base)
            with root.child("explain"):
                qgm = database.explain(sql, query_name=name)
            if steering:
                with root.child("match_plan"):
                    matches, _ = engine.match_plan(qgm)
                matched = len(matches)
                if guard is not None:
                    with root.child("guard_screen"):
                        matches = guard.screen(knowledge_base, matches).allowed
                with root.child("build_guidelines"):
                    document = engine.build_guidelines(matches)
                if not document.is_empty:
                    with root.child("explain_guided"):
                        qgm = database.explain(
                            sql, guidelines=document, query_name=f"{name} (steered)"
                        )
                else:
                    matches = []
            with root.child("execute") as execute_span:
                result = database.execute_plan(qgm, memo=memo, span=execute_span)
            with root.child("rows"):
                result.rows
            with root.child("feedback"):
                result.max_q_error(qgm)
            if guard is not None:
                with root.child("guard_observe"):
                    guard.observe(
                        knowledge_base,
                        sql=sql,
                        elapsed_ms=result.elapsed_ms,
                        steered=bool(matches),
                        template_ids=[match.template.template_id for match in matches],
                    )
            root.end()
            trace = self.store.pop(root.trace_id)
            latencies.append(trace["duration_ms"])
            if record:
                self._fold_path_trace(trace)
                if steering:
                    self.counters["segments_matched"] += matched
                metrics = result.metrics
                self.counters["rows_returned"] += metrics.rows_returned
                self.counters["logical_reads"] += metrics.logical_reads
                self.counters["physical_reads"] += metrics.physical_reads
        return latencies

    def _fold_path_trace(self, trace: Dict) -> None:
        root_id = trace["root_span_id"]
        spans = trace["spans"]
        child_ms: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent_id"] is not None:
                child_ms[span["parent_id"]] += span["duration_ms"]
        guard_ms = 0.0
        for span in spans:
            name = span["name"]
            if span["parent_id"] == root_id:
                self.span_ms += span["duration_ms"]
                if name in PATH_SPANS:
                    self.recorder.add(PATH_SPANS[name], span["duration_ms"])
                    if name == "match_plan":
                        self.match_plan_ms.append(span["duration_ms"])
                else:
                    guard_ms += span["duration_ms"]
            elif name.upper() in OPERATORS:
                # Self time: the node's span minus what its input nodes took.
                self.recorder.add(
                    f"engine.executor.op.{name.upper()}_ms",
                    span["duration_ms"] - child_ms[span["span_id"]],
                )
        self.recorder.add("service.guard_ms", guard_ms)
        self.path_ms.append(trace["duration_ms"])

    @contextlib.contextmanager
    def counting(self, read: Callable[[], Dict[str, float]]) -> Iterator[None]:
        """Accumulate the deltas of the statistics ``read`` returns."""
        before = read()
        yield
        for name, value in read().items():
            self.counters[name] += value - before[name]

    def engine_statistics(self) -> Dict[str, float]:
        """Cumulative for the life of the database: read around the whole round."""
        database = self.population.database
        engine = self.population.galo.matching_engine
        memo = database.workload_memo().stats()
        return {
            "explain_hits": database.explain_cache_hits,
            "explain_misses": database.explain_cache_misses,
            "sparql_hits": engine.sparql_cache_hits,
            "sparql_misses": engine.sparql_cache_misses,
            "memo_hits": memo["hits"],
            "memo_misses": memo["misses"],
            "memo_byte_evictions": memo["byte_evictions"],
            "memo_resets": memo["resets"],
        }

    def kb_statistics(self) -> Dict[str, float]:
        """Restart at zero with every hot-swapped KB: read around one stretch."""
        match_stats = dict(self.population.galo.knowledge_base.match_stats)
        return {
            "kb_queries": match_stats["queries"],
            "kb_candidates": match_stats["candidates_evaluated"],
            "kb_skipped": match_stats["templates_skipped"],
        }

    # -- learning --------------------------------------------------------------

    def traced_learn(self, name: str, sql: str) -> None:
        """``Galo.learn_query`` under a bench span; folds the phase spans."""
        root = self.tracer.start_trace("learn_query")
        cpu_started = time.process_time()
        record = self.population.galo.learn_query(
            sql, query_name=name, workload_name=WORKLOAD_NAME, span=root
        )
        self.counters["learn_cpu_s"] += time.process_time() - cpu_started
        root.end()
        trace = self.store.pop(root.trace_id)
        self.recorder.add("core.learning.learn_query_ms", trace["duration_ms"])
        for span in trace["spans"]:
            if span["parent_id"] == trace["root_span_id"] and span["name"] in LEARNING_PHASES:
                self.recorder.add(f"core.learning.{span['name']}_ms", span["duration_ms"])
        self.counters["subqueries_analyzed"] += record.analyzed_subquery_count
        self.counters["templates_learned"] += len(record.templates_learned)

    def traced_write_cycle(self, write_cycle: WriteCycle) -> None:
        steps = write_cycle.run(learn_query=self.traced_learn)
        for step, metric in WRITE_CYCLE_STEPS.items():
            self.recorder.add(metric, steps[step])

    # -- cold probes -------------------------------------------------------------

    def cold_probes(self, statements: Sequence[Request]) -> None:
        """Call each layer's public function directly, caches bypassed."""
        galo = self.population.galo
        database = self.population.database
        catalog = database.catalog
        knowledge_base = galo.knowledge_base
        matching = galo.matching_engine.config
        learning = galo.learning_engine.config
        time_ = self.recorder.time
        scratch_kb = KnowledgeBase()
        batch = Db2Batch(
            catalog, database.config, runs=learning.runs_per_plan, executor=database.executor
        )
        for name, sql in statements:
            with time_("engine.sql.parse_ms"):
                statement = parse_select(sql)
            with time_("engine.sql.bind_ms"):
                bound = bind(statement, catalog, sql)
            with time_("engine.optimizer.optimize_ms"):
                qgm = database.optimizer.optimize(bound, query_name=name)
            with time_("core.matching.segment_ms"):
                segments = segment_plan(qgm, matching.max_joins)
            for segment in segments:
                with time_("core.transform.sparql_gen_ms"):
                    generated = sparql_for_subplan(
                        segment,
                        catalog=catalog,
                        check_row_size=matching.check_row_size,
                        cardinality_tolerance=matching.cardinality_tolerance,
                    )
                with time_("rdf.sparql_parse_ms"):
                    parse_sparql(generated.text)
                with time_("core.knowledge_base.index_candidates_ms"):
                    profile = SegmentProfile.from_segment_nodes(
                        list(generated.node_for_variable.values()),
                        generated.cardinality_tolerance,
                    )
                    knowledge_base.index.candidates(profile)
                # The first call parses the text; the timed one finds it cached.
                knowledge_base.match(generated, subplan_root=segment)
                with time_("core.knowledge_base.match_ms"):
                    knowledge_base.match(generated, subplan_root=segment)
            matches, _ = galo.matching_engine.match_plan(qgm)
            document = galo.matching_engine.build_guidelines(matches)
            if not document.is_empty:
                with time_("engine.optimizer.optimize_guided_ms"):
                    database.optimizer.optimize(bound, guidelines=document)
            with time_("engine.optimizer.random_plans_ms"):
                plans = database.random_plan_generator.generate(
                    bound, learning.random_plans_per_subquery
                )
            with time_("engine.executor.execute_cold_ms"):
                database.execute_plan(qgm, memo=None)
            with time_("engine.executor.db2batch_ms"):
                measurement = batch.benchmark(qgm)
            measurements = [measurement] + [batch.benchmark(plan) for plan in plans]
            with time_("core.learning.rank_ms"):
                rank_measurements(measurements)
            with time_("core.learning.generate_variants_ms"):
                generate_variants(catalog, bound, max_variants=learning.max_variants)
            with time_("core.knowledge_base.add_template_ms"):
                abstract_template_from_plan(
                    scratch_kb, join_tree_root(qgm), name=name, catalog=catalog
                )

    # -- the service, for stage timings and tracing overhead ---------------------

    def service_round(self, requests: Sequence[Request], tracing: bool) -> Dict[str, float]:
        """One closed-loop round through a real service; stage means if traced."""

        async def serve() -> Dict[str, float]:
            async with GaloService(self.population.galo, service_config(tracing)) as service:
                started = time.perf_counter()
                samples = await closed_loop(service, requests)
                stats = latency_stats(samples, time.perf_counter() - started)
                if tracing:
                    for stage in SERVICE_STAGES:
                        histogram = service.stage_timings.get(stage)
                        stats[stage] = (
                            ratio(histogram.sum, histogram.count) if histogram else 0.0
                        )
                return stats

        return asyncio.run(serve())


@dataclass
class TracePlan:
    """What a traced run serves, in order."""

    #: learn-sweep only: the queries the traced learning round learns.
    learn_order: List[Request]
    warmup: List[Request]
    #: Path round: one stretch, or one per churn cycle (a write cycle first).
    stretches: List[List[Request]]
    service_untraced: List[Request]
    service_traced: List[Request]
    #: Driven after the probe write cycle, for the foreground stall.
    post: List[Request]
    digest: str


def plan_trace(workload: str, population: Population, sizes: Sizes, seed: int) -> TracePlan:
    if workload == "learn-sweep":
        order = list(population.queries[: sizes.sweep_queries])
        # What the offline tier is for: the workload through the new KB.  A
        # third each for the path and the two service rounds, so all three
        # see statements for the first time and stay comparable.
        served = list(population.queries[: sizes.reoptimize_queries])
        third = len(served) // 3
        return TracePlan(
            learn_order=order,
            warmup=[],
            stretches=[served[:third]],
            service_untraced=served[third : 2 * third],
            service_traced=served[2 * third : 3 * third],
            post=served[: sizes.post_churn_window],
            digest=requests_digest(order + served),
        )
    churn = workload == "serve-churn"
    if workload == "serve-distinct":
        per_stretch = per_service = sizes.trace_distinct_requests
    else:
        per_stretch = sizes.churn_cycle_requests if churn else sizes.trace_path_requests
        per_service = sizes.trace_service_requests
    cycles = sizes.churn_cycles * sizes.rounds if churn else 1
    blocks = [
        warmup_count(workload, sizes),
        *([per_stretch] * cycles),
        per_service,
        per_service,
        0 if churn else sizes.post_churn_window,
    ]
    requests, _ = traffic(workload, population, sizes, random.Random(seed), blocks)
    slices: List[List[Request]] = []
    cursor = 0
    for count in blocks:
        slices.append(requests[cursor : cursor + count])
        cursor += count
    return TracePlan(
        learn_order=[],
        warmup=slices[0],
        stretches=slices[1 : 1 + cycles],
        service_untraced=slices[-3],
        service_traced=slices[-2],
        post=slices[-1],
        digest=requests_digest(requests),
    )


def run_traced(workload: str, seed: int, sizes: Sizes) -> Dict:
    """One traced run of ``workload``; returns the record with ``per_layer``."""
    learn = workload == "learn-sweep"
    churn = workload == "serve-churn"
    population = build_population(sizes) if learn else build_serving_population(sizes)
    plan = plan_trace(workload, population, sizes, seed)
    run = TracedRun(population)
    post_churn: List[float] = []
    with scratch_directory() as directory:
        write_cycle = WriteCycle(population, sizes, seed, directory)
        run.drive_path(plan.warmup, record=False)
        # The engine counters cover the workload's own work: the sweep on
        # learn-sweep, and on every workload the path round with any writes.
        with run.counting(run.engine_statistics):
            for name, sql in plan.learn_order:
                run.traced_learn(name, sql)
            for stretch in plan.stretches:
                if churn:
                    run.traced_write_cycle(write_cycle)
                with run.counting(run.kb_statistics):
                    latencies = run.drive_path(stretch)
                if churn:
                    post_churn.extend(latencies[: sizes.post_churn_window])
        templates = len(population.galo.knowledge_base)
        # The service rounds see the state the path round left (warm caches
        # on serve-repeat); the probes, which disturb it, come after.
        untraced = run.service_round(plan.service_untraced, tracing=False)
        traced = run.service_round(plan.service_traced, tracing=True)
        run.cold_probes(
            first_distinct(
                [request for stretch in plan.stretches for request in stretch],
                sizes.probe_statements,
            )
        )
        if not churn:
            # The other workloads have no writes of their own: one cycle, as
            # a probe of what the storage/statistics/KB write paths cost.
            run.traced_write_cycle(write_cycle)
            post_churn.extend(run.drive_path(plan.post, record=False))
        checkpoint_bytes = write_cycle.checkpoint_bytes()

    counters = run.counters
    # Every declared timing is the mean of what the recorder saw under that
    # name (0 where the workload never reached the code); the rest follow.
    metrics: Dict[str, float] = {
        entry["name"]: run.recorder.mean(entry["name"])
        for entry in declared_metrics("per_layer")
        if entry["unit"] == "ms"
    }
    metrics.update(
        {
            "core.matching.match_plan_p95_ms": (
                percentile(sorted(run.match_plan_ms), 95) if run.match_plan_ms else 0.0
            ),
            "rdf.sparql_eval_ms": (
                metrics["core.knowledge_base.match_ms"]
                - metrics["core.knowledge_base.index_candidates_ms"]
            ),
            "engine.database.explain_cache_hit_ratio": ratio(
                counters["explain_hits"], counters["explain_hits"] + counters["explain_misses"]
            ),
            "core.matching.sparql_cache_hit_ratio": ratio(
                counters["sparql_hits"], counters["sparql_hits"] + counters["sparql_misses"]
            ),
            "engine.executor.memo_hit_ratio": ratio(
                counters["memo_hits"], counters["memo_hits"] + counters["memo_misses"]
            ),
            "engine.executor.memo_byte_evictions": counters["memo_byte_evictions"],
            "engine.executor.memo_resets": counters["memo_resets"],
            "engine.executor.rows_returned": counters["rows_returned"],
            "engine.executor.logical_reads": counters["logical_reads"],
            "engine.executor.bufferpool_hit_ratio": 1.0
            - ratio(counters["physical_reads"], counters["logical_reads"]),
            "core.knowledge_base.templates": float(templates),
            "core.knowledge_base.candidates_per_segment": ratio(
                counters["kb_candidates"], counters["kb_queries"]
            ),
            "core.knowledge_base.index_skip_ratio": ratio(
                counters["kb_skipped"], counters["kb_skipped"] + counters["kb_candidates"]
            ),
            "core.knowledge_base.match_yield": ratio(
                counters["segments_matched"], counters["kb_candidates"]
            ),
            "core.knowledge_base.evicted_templates": float(write_cycle.evicted),
            "core.knowledge_base.checkpoint_bytes": float(checkpoint_bytes),
            "core.learning.subqueries_analyzed": counters["subqueries_analyzed"],
            "core.learning.templates_per_subquery": ratio(
                counters["templates_learned"], counters["subqueries_analyzed"]
            ),
            "core.learning.cpu_s": counters["learn_cpu_s"],
            "service.path_ms": ratio(sum(run.path_ms), len(run.path_ms)),
            "service.path_span_coverage": ratio(run.span_ms, sum(run.path_ms)),
            "service.overhead_ms": untraced["latency_p50_ms"]
            - percentile(sorted(run.path_ms), 50),
            **{f"service.stage.{stage}_ms": traced[stage] for stage in SERVICE_STAGES},
            "service.post_churn_p50_ms": percentile(sorted(post_churn), 50),
            "service.guard.quarantined_templates": float(
                len(population.galo.knowledge_base.quarantined_template_ids())
            ),
            "service.guard.losses": float(
                run.service.metrics.snapshot().get("steering_losses", 0)
            ),
            "obs.untraced_qps": untraced["throughput_per_s"],
            "obs.tracing_overhead_ratio": ratio(
                traced["throughput_per_s"], untraced["throughput_per_s"]
            ),
        }
    )
    return {
        "requests_sha256": plan.digest,
        "per_layer": {name: {"value": value} for name, value in metrics.items()},
        "attempted": len(run.path_ms) + untraced["attempted"] + traced["attempted"],
        "failed": (untraced["attempted"] - untraced["ok"])
        + (traced["attempted"] - traced["ok"]),
        "counts": {
            "path_requests": len(run.path_ms),
            "calls": dict(run.recorder.calls),
            "counters": dict(counters),
            "untraced_service": untraced,
            "traced_service": traced,
        },
    }
