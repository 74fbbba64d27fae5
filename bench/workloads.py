"""The untraced runs: end-to-end metrics out.

A run is ``Sizes.rounds`` **replica rounds**.  Each round builds its own
population (database, and for serving the learned KB), warms up, measures one
block of work and verifies it; nothing carries over.  Rounds are therefore
equal work by construction, their set-ups are the ``setup_s`` samples, and
they sample the host over the whole run instead of one contiguous stretch --
this sandbox's effective CPU speed drifts by +-10 % over tens of seconds.
Each round-valued metric is the median of its round values.
"""

from __future__ import annotations

import asyncio
import random
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from repro.service import GaloService

from bench.config import Sizes, scratch_directory
from bench.inputs import (
    WORKLOAD_NAME,
    Population,
    Request,
    build_population,
    build_serving_population,
    distinct_pool,
    requests_digest,
    shuffled_with_marks,
    zipf_block,
)
from bench.serving import (
    Sample,
    Verifier,
    WriteCycle,
    closed_loop,
    latency_stats,
    percentile,
    service_config,
)

#: Per-round values; a run's end-to-end value is the median of its rounds.
#: (Best-of-rounds was tried against this host's slow episodes: over ten
#: seeds it spread wider than the median on half the metrics, 9.7 % against
#: 5.1 % for serve-repeat throughput, so the plain median stayed.)
ROUND_METRICS = (
    "setup_s",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_p95_ms",
    "sim_runtime_ratio",
    "steered_share",
    "kb_templates",
)


def summarize(rounds: Sequence[Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """End-to-end metrics of a run: round medians with min/max, and peak RSS."""
    end_to_end: Dict[str, Dict[str, float]] = {}
    for name in ROUND_METRICS:
        values = [round_[name] for round_ in rounds]
        end_to_end[name] = {
            "value": statistics.median(values),
            "min": min(values),
            "max": max(values),
        }
    end_to_end["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    }
    return end_to_end


def warmup_count(workload: str, sizes: Sizes) -> int:
    # Distinct statements cost ~5x a repeated one; the warm-up only has to
    # bring the memo to its byte cap, not to fill a plan cache.
    return sizes.warmup_requests // 6 if workload == "serve-distinct" else sizes.warmup_requests


def traffic(
    workload: str,
    population: Population,
    sizes: Sizes,
    rng: random.Random,
    blocks: Sequence[int],
) -> Tuple[List[Request], List[bool]]:
    """A serving workload's requests, block after block, and verify marks.

    ``blocks`` are request counts; the first is the warm-up.  Every block has
    a fixed composition and ``rng`` draws only its order, so equal blocks are
    equal work whatever the seed: a zipfian block per :func:`zipf_block`, a
    distinct block the next slice of the pinned statement pool.
    """
    stride = sizes.verify_stride
    requests: List[Request] = []
    marks: List[bool] = []
    if workload == "serve-distinct":
        pool = distinct_pool(sum(blocks), sizes.population_seed)
        for count in blocks:
            block, block_marks = shuffled_with_marks(
                pool[len(requests) : len(requests) + count], rng, stride
            )
            requests += block
            marks += block_marks
        return requests, marks
    statements = population.queries[: sizes.statements]
    # Warm-up: the working set once through, then a block, so every
    # statement's plans and memo entries are resident whatever the order.
    requests = list(statements[: blocks[0]])
    marks = [False] * len(requests)
    for count in (blocks[0] - len(requests), *blocks[1:]):
        block, block_marks = zipf_block(statements, count, rng, stride)
        requests += block
        marks += block_marks
    return requests, marks


async def serve_round(
    workload: str, sizes: Sizes, rng: random.Random, seed: int, directory: Path
) -> Tuple[Dict[str, float], List[Request], List[str]]:
    """One replica round of a serving workload: set up, warm up, measure, verify.

    Returns the round's values, its requests and its verify mismatches --
    nothing that would keep the round's population alive into the next.
    """
    churn = workload == "serve-churn"
    cycles = sizes.churn_cycles if churn else 1
    per_cycle = {
        "serve-repeat": sizes.repeat_requests,
        "serve-distinct": sizes.distinct_requests,
        "serve-churn": sizes.churn_cycle_requests,
    }[workload]
    warmup = warmup_count(workload, sizes)

    setup_started = time.perf_counter()
    population = build_serving_population(sizes)
    requests, marks = traffic(
        workload, population, sizes, rng, [warmup] + [per_cycle] * cycles
    )
    verifier = Verifier(population.galo)
    # The same seed every round: replicas make the same writes.
    write_cycle = WriteCycle(population, sizes, seed, directory) if churn else None
    write_cycle_ms: List[float] = []
    post_churn: List[float] = []
    samples: List[Sample] = []
    async with GaloService(population.galo, service_config()) as service:
        await closed_loop(service, requests[:warmup])
        setup_s = time.perf_counter() - setup_started

        cursor = warmup
        started = time.perf_counter()
        for _ in range(cycles):
            if write_cycle is not None:
                # At quiescence (both clients have their replies), on the
                # driver; the round's wall time includes it.  Every cycle
                # starts with one, so all cycles serve the same recovery.
                write_cycle_ms.append(write_cycle.run()["total"])
            # Churned responses belong to data epochs that are gone by the
            # time anything could check them; none is kept.
            block = slice(cursor, cursor + per_cycle)
            served = await closed_loop(
                service, requests[block], None if churn else marks[block]
            )
            cursor += per_cycle
            if churn:
                post_churn.extend(s.latency_ms for s in served[: sizes.post_churn_window])
            samples.extend(served)
        stats = latency_stats(samples, time.perf_counter() - started)

        reserved = 0
        for sample in samples:
            if sample.response is not None:
                verifier.check(sample.response)
        if churn:
            # What can be checked is the working set on the final epoch: every
            # other statement of it, re-served (the row executor takes ~35 ms
            # a statement, and this runs in every round).
            for name, sql in population.queries[: sizes.statements : 2]:
                verifier.check(await service.submit(sql, query_name=name))
            reserved = verifier.checked
    stats.update(
        setup_s=setup_s,
        failed=stats["attempted"] - stats["ok"] + len(verifier.mismatches),
        attempted=stats["attempted"] + reserved,
        verified=verifier.checked,
        sim_runtime_ratio=verifier.sim_runtime_ratio,
        steered_share=stats["steered"] / stats["ok"] if stats["ok"] else 0.0,
        kb_templates=float(len(population.galo.knowledge_base)),
    )
    if churn:
        stats["write_cycle_ms"] = statistics.median(write_cycle_ms)
        stats["post_churn_p50_ms"] = percentile(sorted(post_churn), 50)
    return stats, requests, verifier.mismatches


def run_serving(workload: str, seed: int, sizes: Sizes) -> Dict:
    """serve-repeat / serve-distinct / serve-churn, untraced."""
    rng = random.Random(seed)
    rounds: List[Dict[str, float]] = []
    served: List[Request] = []
    mismatches: List[str] = []
    with scratch_directory() as directory:
        for index in range(sizes.rounds):
            stats, requests, round_mismatches = asyncio.run(
                serve_round(workload, sizes, rng, seed, directory / f"round{index}")
            )
            rounds.append(stats)
            served += requests
            mismatches += round_mismatches
    return {
        "requests_sha256": requests_digest(served),
        "end_to_end": summarize(rounds),
        "rounds": rounds,
        "attempted": sum(round_["attempted"] for round_ in rounds),
        "failed": sum(round_["failed"] for round_ in rounds),
        "verify": {
            "checked": sum(round_["verified"] for round_ in rounds),
            "mismatches": mismatches,
        },
    }


def template_identity(galo) -> List[tuple]:
    """What a template *is*, without its random uuid4 id."""
    return sorted(
        (template.name, template.problem_signature, template.guideline_xml)
        for template in galo.knowledge_base.all_templates()
    )


def run_learn_sweep(sizes: Sizes) -> Dict:
    """learn-sweep, untraced: each round learns on a fresh database and KB.

    The queries are learned in workload order whatever the seed: the order
    decides what is learned (ten shuffled orders ended with 41..43 templates
    and moved the per-query median by 31 %), so it belongs to the workload,
    not to the draw.  This workload has no random input.
    """
    rounds: List[Dict[str, float]] = []
    identities: List[List[tuple]] = []
    order: List[Request] = []
    for _ in range(sizes.rounds):
        started = time.perf_counter()
        population = build_population(sizes)
        setup_s = time.perf_counter() - started
        order = list(population.queries[: sizes.sweep_queries])
        latencies: List[float] = []
        for name, sql in order:
            started = time.perf_counter()
            population.galo.learn_query(sql, query_name=name, workload_name=WORKLOAD_NAME)
            latencies.append((time.perf_counter() - started) * 1000.0)
        wall = sum(latencies) / 1000.0
        ordered = sorted(latencies)
        reoptimized = population.galo.reoptimize_workload(
            population.queries[: sizes.reoptimize_queries], execute=True
        )
        rounds.append(
            {
                "attempted": len(order),
                "ok": len(order),
                "wall_s": wall,
                "setup_s": setup_s,
                "throughput_per_s": len(order) / wall,
                "latency_p50_ms": percentile(ordered, 50),
                "latency_p95_ms": percentile(ordered, 95),
                "sim_runtime_ratio": sum(r.reoptimized_elapsed_ms for r in reoptimized)
                / sum(r.original_elapsed_ms for r in reoptimized),
                "steered_share": sum(r.was_reoptimized for r in reoptimized)
                / len(reoptimized),
                "kb_templates": float(len(population.galo.knowledge_base)),
            }
        )
        identities.append(template_identity(population.galo))
    differing = [
        f"round {index + 1} learned other templates than round 1"
        for index, identity in enumerate(identities)
        if identity != identities[0]
    ]
    return {
        "requests_sha256": requests_digest(order),
        "end_to_end": summarize(rounds),
        "rounds": rounds,
        "attempted": sizes.rounds * len(order),
        "failed": len(differing),
        "verify": {"checked": len(identities), "mismatches": differing},
    }


def run_untraced(workload: str, seed: int, sizes: Sizes) -> Dict:
    if workload == "learn-sweep":
        return run_learn_sweep(sizes)
    return run_serving(workload, seed, sizes)
