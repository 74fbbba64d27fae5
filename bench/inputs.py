"""Inputs: the pinned population and the seeded traffic drawn from it.

``src/`` receives only what this module generates: a database, a list of
``(name, sql)`` requests, row samples.  The seed never reaches it.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.galo import Galo
from repro.engine.database import Database
from repro.experiments.harness import ExperimentSettings
from repro.workloads.tpcds import generate_tpcds_queries
from repro.workloads.workload import load_workload

from bench.config import Sizes

Request = Tuple[str, str]

WORKLOAD_NAME = "TPC-DS"

#: Learning / matching knobs of the pinned configuration.
SETTINGS = ExperimentSettings(max_joins=3, random_plans_per_subquery=4, max_variants=2)


@dataclass
class Population:
    """A freshly built database, its 99 workload queries and a GALO over it."""

    database: Database
    queries: List[Request]
    galo: Galo


def build_population(sizes: Sizes) -> Population:
    """Build the database and an empty-KB GALO at the pinned configuration."""
    workload = load_workload("tpcds", scale=sizes.scale, seed=sizes.population_seed)
    galo = Galo(
        workload.database,
        learning_config=SETTINGS.learning_config(),
        matching_config=SETTINGS.matching_config(),
    )
    return Population(workload.database, list(workload.queries), galo)


def build_serving_population(sizes: Sizes) -> Population:
    """The serving workloads' set-up: database plus the offline-learned KB."""
    population = build_population(sizes)
    population.galo.learn(
        population.queries[: sizes.learned_queries], workload_name=WORKLOAD_NAME
    )
    return population


def zipf_block(
    statements: Sequence[Request], count: int, rng: random.Random, stride: int
) -> Tuple[List[Request], List[bool]]:
    """``count`` requests over ``statements`` with share ~ 1/rank, in ``rng``'s order.

    The *composition* is fixed -- statement i appears ``count * (1/i) / H``
    times, rounded by largest remainder -- and only the order is drawn, so
    every seed serves the same multiset and equal blocks cost the same.
    (Independent draws moved the count of each expensive rank-30 statement
    by ~20 % and qps by ~8 % from seed to seed.)  The marks pick every
    ``stride``-th request of the rank-ordered block, before the shuffle:
    a sample with the block's own composition, again whatever the seed.
    """
    weights = [1.0 / rank for rank in range(1, len(statements) + 1)]
    total = sum(weights)
    exact = [count * weight / total for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(len(statements)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: count - sum(counts)]:
        counts[i] += 1
    block = [statement for statement, n in zip(statements, counts) for _ in range(n)]
    return shuffled_with_marks(block, rng, stride)


def distinct_pool(count: int, population_seed: int) -> List[Request]:
    """``count`` generated statements, every SQL text different from the others."""
    seen = set()
    out: List[Request] = []
    batch = 0
    while len(out) < count:
        # Each batch is its own generator stream, so the pool depends only on
        # (count, seed); ~6 % of generated texts repeat and are dropped.
        generated = generate_tpcds_queries(
            count=count + 64, seed=population_seed + 1000 + 7919 * batch
        )
        for position, (_, sql) in enumerate(generated):
            if sql not in seen:
                seen.add(sql)
                out.append((f"d{batch}-{position}", sql))
                if len(out) == count:
                    break
        batch += 1
    return out


def shuffled_with_marks(
    block: Sequence[Request], rng: random.Random, stride: int
) -> Tuple[List[Request], List[bool]]:
    """``block`` in ``rng``'s order; the marks pick every ``stride``-th of the
    block as it was given, so the marked sample is the same for every seed."""
    pairs = [(request, position % stride == 0) for position, request in enumerate(block)]
    rng.shuffle(pairs)
    return [request for request, _ in pairs], [mark for _, mark in pairs]


def first_distinct(requests: Sequence[Request], limit: int) -> List[Request]:
    """The first ``limit`` distinct statements of ``requests``, in order."""
    seen = set()
    out: List[Request] = []
    for name, sql in requests:
        if sql not in seen:
            seen.add(sql)
            out.append((name, sql))
            if len(out) == limit:
                break
    return out


def requests_digest(requests: Sequence[Request]) -> str:
    """sha256 over the request list, so two runs can prove equal inputs."""
    digest = hashlib.sha256()
    for name, sql in requests:
        digest.update(name.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(sql.encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()
