"""The pinned learning sweep learns what it learned before.

``bench``'s ``learn-sweep`` compares its rounds with each other; nothing
compares them with the commit before.  This pins the outcome of one round --
the pinned database, the first twenty workload queries in workload order --
to a digest recorded once: every learned template as (name, problem
signature, guideline), which is how ``bench/workloads.py::template_identity``
identifies one, plus its ``improvement``, i.e. the simulated times the
executors produced for the winning and the optimizer's plan.  An engine
change that moves any plan's simulated time by one bit anywhere it matters
moves the digest.  A PR that means to change what is learned re-records it
and says so.

The same round is the memory gate.  What the workload memo holds after it is
counted by the program, not measured on the host, and repeats exactly: a
change that goes back to storing column copies in join entries fills the
memo's byte budget and evicts (134 194 032 bytes, 342 evictions at 3fe9f60)
and fails here, before any benchmark runs.
"""

import hashlib

import pytest

from bench.config import PINNED
from bench.inputs import WORKLOAD_NAME, build_population

pytestmark = pytest.mark.slow

#: Recorded at 5ee9601 (PR 20's re-anchor), unchanged by the array index.
LEARNED_TEMPLATES = 43
LEARNED_SHA256 = "bd22d419d940a7c0f41d9e376d5a9d4d691f40c219664155f778f4a141308145"

#: Recorded with join entries owning position vectors only: 78 487 712
#: estimated bytes (16.1 MB of positions, the rest trace accounting) and no
#: eviction.  Bounds, not values: a change may shrink either.
MEMO_ENTRY_BYTES_BOUND = 90_000_000
MEMO_BYTE_EVICTIONS_BOUND = 0


def test_pinned_sweep_learns_the_recorded_templates():
    population = build_population(PINNED)
    for name, sql in population.queries[: PINNED.sweep_queries]:
        population.galo.learn_query(sql, query_name=name, workload_name=WORKLOAD_NAME)
    learned = sorted(
        (
            template.name,
            template.problem_signature,
            template.guideline_xml,
            template.improvement,
        )
        for template in population.galo.knowledge_base.all_templates()
    )
    assert len(learned) == LEARNED_TEMPLATES
    assert hashlib.sha256(repr(learned).encode()).hexdigest() == LEARNED_SHA256
    memo = population.database.workload_memo().stats()
    assert memo["entry_bytes"] <= MEMO_ENTRY_BYTES_BOUND
    assert memo["byte_evictions"] <= MEMO_BYTE_EVICTIONS_BOUND
