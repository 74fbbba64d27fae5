"""Random Plan Generator.

DB2 ships an internal tool that emits random-but-valid alternative plans for a
query; GALO's learning engine benchmarks these against the optimizer's pick to
discover problem patterns.  This module reproduces that facility: random bushy
join trees over the query's join graph, random join methods (including
bloom-filter hash joins), and random access paths, all costed by the same
:class:`PlanBuilder` the optimizer uses so their annotations are comparable.
"""

from __future__ import annotations

import random
import zlib
from typing import List

from repro.engine.catalog import Catalog
from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.optimizer.cardinality import CardinalityEstimator
from repro.engine.optimizer.costmodel import CostModel
from repro.engine.optimizer.rewrite import rewrite_query
from repro.engine.plan.physical import JOIN_TYPES, PlanNode, PopType, Qgm
from repro.engine.sql.binder import BoundQuery
from repro.errors import PlanError


class RandomPlanGenerator:
    """Generates random valid plans for a bound query."""

    def __init__(self, catalog: Catalog, seed: int = 1234):
        self.catalog = catalog
        self.seed = seed

    def generate(self, query: BoundQuery, count: int, query_name: str = "") -> List[Qgm]:
        """Generate up to ``count`` distinct random plans for ``query``."""
        rewritten = rewrite_query(query)
        estimator = CardinalityEstimator(self.catalog, rewritten)
        cost_model = CostModel(self.catalog)
        builder = PlanBuilder(self.catalog, rewritten, estimator, cost_model)
        # The candidate access paths are a pure function of the bound query:
        # built once here, not once per attempt.
        access_paths = [
            builder.candidate_access_paths(alias) for alias in rewritten.aliases
        ]
        # crc32 rather than hash(): str hashes are salted per process
        # (PYTHONHASHSEED), which made the generated plan set -- and therefore
        # what the learning engine discovers -- vary from run to run.
        rng = random.Random(self.seed ^ zlib.crc32(query.sql.encode("utf-8")))

        plans: List[Qgm] = []
        signatures = set()
        attempts = 0
        while len(plans) < count and attempts < count * 10:
            attempts += 1
            try:
                tree = self._random_join_tree(builder, access_paths, rng)
            except PlanError:
                continue
            qgm = Qgm(builder.finish_plan(tree), sql=query.sql, query_name=query_name)
            signature = _plan_signature(qgm)
            if signature in signatures:
                continue
            signatures.add(signature)
            plans.append(qgm)
        return plans

    # ------------------------------------------------------------------

    @staticmethod
    def _random_join_tree(
        builder: PlanBuilder,
        access_paths: List[List[PlanNode]],
        rng: random.Random,
    ) -> PlanNode:
        """Build one random bushy join tree covering every table of the query."""
        # Copied for their operator ids: each plan numbers its own nodes, and
        # an execution records what it observed by operator id, so a leaf
        # instance shared by two plans would carry the other plan's number.
        fragments = [rng.choice(candidates).copy() for candidates in access_paths]
        if not fragments:
            raise PlanError("query has no tables")

        while len(fragments) > 1:
            connectable = []
            for i in range(len(fragments)):
                for j in range(i + 1, len(fragments)):
                    if builder.join_predicates_between(fragments[i], fragments[j]):
                        connectable.append((i, j))
            if not connectable:
                # Disconnected graph: fall back to a cross product.
                i, j = 0, 1
            else:
                i, j = rng.choice(connectable)
            outer, inner = fragments[i], fragments[j]
            if rng.random() < 0.5:
                outer, inner = inner, outer
            join_type = rng.choice(JOIN_TYPES)
            bloom = join_type is PopType.HSJOIN and rng.random() < 0.4
            joined = builder.make_join(join_type, outer, inner, bloom_filter=bloom)
            fragments = [f for k, f in enumerate(fragments) if k not in (i, j)]
            fragments.append(joined)
        return fragments[0]


def _plan_signature(qgm: Qgm) -> str:
    """Structural signature including join order, methods and access paths."""
    parts = []
    for node in qgm.nodes():
        if node.is_scan:
            parts.append(f"{node.display_type}:{node.table_alias}:{node.index_name or ''}")
        elif node.is_join:
            parts.append(
                f"{node.pop_type.value}:{'+'.join(node.aliases())}"
                f":{int(bool(node.properties.get('bloom_filter')))}"
            )
    return "|".join(parts)
