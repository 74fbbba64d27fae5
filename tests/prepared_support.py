"""Shared scaffolding for the prepared-statement lane's tests.

A private mini star-schema system per test (the tests mutate data,
statistics and the knowledge base), a KB seeded so that every workload
statement matches -- some segments by two templates at once, some steering to
a genuinely different plan -- and the comparison key under which
``steer_prepared`` must equal a fresh ``steer()``.
"""

import dataclasses

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.engine import MatchingConfig
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import join_tree_root
from repro.service.workers import build_mini_star_database, mini_star_queries

MAX_JOINS = 3

#: The mini star queries plus one statement nothing in the KB matches.
WORKLOAD = mini_star_queries() + [
    ("q_single", "SELECT i_category FROM item WHERE i_category = 'Music'"),
]


def seed_templates(database, knowledge_base):
    """One template per plan segment of ``WORKLOAD``, plus variety.

    A segment covering its whole query recommends a random alternative plan
    (steering changes the plan); every second segment gets a lower-benefit
    twin, so ``KnowledgeBase.match`` finds two templates for it and credits
    a usage hit to both.  Returns the templates added.
    """
    added = []
    count = 0
    for name, sql in WORKLOAD:
        plan = database.explain(sql, query_name=name)
        alternatives = [
            candidate
            for candidate in database.random_plans(sql, 4, query_name=name)
            if candidate.shape_signature() != plan.shape_signature()
        ]
        for segment in segment_plan(plan, max_joins=MAX_JOINS):
            count += 1
            whole_query = sorted(segment.aliases()) == sorted(plan.aliases())
            recommend = (
                join_tree_root(alternatives[0]) if whole_query and alternatives else None
            )
            added.append(
                abstract_template_from_plan(
                    knowledge_base,
                    segment,
                    name=f"seed{count}",
                    source_workload="prepared-tests",
                    source_query=name,
                    improvement=0.2 + count / 100.0,
                    catalog=database.catalog,
                    recommend_root=recommend,
                )
            )
            if count % 2 == 0:
                added.append(
                    abstract_template_from_plan(
                        knowledge_base,
                        segment,
                        name=f"seed{count}-twin",
                        source_workload="prepared-tests",
                        source_query=name,
                        improvement=0.1,
                        catalog=database.catalog,
                    )
                )
    return added


def build_system(sales_rows=600, seed=0, knowledge_base=None):
    """A ``Galo`` over a private mini database (KB seeded unless given)."""
    database = build_mini_star_database(seed=seed, sales_rows=sales_rows)
    if knowledge_base is None:
        knowledge_base = KnowledgeBase()
        seed_templates(database, knowledge_base)
    return Galo(
        database, knowledge_base, matching_config=MatchingConfig(max_joins=MAX_JOINS)
    )


def plan_key(qgm):
    return (qgm.query_name, qgm.shape_signature(), tuple(qgm.aliases()))


def decision_key(database, decision):
    """Everything deterministic about a steering decision and its execution."""
    result = database.execute_plan(decision.qgm)
    return (
        decision.matched_template_ids,
        decision.steered,
        decision.guideline_document.to_xml(),
        plan_key(decision.baseline_qgm),
        plan_key(decision.qgm),
        [tuple(row.items()) for row in result.rows],
        result.elapsed_ms,
    )


def assert_lane_equals_oracle(galo, statements=WORKLOAD, match_filter=None):
    """``steer_prepared`` == a fresh ``steer()`` for every statement, now."""
    engine = galo.matching_engine
    outcomes = []
    for name, sql in statements:
        served = engine.steer_prepared(sql, query_name=name, match_filter=match_filter)
        oracle = engine.steer(sql, query_name=name, match_filter=match_filter)
        assert decision_key(galo.database, served) == decision_key(
            galo.database, oracle
        ), f"{name}: lane ({served.prepared}) differs from steer()"
        outcomes.append(served.prepared)
    return outcomes


def usage_snapshot(knowledge_base):
    """(hits, last-used tick) of every template, plus the eviction order."""
    return (
        {
            template_id: (
                knowledge_base.template_usage(template_id).hits,
                knowledge_base.template_usage(template_id).last_used_tick,
            )
            for template_id in sorted(knowledge_base.templates)
        },
        knowledge_base.eviction_order(),
    )


def plan_snapshot(qgm):
    """Everything a plan is made of, node by node in pre-order.

    Each node contributes its identity, its input count, every dataclass
    field and a copy of its properties, so replacing, renumbering or
    annotating a node changes the snapshot.  The caches the executor keeps
    on a node (memo keys, the row constructor) are not fields and are left
    out: deriving them is not a change to the plan.
    """
    return (
        qgm.root,
        qgm.sql,
        [
            (id(node), len(node.inputs))
            + tuple(
                dict(node.properties) if field.name == "properties" else getattr(node, field.name)
                for field in dataclasses.fields(node)
                if field.name != "inputs"
            )
            for node in qgm.root.walk()
        ],
    )
