"""``reoptimize_workload``: one query after the other, in submission order.

Pinned here: the list's order, the positional names of unnamed queries, and
that a second pass is served from the explain cache and the prepared lane.  ``KnowledgeBase.match`` from
several threads is covered by the service and prepared-interleaving suites.
"""

import pytest

from repro.core.matching.engine import MatchingConfig, MatchingEngine
from test_template_index import randomized_knowledge_base

WORKLOAD = [
    (
        "q_join2",
        "SELECT i_category, COUNT(*) FROM sales, item "
        "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    ),
    (
        "q_join3",
        "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
        "GROUP BY i_category",
    ),
    (
        "q_join4",
        "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
        "AND i_category = 'Music' GROUP BY i_category, o_state",
    ),
    (
        "q_filter_range",
        "SELECT i_class, COUNT(*) FROM sales, item, date_dim "
        "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk "
        "AND d_date BETWEEN 12500 AND 12600 GROUP BY i_class",
    ),
    (
        "q_single",
        "SELECT i_category FROM item WHERE i_category = 'Music'",
    ),
]


@pytest.fixture(scope="module")
def matching_engine(mini_db):
    kb = randomized_knowledge_base(mini_db)
    return MatchingEngine(mini_db, kb, MatchingConfig(max_joins=3))


def outcome(results):
    """The deterministic face of a reoptimization result list."""
    return [
        (
            result.query_name,
            result.matched_template_ids,
            result.guideline_document.to_xml(),
            result.original_qgm.shape_signature(),
            result.reoptimized_qgm.shape_signature(),
            result.original_elapsed_ms,
            result.reoptimized_elapsed_ms,
        )
        for result in results
    ]


class TestWorkloadReoptimization:
    def test_order_follows_submission_order(self, matching_engine):
        results = matching_engine.reoptimize_workload(WORKLOAD, execute=False)
        assert [result.query_name for result in results] == [name for name, _ in WORKLOAD]
        assert all(result.original_elapsed_ms is None for result in results)

    def test_unnamed_queries_get_positional_names(self, matching_engine):
        results = matching_engine.reoptimize_workload(
            [sql for _, sql in WORKLOAD[:3]], execute=False
        )
        assert [result.query_name for result in results] == ["Q1", "Q2", "Q3"]

    def test_repeated_batches_hit_caches(self, mini_db):
        """A second pass over the same workload reuses its plans: the explain
        cache answers ``reoptimize``, the prepared lane ``steer_prepared``."""
        engine = MatchingEngine(
            mini_db, randomized_knowledge_base(mini_db, plans_per_query=2),
            MatchingConfig(max_joins=3),
        )
        first = engine.reoptimize_workload(WORKLOAD, execute=False)
        hits_before = mini_db.explain_cache_hits
        misses_before = mini_db.explain_cache_misses
        second = engine.reoptimize_workload(WORKLOAD, execute=False)
        assert outcome(second) == outcome(first)
        assert mini_db.explain_cache_hits > hits_before
        assert mini_db.explain_cache_misses == misses_before

        served = [engine.steer_prepared(sql, query_name=name) for name, sql in WORKLOAD]
        hits_before = mini_db.explain_cache_hits
        queries_before = engine.knowledge_base.match_stats["queries"]
        again = [engine.steer_prepared(sql, query_name=name) for name, sql in WORKLOAD]
        assert [decision.prepared for decision in again] == ["hit"] * len(WORKLOAD)
        assert {decision.prepared for decision in served} == {"miss"}
        assert [decision.matched_template_ids for decision in again] == [
            result.matched_template_ids for result in first
        ]
        # A hit neither plans nor matches.
        assert mini_db.explain_cache_hits == hits_before
        assert mini_db.explain_cache_misses == misses_before
        assert engine.knowledge_base.match_stats["queries"] == queries_before
