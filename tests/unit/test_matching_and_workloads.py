"""Unit tests for the matching engine, plan segmentation, and the workloads."""

import pytest

from repro.core.galo import Galo
from repro.core.knowledge_base import KnowledgeBase, SegmentProfile
from repro.core.matching.engine import MatchingConfig, MatchingEngine
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import join_tree_root
from repro.core.transform import sparql_gen
from repro.core.transform.sparql_gen import sparql_for_subplan
from repro.workloads import (
    build_client_database,
    build_tpcds_database,
    generate_client_queries,
    generate_tpcds_queries,
)
from repro.workloads.tpcds.datagen import table_sizes as tpcds_sizes
from repro.workloads.workload import load_workload
from tests.prepared_support import MAX_JOINS, WORKLOAD, build_system

FOUR_WAY = (
    "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
    "AND i_category = 'Music' GROUP BY i_category, o_state"
)


class TestSegmenter:
    def test_segments_are_join_rooted_and_bounded(self, mini_db):
        qgm = mini_db.explain(FOUR_WAY)
        segments = segment_plan(qgm, max_joins=2)
        assert segments
        for segment in segments:
            assert segment.is_join
            assert len(segment.joins()) <= 2

    def test_segments_ordered_by_size(self, mini_db):
        qgm = mini_db.explain(FOUR_WAY)
        sizes = [len(segment.joins()) for segment in segment_plan(qgm, max_joins=3)]
        assert sizes == sorted(sizes)

    def test_threshold_zero_gives_no_segments(self, mini_db):
        qgm = mini_db.explain(FOUR_WAY)
        assert segment_plan(qgm, max_joins=0) == []

    def test_single_table_plan_has_no_segments(self, mini_db):
        qgm = mini_db.explain("SELECT i_category FROM item")
        assert segment_plan(qgm, max_joins=4) == []


class TestMatchingEngine:
    def test_empty_knowledge_base_matches_nothing(self, mini_db):
        engine = MatchingEngine(mini_db, KnowledgeBase(), MatchingConfig(max_joins=3))
        result = engine.reoptimize(FOUR_WAY, query_name="q")
        assert not result.was_reoptimized
        assert not result.plan_changed
        assert result.improvement == 0.0
        assert result.normalized_runtime == 1.0
        assert result.reoptimized_qgm is result.original_qgm

    def test_match_time_reported(self, mini_db):
        engine = MatchingEngine(mini_db, KnowledgeBase(), MatchingConfig(max_joins=3))
        result = engine.reoptimize(FOUR_WAY, query_name="q", execute=False)
        assert result.match_time_ms >= 0
        assert result.original_elapsed_ms is None

    def test_learned_template_matches_and_improves(self, mini_db):
        galo = Galo(mini_db)
        galo.learning_engine.config.max_joins = 2
        galo.learning_engine.config.random_plans_per_subquery = 5
        galo.learning_engine.config.max_variants = 2
        galo.learn_query(FOUR_WAY, query_name="q4", workload_name="unit")
        if galo.template_count == 0:
            pytest.skip("no rewrite discovered at this configuration")
        result = galo.reoptimize(FOUR_WAY, query_name="q4")
        # Not every learned template necessarily matches the full query's plan
        # (the sub-plan shape may not appear as a segment); when one does, the
        # re-optimized plan must not regress.
        if result.plan_changed:
            assert result.reoptimized_elapsed_ms <= result.original_elapsed_ms * 1.05
        else:
            assert result.normalized_runtime == 1.0
        assert result.guideline_document.to_xml().startswith("<OPTGUIDELINES")

    def test_guidelines_reference_actual_aliases(self, mini_db):
        galo = Galo(mini_db)
        galo.learning_engine.config.max_joins = 2
        galo.learning_engine.config.max_variants = 1
        galo.learn_query(FOUR_WAY, query_name="q4", workload_name="unit")
        result = galo.reoptimize(FOUR_WAY, query_name="q4", execute=False)
        if not result.was_reoptimized:
            pytest.skip("no match at this configuration")
        aliases = set(result.guideline_document.aliases())
        assert aliases <= {"SALES", "ITEM", "DATE_DIM", "OUTLET"}
        assert not any(alias.startswith("TABLE_") for alias in aliases)


def workload_plans(galo):
    """The optimizer's plan and three random plans of every workload statement:
    segments the seeded knowledge base matches, and shapes it has never seen."""
    plans = []
    for name, sql in WORKLOAD:
        plans.append(galo.database.explain(sql, query_name=name))
        plans.extend(galo.database.random_plans(sql, 3, query_name=name))
    return plans


def eager_sparql(galo, segment):
    """The matching query of one segment, as ``match_plan`` asks for it."""
    config = galo.matching_engine.config
    return sparql_for_subplan(
        segment,
        catalog=galo.database.catalog,
        check_row_size=config.check_row_size,
        cardinality_tolerance=config.cardinality_tolerance,
    )


def eager_match_plan(galo, qgm):
    """``match_plan`` the long way round: the query text of every segment is
    written and evaluated against the whole triple store, index unused."""
    matches, usage_batches, claimed = [], [], set()
    for segment in reversed(segment_plan(qgm, MAX_JOINS)):
        aliases = set(segment.aliases())
        if aliases & claimed:
            continue
        found = galo.knowledge_base.match_brute_force(
            eager_sparql(galo, segment), subplan_root=segment
        )
        if not found:
            continue
        usage_batches.append(tuple(match.template.name for match in found))
        matches.append(max(found, key=lambda match: match.template.improvement))
        claimed |= aliases
    return matches, tuple(usage_batches)


def match_key(match):
    return (match.template.name, match.label_to_alias, match.subplan_root.operator_id)


def usage_by_name(knowledge_base):
    return {
        template.name: (
            knowledge_base.template_usage(template_id).hits,
            knowledge_base.template_usage(template_id).last_used_tick,
        )
        for template_id, template in knowledge_base.templates.items()
    }


class TestIndexBeforeSparql:
    """The engine hands ``KnowledgeBase.match`` a query that is built on
    first read; nothing a caller can observe depends on when that is."""

    def test_segments_match_like_brute_force_and_count_like_the_index(self, monkeypatch):
        galo = build_system()
        engine, kb = galo.matching_engine, galo.knowledge_base
        built = []
        segment_query = sparql_gen._segment_query

        def counting_segment_query(root, *args):
            built.append(root)
            return segment_query(root, *args)

        monkeypatch.setattr(sparql_gen, "_segment_query", counting_segment_query)
        index_only = segments = built_for_indexed_matches = 0
        for qgm in workload_plans(galo):
            for segment in segment_plan(qgm, MAX_JOINS):
                eager = eager_sparql(galo, segment)
                candidates = kb.index.candidates(
                    SegmentProfile.from_segment_nodes(
                        list(eager.node_for_variable.values()), eager.cardinality_tolerance
                    )
                )
                before = dict(kb.match_stats)
                built_before = len(built)
                found = kb.match(eager_sparql(galo, segment), subplan_root=segment)
                # A query is built for a segment iff the index left a candidate.
                assert built[built_before:] == ([segment] if candidates else [])
                built_for_indexed_matches += len(built) - built_before
                assert kb.match_stats == {
                    "queries": before["queries"] + 1,
                    "indexed_queries": before["indexed_queries"] + 1,
                    "candidates_evaluated": before["candidates_evaluated"] + len(candidates),
                    "templates_skipped": before["templates_skipped"]
                    + len(kb.templates)
                    - len(candidates),
                    "index_only_segments": before["index_only_segments"] + (not candidates),
                }
                brute = kb.match_brute_force(eager, subplan_root=segment)
                assert [m.template.template_id for m in found] == [
                    m.template.template_id for m in brute
                ]
                assert [m.label_to_alias for m in found] == [m.label_to_alias for m in brute]
                assert [m.bindings for m in found] == [m.bindings for m in brute]
                segments += 1
                index_only += not candidates
        # Both sides of the index's verdict were exercised.
        assert 0 < index_only < segments
        assert kb.match_stats["index_only_segments"] == index_only
        # Queries were built only for segments with a candidate (and one per
        # segment for the brute-force side, which always evaluates).
        assert built_for_indexed_matches == segments - index_only
        assert len(built) == built_for_indexed_matches + segments
        # ``match_plan`` counts the queries it builds the same way.
        before = dict(kb.match_stats)
        engine.match_plan(workload_plans(galo)[0])
        asked = kb.match_stats["queries"] - before["queries"]
        answered_by_index = kb.match_stats["index_only_segments"] - before["index_only_segments"]
        built_by_match_plan = len(built) - built_for_indexed_matches - segments
        assert engine.sparql_cache_misses == built_by_match_plan == asked - answered_by_index
        assert engine.sparql_cache_misses > 0 and engine.sparql_cache_hits == 0

    def test_match_plan_and_usage_equal_the_eager_brute_force_flow(self):
        lazy, eager = build_system(), build_system()
        for qgm_lazy, qgm_eager in zip(workload_plans(lazy), workload_plans(eager)):
            matches, batches, _ = lazy.matching_engine._match_plan_recording_usage(qgm_lazy)
            assert lazy.matching_engine.match_plan(qgm_lazy)[0] == matches
            expected, expected_batches = eager_match_plan(eager, qgm_eager)
            # match_plan ran twice on the lazy side: tick the eager side again.
            eager_match_plan(eager, qgm_eager)
            assert list(map(match_key, matches)) == list(map(match_key, expected))
            names = {t.template_id: t.name for t in lazy.knowledge_base.templates.values()}
            assert tuple(tuple(names[i] for i in batch) for batch in batches) == expected_batches
        assert any(hits for hits, _ in usage_by_name(lazy.knowledge_base).values())
        assert usage_by_name(lazy.knowledge_base) == usage_by_name(eager.knowledge_base)


class TestWorkloadGenerators:
    def test_tpcds_queries_deterministic(self):
        assert generate_tpcds_queries(10, seed=1) == generate_tpcds_queries(10, seed=1)
        assert generate_tpcds_queries(10, seed=1) != generate_tpcds_queries(10, seed=2)

    def test_tpcds_query_count_and_names(self):
        queries = generate_tpcds_queries(99)
        assert len(queries) == 99
        assert queries[0][0] == "query1"
        assert queries[-1][0] == "query99"

    def test_client_query_count(self):
        assert len(generate_client_queries(116)) == 116

    def test_tpcds_table_sizes_scale(self):
        small = tpcds_sizes(0.1)
        large = tpcds_sizes(1.0)
        assert small["STORE_SALES"] < large["STORE_SALES"]
        assert small["DATE_DIM"] == large["DATE_DIM"]   # calendar does not scale

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            load_workload("oracle")


class TestWorkloadDatabases:
    def test_tpcds_database_tables_and_skew(self, tiny_tpcds_workload):
        db = tiny_tpcds_workload.database
        assert len(db.tables) == 10
        stats = db.catalog.statistics("STORE_SALES")
        assert stats.cardinality > 0
        # Recent-date skew: the most frequent year bucket must dominate.
        dates = db.catalog.table_data("STORE_SALES").column_values("ss_sold_date_sk")
        recent = sum(1 for d in dates if d >= 7305 - 365)
        assert recent / len(dates) > 0.8

    def test_item_category_class_correlation(self, tiny_tpcds_workload):
        data = tiny_tpcds_workload.database.catalog.table_data("ITEM")
        categories = data.column_values("i_category")
        classes = data.column_values("i_class")
        assert all(cls.startswith(cat.lower()) for cat, cls in zip(categories, classes))

    def test_all_tpcds_queries_optimize(self, tiny_tpcds_workload):
        for name, sql in tiny_tpcds_workload.queries:
            qgm = tiny_tpcds_workload.database.explain(sql, query_name=name)
            assert qgm.total_cost > 0

    def test_all_client_queries_optimize(self, tiny_client_workload):
        for name, sql in tiny_client_workload.queries:
            qgm = tiny_client_workload.database.explain(sql, query_name=name)
            assert qgm.total_cost > 0

    def test_workload_subset_and_lookup(self, tiny_tpcds_workload):
        subset = tiny_tpcds_workload.subset(5)
        assert subset.query_count == 5
        assert subset.query("query1") == tiny_tpcds_workload.query("query1")
        with pytest.raises(KeyError):
            subset.query("queryMissing")

    def test_fact_foreign_keys_reference_dimensions(self, tiny_tpcds_workload):
        db = tiny_tpcds_workload.database
        item_count = db.catalog.statistics("ITEM").cardinality
        item_keys = db.catalog.table_data("STORE_SALES").column_values("ss_item_sk")
        assert all(0 <= key < item_count for key in item_keys)
