"""Index-vs-brute-force equivalence for knowledge-base matching.

The template index is a pure pre-filter: for any generated matching query it
may only discard templates the SPARQL evaluation could never match.  These
tests populate knowledge bases with templates abstracted from *randomized*
plans (the Random Plan Generator supplies structural variety: join orders,
join methods, access paths) and assert that indexed matching returns exactly
the same matches as a full scan of the triple store.
"""

import pytest

from repro.core.knowledge_base import (
    CardinalityBounds,
    KnowledgeBase,
    SegmentProfile,
    TemplateIndex,
    abstract_template_from_plan,
)
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import canonical_label_map, join_tree_root
from repro.core.transform.sparql_gen import sparql_for_subplan
from repro.engine.optimizer.guidelines import GuidelineDocument


QUERIES = [
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category",
    "SELECT i_category, SUM(s_price) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND d_year >= 2018 "
    "GROUP BY i_category",
    "SELECT i_category, o_state, COUNT(*) FROM sales, item, date_dim, outlet "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk AND s_outlet_sk = o_outlet_sk "
    "AND i_category = 'Music' GROUP BY i_category, o_state",
]


def add_template_from_root(kb, db, problem_root, name, widen=2.0, improvement=0.3):
    """Abstract ``problem_root`` into a stored template (as learning would)."""
    return abstract_template_from_plan(
        kb,
        problem_root,
        name=name,
        source_workload="unit",
        source_query=name,
        widen=widen,
        improvement=improvement,
        catalog=db.catalog,
    )


def randomized_knowledge_base(db, plans_per_query=6, widen=2.0):
    """A KB whose templates come from random-plan segments of ``QUERIES``."""
    kb = KnowledgeBase()
    count = 0
    for sql in QUERIES:
        for qgm in db.random_plans(sql, plans_per_query):
            for segment in segment_plan(qgm, max_joins=3):
                count += 1
                add_template_from_root(
                    kb,
                    db,
                    segment,
                    name=f"rand{count}",
                    widen=widen,
                    improvement=0.1 + (count % 7) / 10.0,
                )
    return kb


def match_both_ways(kb, db, segment, cardinality_tolerance=1.0):
    generated = sparql_for_subplan(
        segment, catalog=db.catalog, cardinality_tolerance=cardinality_tolerance
    )
    indexed = kb.match(generated, subplan_root=segment, use_index=True)
    brute = kb.match_brute_force(generated, subplan_root=segment)
    return indexed, brute


def assert_equivalent(indexed, brute):
    assert [m.template.template_id for m in indexed] == [
        m.template.template_id for m in brute
    ]
    assert [m.label_to_alias for m in indexed] == [m.label_to_alias for m in brute]
    assert [m.bindings for m in indexed] == [m.bindings for m in brute]


class TestIndexEquivalence:
    def test_randomized_templates_match_identically(self, mini_db):
        kb = randomized_knowledge_base(mini_db)
        assert len(kb) > 10
        matched_something = False
        for sql in QUERIES:
            qgm = mini_db.explain(sql)
            for segment in segment_plan(qgm, max_joins=3):
                indexed, brute = match_both_ways(kb, mini_db, segment)
                assert_equivalent(indexed, brute)
                matched_something = matched_something or bool(indexed)
        assert matched_something, "randomized KB should match at least one segment"

    def test_random_plan_segments_match_identically(self, mini_db):
        """Probe the KB with segments of *random* plans, not just optimal ones."""
        kb = randomized_knowledge_base(mini_db, plans_per_query=4)
        for sql in QUERIES:
            for qgm in mini_db.random_plans(sql, 3):
                for segment in segment_plan(qgm, max_joins=3):
                    indexed, brute = match_both_ways(kb, mini_db, segment)
                    assert_equivalent(indexed, brute)

    def test_tolerance_widened_bounds_match_identically(self, mini_db):
        """Looser SPARQL tolerances must loosen the index pre-filter the same way."""
        kb = randomized_knowledge_base(mini_db, plans_per_query=4, widen=1.05)
        for tolerance in (1.0, 1.5, 4.0):
            for sql in QUERIES:
                qgm = mini_db.explain(sql)
                for segment in segment_plan(qgm, max_joins=3):
                    indexed, brute = match_both_ways(
                        kb, mini_db, segment, cardinality_tolerance=tolerance
                    )
                    assert_equivalent(indexed, brute)

    def test_empty_knowledge_base(self, mini_db):
        kb = KnowledgeBase()
        segment = join_tree_root(mini_db.explain(QUERIES[0]))
        indexed, brute = match_both_ways(kb, mini_db, segment)
        assert indexed == [] and brute == []
        assert kb.index.candidates(
            SegmentProfile.from_segment_nodes(list(segment.walk()))
        ) == []

    def test_duplicate_signatures_all_retained(self, mini_db):
        """Templates with identical shapes coexist; matching returns them all."""
        kb = KnowledgeBase()
        root = join_tree_root(mini_db.explain(QUERIES[0]))
        for i in range(4):
            add_template_from_root(kb, mini_db, root, name=f"dup{i}")
        segment = join_tree_root(mini_db.explain(QUERIES[0]))
        indexed, brute = match_both_ways(kb, mini_db, segment)
        assert_equivalent(indexed, brute)
        assert len(indexed) == 4

    def test_index_skips_out_of_range_templates(self, mini_db):
        """The pre-filter must reject bound-incompatible templates outright."""
        kb = KnowledgeBase()
        root = join_tree_root(mini_db.explain(QUERIES[0]))
        labels = canonical_label_map(root)
        bounds = {node.operator_id: CardinalityBounds(1e9, 2e9) for node in root.walk()}
        kb.add_template(
            name="narrow",
            source_workload="unit",
            source_query="q",
            problem_root=root.copy(),
            guideline_xml=GuidelineDocument().to_xml(),
            canonical_labels=labels,
            cardinality_bounds=bounds,
            improvement=0.5,
            catalog=mini_db.catalog,
        )
        segment = join_tree_root(mini_db.explain(QUERIES[0]))
        generated = sparql_for_subplan(segment, catalog=mini_db.catalog)
        profile = SegmentProfile.from_segment_nodes(
            list(generated.node_for_variable.values())
        )
        assert kb.index.candidates(profile) == []
        indexed, brute = match_both_ways(kb, mini_db, segment)
        assert indexed == [] and brute == []


class TestTemplateIndexStructure:
    def test_profiles_registered_per_template(self, mini_db):
        kb = KnowledgeBase()
        root = join_tree_root(mini_db.explain(QUERIES[1]))
        template = add_template_from_root(kb, mini_db, root, name="t3")
        assert len(kb.index) == 1
        profile = kb.index.profile(template.template_id)
        assert profile.join_count == template.join_count
        assert profile.scan_count == len(template.canonical_labels)
        assert sum(profile.pop_type_counts.values()) == len(list(root.walk()))
        assert all(
            lower <= upper
            for ranges in profile.bounds_by_type.values()
            for lower, upper in ranges
        )

    def test_bucket_prefilter_by_shape(self, mini_db):
        kb = KnowledgeBase()
        two_way = join_tree_root(mini_db.explain(QUERIES[0]))
        three_way = join_tree_root(mini_db.explain(QUERIES[1]))
        add_template_from_root(kb, mini_db, two_way, name="two")
        add_template_from_root(kb, mini_db, three_way, name="three")
        profile = SegmentProfile.from_segment_nodes(list(two_way.walk()))
        candidates = kb.index.candidates(profile)
        assert len(candidates) == 1
        assert kb.index.profile(candidates[0]).join_count == len(two_way.joins())

    def test_rebuild_matches_incremental_index(self, mini_db, tmp_path):
        """``load(save(kb))``: equal registry, equal per-template subgraphs,
        equal index profiles and candidates for every probe segment, equal
        matches -- with a template whose literals need every escape."""
        kb = randomized_knowledge_base(mini_db, plans_per_query=3)
        add_template_from_root(
            kb,
            mini_db,
            join_tree_root(mini_db.explain(QUERIES[0])),
            name='q "7" \\ tab\t line\nbreak\r \u2028 > ^^<x> " . \\',
        )
        kb.save(str(tmp_path))
        loaded = KnowledgeBase.load(str(tmp_path))
        assert loaded.templates == kb.templates
        assert set(loaded.graph) == set(kb.graph)
        assert set(loaded._template_graphs) == set(kb.templates)
        for template_id, subgraph in kb._template_graphs.items():
            assert set(loaded._template_graphs[template_id]) == set(subgraph)
        assert len(loaded.index) == len(kb.index)
        for template_id in kb.templates:
            original = kb.index.profile(template_id)
            rebuilt = loaded.index.profile(template_id)
            assert rebuilt.join_count == original.join_count
            assert rebuilt.scan_count == original.scan_count
            assert rebuilt.pop_type_counts == original.pop_type_counts
            assert {
                pop_type: sorted(ranges)
                for pop_type, ranges in rebuilt.bounds_by_type.items()
            } == {
                pop_type: sorted(ranges)
                for pop_type, ranges in original.bounds_by_type.items()
            }
        for sql in QUERIES:
            for segment in segment_plan(mini_db.explain(sql), max_joins=3):
                profile = SegmentProfile.from_segment_nodes(list(segment.walk()))
                assert sorted(loaded.index.candidates(profile)) == sorted(
                    kb.index.candidates(profile)
                )
                indexed, brute = match_both_ways(loaded, mini_db, segment)
                assert_equivalent(indexed, brute)
                assert_equivalent(indexed, match_both_ways(kb, mini_db, segment)[0])

    def test_match_statistics_track_index_savings(self, mini_db):
        kb = randomized_knowledge_base(mini_db, plans_per_query=3)
        segment = join_tree_root(mini_db.explain(QUERIES[0]))
        kb.match(sparql_for_subplan(segment, catalog=mini_db.catalog), subplan_root=segment)
        assert kb.match_stats["queries"] == 1
        assert kb.match_stats["indexed_queries"] == 1
        assert (
            kb.match_stats["candidates_evaluated"] + kb.match_stats["templates_skipped"]
            == len(kb)
        )


def assert_matching_still_equivalent(kb, db):
    """Indexed and brute-force matching agree for every probe segment."""
    for sql in QUERIES:
        for segment in segment_plan(db.explain(sql), max_joins=3):
            indexed, brute = match_both_ways(kb, db, segment)
            assert_equivalent(indexed, brute)


class TestLeftoverIndexFile:
    def test_leftover_index_file_is_ignored(self, mini_db, tmp_path):
        """``load`` always rebuilds the index from the triple store; a
        ``template_index.json`` left in the directory by an older version is
        not read, whatever it holds."""
        kb = randomized_knowledge_base(mini_db, plans_per_query=3)
        kb.save(str(tmp_path))
        (tmp_path / "template_index.json").write_text("{not json", encoding="utf-8")
        loaded = KnowledgeBase.load(str(tmp_path))
        assert len(loaded.index) == len(kb)
        for template_id, subgraph in kb._template_graphs.items():
            assert set(subgraph) == set(loaded._template_graphs[template_id])
        assert_matching_still_equivalent(loaded, mini_db)
        for sql in QUERIES:
            for segment in segment_plan(mini_db.explain(sql), max_joins=3):
                assert_equivalent(
                    match_both_ways(loaded, mini_db, segment)[0],
                    match_both_ways(kb, mini_db, segment)[0],
                )


class TestIncrementalMaintenance:
    """Online add/evict keeps the index identical to a from-scratch rebuild."""

    def _probe_profiles(self, db):
        from repro.core.knowledge_base import SegmentProfile

        profiles = []
        for sql in QUERIES:
            for segment in segment_plan(db.explain(sql), max_joins=3):
                profiles.append(
                    SegmentProfile.from_segment_nodes(list(segment.walk()))
                )
        return profiles

    def assert_index_equals_rebuild(self, kb, db):
        incremental = {
            template_id: kb.index.profile(template_id) for template_id in kb.templates
        }
        probes = self._probe_profiles(db)
        incremental_candidates = [sorted(kb.index.candidates(p)) for p in probes]
        kb.rebuild_index()
        assert set(incremental) == set(
            template_id for template_id in kb.templates if template_id in kb.index
        )
        for template_id, before in incremental.items():
            after = kb.index.profile(template_id)
            assert after.join_count == before.join_count
            assert after.scan_count == before.scan_count
            assert after.pop_type_counts == before.pop_type_counts
            assert {
                pop_type: sorted(ranges)
                for pop_type, ranges in after.bounds_by_type.items()
            } == {
                pop_type: sorted(ranges)
                for pop_type, ranges in before.bounds_by_type.items()
            }
        assert [sorted(kb.index.candidates(p)) for p in probes] == incremental_candidates

    def test_incremental_adds_equal_rebuild(self, mini_db):
        kb = randomized_knowledge_base(mini_db, plans_per_query=3)
        self.assert_index_equals_rebuild(kb, mini_db)

    def test_incremental_evictions_equal_rebuild(self, mini_db):
        kb = randomized_knowledge_base(mini_db, plans_per_query=3)
        for victim in sorted(kb.templates)[::3]:
            kb.evict_template(victim)
        self.assert_index_equals_rebuild(kb, mini_db)
        assert_matching_still_equivalent(kb, mini_db)

    def test_interleaved_add_evict_equal_rebuild(self, mini_db):
        kb = KnowledgeBase()
        roots = [join_tree_root(mini_db.explain(sql)) for sql in QUERIES]
        added = []
        for round_no in range(3):
            for position, root in enumerate(roots):
                template = add_template_from_root(
                    kb, mini_db, root, name=f"r{round_no}p{position}"
                )
                added.append(template.template_id)
            if added:
                kb.evict_template(added.pop(0))
        self.assert_index_equals_rebuild(kb, mini_db)
        assert_matching_still_equivalent(kb, mini_db)

    def test_remove_unknown_id_is_noop(self):
        from repro.core.knowledge_base import TemplateIndex

        index = TemplateIndex()
        assert index.remove("ghost") is False
        assert len(index) == 0
