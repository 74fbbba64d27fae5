"""Unit tests for the knowledge base and template matching."""

import pytest

from repro.core.knowledge_base import CardinalityBounds, KnowledgeBase
from repro.core.planutils import canonical_label_map, join_tree_root, remap_guideline_document
from repro.core.transform.sparql_gen import (
    GeneratedSparql,
    sparql_for_subplan,
    variable_maps_for,
)
from repro.engine.optimizer.guidelines import GuidelineDocument, guideline_from_plan, parse_guidelines

SQL = (
    "SELECT i_category, COUNT(*) FROM sales, item "
    "WHERE s_item_sk = i_item_sk AND i_category = 'Jewelry' GROUP BY i_category"
)


def make_template(db, kb, sql=SQL, widen=2.0, improvement=0.4, name="t"):
    """Store the optimizer's join tree for ``sql`` as a problem template."""
    qgm = db.explain(sql)
    problem_root = join_tree_root(qgm)
    labels = canonical_label_map(problem_root)
    bounds = {
        node.operator_id: CardinalityBounds(
            node.estimated_cardinality / widen, node.estimated_cardinality * widen
        )
        for node in problem_root.walk()
    }
    guideline = GuidelineDocument(elements=[guideline_from_plan(problem_root)])
    remapped = remap_guideline_document(guideline, labels)
    return kb.add_template(
        name=name,
        source_workload="unit",
        source_query="q",
        problem_root=problem_root.copy(),
        guideline_xml=remapped.to_xml(),
        canonical_labels=labels,
        cardinality_bounds=bounds,
        improvement=improvement,
        catalog=db.catalog,
    ), qgm


class TestCardinalityBounds:
    def test_widened(self):
        bounds = CardinalityBounds(10, 100).widened(2.0)
        assert bounds.lower == pytest.approx(5)
        assert bounds.upper == pytest.approx(200)


class TestTemplateStorage:
    def test_add_template_registers_and_builds_graph(self, mini_db):
        kb = KnowledgeBase()
        template, _ = make_template(mini_db, kb)
        assert len(kb) == 1
        assert template.template_id in kb
        assert len(kb.graph) > 10
        assert kb.template(template.template_id).guideline_xml.startswith("<OPTGUIDELINES>")

    def test_canonical_labels_abstract_tables(self, mini_db):
        kb = KnowledgeBase()
        template, _ = make_template(mini_db, kb)
        assert set(template.canonical_labels.values()) == {"TABLE_1", "TABLE_2"}
        assert "TABLE_1" in template.guideline_xml
        assert "SALES" not in template.guideline_xml.upper().replace("TABLE_", "")

    def test_serialization_round_trip(self, mini_db, tmp_path):
        kb = KnowledgeBase()
        template, _ = make_template(mini_db, kb)
        kb.save(str(tmp_path))
        loaded = KnowledgeBase.load(str(tmp_path))
        assert len(loaded) == 1
        assert loaded.template(template.template_id).canonical_labels == template.canonical_labels
        assert len(loaded.graph) == len(kb.graph)

    def test_to_dict_round_trip(self, mini_db):
        kb = KnowledgeBase()
        template, _ = make_template(mini_db, kb)
        from repro.core.knowledge_base import ProblemPatternTemplate

        clone = ProblemPatternTemplate.from_dict(template.to_dict())
        assert clone.template_id == template.template_id
        assert clone.cardinality_bounds == template.cardinality_bounds

    def test_loaded_index_matches_identically(self, mini_db, tmp_path):
        """Matching through the index ``load`` rebuilds equals matching
        through the incrementally built one (and brute force)."""
        kb = KnowledgeBase()
        template, qgm = make_template(mini_db, kb)
        kb.save(str(tmp_path))
        loaded = KnowledgeBase.load(str(tmp_path))

        problem_root = join_tree_root(qgm)
        generated = sparql_for_subplan(problem_root)
        for candidate in (kb, loaded):
            matches = candidate.match(generated, subplan_root=problem_root)
            brute = candidate.match_brute_force(generated, subplan_root=problem_root)
            assert [m.template.template_id for m in matches] == [template.template_id]
            assert [m.template.template_id for m in brute] == [template.template_id]
            assert matches[0].label_to_alias == brute[0].label_to_alias

    def test_galo_save_load_reoptimize_round_trip(self, mini_db, tmp_path):
        """save -> load -> reoptimize through the Galo facade is lossless."""
        from repro.core.galo import Galo
        from repro.core.matching.engine import MatchingConfig

        galo = Galo(mini_db, matching_config=MatchingConfig(max_joins=3))
        template, _ = make_template(mini_db, galo.knowledge_base)
        before = galo.reoptimize(SQL, query_name="q", execute=False)
        assert before.was_reoptimized

        galo.save_knowledge_base(str(tmp_path))
        fresh = Galo(mini_db, matching_config=MatchingConfig(max_joins=3))
        loaded = fresh.load_knowledge_base(str(tmp_path))
        # Both engines must now be wired to the reloaded knowledge base.
        assert fresh.knowledge_base is loaded
        assert fresh.matching_engine.knowledge_base is loaded
        assert fresh.learning_engine.knowledge_base is loaded
        # JSON serialization stringifies the operator-id keys; loading must
        # restore them as ints or bound lookups silently stop working.
        restored = loaded.template(template.template_id)
        assert restored.cardinality_bounds
        assert all(isinstance(key, int) for key in restored.cardinality_bounds)
        assert restored.cardinality_bounds == template.cardinality_bounds

        after = fresh.reoptimize(SQL, query_name="q", execute=False)
        assert after.matched_template_ids == before.matched_template_ids
        assert after.guideline_document.to_xml() == before.guideline_document.to_xml()
        assert after.reoptimized_qgm.shape_signature() == before.reoptimized_qgm.shape_signature()


class TestTemplateMatching:
    def test_same_plan_matches_its_own_template(self, mini_db):
        kb = KnowledgeBase()
        template, qgm = make_template(mini_db, kb)
        segment = join_tree_root(qgm)
        generated = sparql_for_subplan(segment, catalog=mini_db.catalog)
        matches = kb.match(generated, subplan_root=segment)
        assert len(matches) == 1
        assert matches[0].template.template_id == template.template_id

    def test_label_mapping_binds_table_instances(self, mini_db):
        kb = KnowledgeBase()
        template, qgm = make_template(mini_db, kb)
        segment = join_tree_root(qgm)
        matches = kb.match(sparql_for_subplan(segment, catalog=mini_db.catalog), subplan_root=segment)
        label_to_alias = matches[0].label_to_alias
        assert set(label_to_alias.keys()) == {"TABLE_1", "TABLE_2"}
        assert set(label_to_alias.values()) == {"SALES", "ITEM"}

    def test_remapped_guideline_targets_query_aliases(self, mini_db):
        kb = KnowledgeBase()
        template, qgm = make_template(mini_db, kb)
        segment = join_tree_root(qgm)
        match = kb.match(sparql_for_subplan(segment, catalog=mini_db.catalog), subplan_root=segment)[0]
        document = parse_guidelines(match.template.guideline_xml)
        remapped = remap_guideline_document(document, match.label_to_alias)
        assert sorted(remapped.aliases()) == ["ITEM", "SALES"]

    def test_cardinality_out_of_range_does_not_match(self, mini_db):
        kb = KnowledgeBase()
        # Template learned with extremely narrow bounds scaled away from reality.
        qgm = mini_db.explain(SQL)
        problem_root = join_tree_root(qgm)
        labels = canonical_label_map(problem_root)
        bounds = {
            node.operator_id: CardinalityBounds(1e9, 2e9) for node in problem_root.walk()
        }
        kb.add_template(
            name="narrow",
            source_workload="unit",
            source_query="q",
            problem_root=problem_root.copy(),
            guideline_xml=GuidelineDocument().to_xml(),
            canonical_labels=labels,
            cardinality_bounds=bounds,
            improvement=0.5,
            catalog=mini_db.catalog,
        )
        segment = join_tree_root(mini_db.explain(SQL))
        matches = kb.match(sparql_for_subplan(segment, catalog=mini_db.catalog), subplan_root=segment)
        assert matches == []

    def test_different_structure_does_not_match(self, mini_db):
        kb = KnowledgeBase()
        make_template(mini_db, kb)  # 2-table pattern
        three_way = (
            "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
            "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk GROUP BY i_category"
        )
        segment = join_tree_root(mini_db.explain(three_way))
        matches = kb.match(sparql_for_subplan(segment, catalog=mini_db.catalog), subplan_root=segment)
        # The 3-table segment itself cannot match a 2-table template graph.
        assert all(match.subplan_root is segment for match in matches)

    def test_multiple_templates_deduplicated_per_match(self, mini_db):
        kb = KnowledgeBase()
        make_template(mini_db, kb, name="first")
        make_template(mini_db, kb, name="second", improvement=0.7)
        segment = join_tree_root(mini_db.explain(SQL))
        matches = kb.match(sparql_for_subplan(segment, catalog=mini_db.catalog), subplan_root=segment)
        assert len(matches) == 2
        template_ids = {match.template.template_id for match in matches}
        assert len(template_ids) == 2


THREE_WAY = (
    "SELECT i_category, COUNT(*) FROM sales, item, date_dim "
    "WHERE s_item_sk = i_item_sk AND s_date_sk = d_date_sk GROUP BY i_category"
)


def deferred_sparql(segment, query_source):
    """What the matching engine hands ``match``: maps now, the query on
    first read."""
    node_for_variable, label_variables = variable_maps_for(segment)
    return GeneratedSparql(
        query_source=query_source,
        node_for_variable=node_for_variable,
        label_variables=label_variables,
    )


def unreadable_sparql(segment):
    def refuse():
        raise AssertionError("the SPARQL query was built")

    return deferred_sparql(segment, refuse)


class TestIndexBeforeSparql:
    """``match`` asks the index first and builds ``generated.query`` only
    when a candidate survives; ``match_brute_force`` always builds it."""

    def test_no_candidate_means_no_text(self, mini_db):
        kb = KnowledgeBase()
        make_template(mini_db, kb)  # a 2-table pattern
        segment = join_tree_root(mini_db.explain(THREE_WAY))
        assert kb.match(unreadable_sparql(segment), subplan_root=segment) == []
        assert KnowledgeBase().match(unreadable_sparql(segment), subplan_root=segment) == []
        assert kb.match_stats == {
            "queries": 1,
            "indexed_queries": 1,
            "candidates_evaluated": 0,
            "templates_skipped": 1,
            "index_only_segments": 1,
        }

    def test_a_candidate_means_the_text_is_read(self, mini_db):
        kb = KnowledgeBase()
        _, qgm = make_template(mini_db, kb)
        segment = join_tree_root(qgm)
        with pytest.raises(AssertionError, match="SPARQL query was built"):
            kb.match(unreadable_sparql(segment), subplan_root=segment)
        assert kb.match_stats["candidates_evaluated"] == 1
        assert kb.match_stats["index_only_segments"] == 0

    def test_brute_force_reads_the_text_whatever_the_index_says(self, mini_db):
        kb = KnowledgeBase()
        make_template(mini_db, kb)
        segment = join_tree_root(mini_db.explain(THREE_WAY))
        with pytest.raises(AssertionError, match="SPARQL query was built"):
            kb.match_brute_force(unreadable_sparql(segment), subplan_root=segment)
        assert kb.match_stats["indexed_queries"] == 0
        assert kb.match_stats["index_only_segments"] == 0

    def test_deferred_query_is_built_once_and_matches_like_eager_query(self, mini_db):
        kb = KnowledgeBase()
        template, qgm = make_template(mini_db, kb)
        segment = join_tree_root(qgm)
        eager = sparql_for_subplan(segment, catalog=mini_db.catalog)
        reads = []

        def query_source():
            reads.append(1)
            return eager.query

        deferred = deferred_sparql(segment, query_source)
        for _ in range(2):
            found = kb.match(deferred, subplan_root=segment)
            expected = kb.match(eager, subplan_root=segment)
            assert [m.template.template_id for m in found] == [template.template_id]
            assert [m.label_to_alias for m in found] == [m.label_to_alias for m in expected]
            assert [m.bindings for m in found] == [m.bindings for m in expected]
        assert reads == [1]
