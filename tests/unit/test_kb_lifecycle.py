"""Knowledge-base lifecycle: online evict / update / capacity enforcement.

The serving tier mutates the knowledge base while it is being matched
against, so these operations must keep every derived structure -- the
template index, the per-template subgraphs, the triple store, and the
persisted form -- consistent without a full rebuild.
"""

import pytest

from repro.core import vocabulary as voc
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import join_tree_root
from repro.core.transform.sparql_gen import sparql_for_subplan
from repro.rdf.terms import Literal


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


def populated_kb(db, widen=2.0):
    """One template per optimizer-plan segment of each query, varied benefit."""
    kb = KnowledgeBase()
    count = 0
    for sql in QUERIES:
        for segment in segment_plan(db.explain(sql), max_joins=3):
            count += 1
            abstract_template_from_plan(
                kb,
                segment,
                name=f"life{count}",
                source_workload="unit",
                source_query=f"q{count}",
                widen=widen,
                improvement=0.1 * count,
                catalog=db.catalog,
            )
    return kb


def match_both_ways(kb, db, segment):
    generated = sparql_for_subplan(segment, catalog=db.catalog)
    indexed = kb.match(generated, subplan_root=segment, use_index=True)
    brute = kb.match_brute_force(generated, subplan_root=segment)
    return indexed, brute


class TestEviction:
    def test_evict_removes_template_everywhere(self, mini_db):
        kb = populated_kb(mini_db)
        victim = sorted(kb.templates)[0]
        resource = voc.TEMPLATE[victim]
        assert len(list(kb.graph.triples(resource, None, None)))
        size_before = len(kb)
        triples_before = len(kb.graph)

        assert kb.evict_template(victim)
        assert len(kb) == size_before - 1
        assert victim not in kb
        assert victim not in kb.index
        assert list(kb.graph.triples(resource, None, None)) == []
        assert list(kb.graph.triples(None, voc.IN_TEMPLATE, resource)) == []
        assert len(kb.graph) < triples_before
        assert kb.lifecycle_stats["evicted"] == 1

    def test_evict_unknown_template_is_a_noop(self, mini_db):
        kb = populated_kb(mini_db)
        size = len(kb)
        assert not kb.evict_template("no-such-template")
        assert len(kb) == size
        assert kb.lifecycle_stats["evicted"] == 0

    def test_matching_stays_index_equivalent_after_evictions(self, mini_db):
        kb = populated_kb(mini_db)
        for victim in sorted(kb.templates)[::2]:
            kb.evict_template(victim)
        matched = 0
        for sql in QUERIES:
            for segment in segment_plan(mini_db.explain(sql), max_joins=3):
                indexed, brute = match_both_ways(kb, mini_db, segment)
                assert [m.template.template_id for m in indexed] == [
                    m.template.template_id for m in brute
                ]
                matched += len(indexed)
        assert matched, "some surviving template should still match"

    def test_evicted_template_no_longer_matches(self, mini_db):
        kb = KnowledgeBase()
        root = join_tree_root(mini_db.explain(QUERIES[0]))
        template = abstract_template_from_plan(
            kb, root, name="only", catalog=mini_db.catalog
        )
        segment = join_tree_root(mini_db.explain(QUERIES[0]))
        indexed, _ = match_both_ways(kb, mini_db, segment)
        assert [m.template.template_id for m in indexed] == [template.template_id]
        kb.evict_template(template.template_id)
        indexed, brute = match_both_ways(kb, mini_db, segment)
        assert indexed == [] and brute == []


class TestUpdate:
    def test_update_improvement_and_guideline_round_trip(self, mini_db, tmp_path):
        kb = populated_kb(mini_db)
        template_id = sorted(kb.templates)[0]
        original_xml = kb.template(template_id).guideline_xml

        kb.update_template(template_id, improvement=0.77, guideline_xml=original_xml)
        assert kb.template(template_id).improvement == 0.77
        assert kb.lifecycle_stats["updated"] == 1
        value = kb.graph.value(voc.TEMPLATE[template_id], voc.HAS_IMPROVEMENT)
        assert isinstance(value, Literal) and float(value.value) == pytest.approx(0.77)
        # Exactly one improvement triple must remain (replace, not accumulate).
        assert len(list(kb.graph.triples(voc.TEMPLATE[template_id], voc.HAS_IMPROVEMENT, None))) == 1

        kb.save(str(tmp_path))
        loaded = KnowledgeBase.load(str(tmp_path))
        assert loaded.template(template_id).improvement == 0.77

    def test_update_unknown_template_returns_none(self, mini_db):
        kb = KnowledgeBase()
        assert kb.update_template("missing", improvement=0.5) is None
        assert kb.lifecycle_stats["updated"] == 0


class TestCapacityEnforcement:
    def test_eviction_order_prefers_cold_low_benefit(self, mini_db):
        kb = populated_kb(mini_db)
        ordered = kb.eviction_order()
        assert set(ordered) == set(kb.templates)
        # Touch the first-in-line template: it must move behind untouched ones.
        kb.replay_usage([[ordered[0]]])
        reordered = kb.eviction_order()
        assert reordered[0] != ordered[0]
        assert reordered.index(ordered[0]) > 0
        # Among untouched templates, lower recorded benefit evicts first.
        untouched = [t for t in reordered if kb.template_usage(t).hits == 0]
        improvements = [kb.template(t).improvement for t in untouched]
        assert improvements == sorted(improvements)

    def test_enforce_capacity_evicts_down_to_cap(self, mini_db):
        kb = populated_kb(mini_db)
        total = len(kb)
        assert total > 3
        improvements = {t: kb.template(t).improvement for t in kb.templates}
        evicted = kb.enforce_capacity(3)
        assert len(kb) == 3
        assert len(evicted) == total - 3
        assert kb.enforce_capacity(3) == []
        # All templates are cold, so the lowest-benefit ones must have gone.
        worst_survivor = min(improvements[t] for t in kb.templates)
        assert all(improvements[t] <= worst_survivor for t in evicted)

    def test_enforce_capacity_keeps_matching_equivalent(self, mini_db):
        kb = populated_kb(mini_db)
        kb.enforce_capacity(2)
        for sql in QUERIES:
            for segment in segment_plan(mini_db.explain(sql), max_joins=3):
                indexed, brute = match_both_ways(kb, mini_db, segment)
                assert [m.template.template_id for m in indexed] == [
                    m.template.template_id for m in brute
                ]

    def test_match_records_usage(self, mini_db):
        kb = KnowledgeBase()
        root = join_tree_root(mini_db.explain(QUERIES[0]))
        template = abstract_template_from_plan(
            kb, root, name="used", catalog=mini_db.catalog
        )
        assert kb.template_usage(template.template_id).hits == 0
        segment = join_tree_root(mini_db.explain(QUERIES[0]))
        generated = sparql_for_subplan(segment, catalog=mini_db.catalog)
        kb.match(generated, subplan_root=segment)
        usage = kb.template_usage(template.template_id)
        assert usage.hits == 1
        assert usage.last_used_tick > 0
        # Recording a hit for an unknown (e.g. just-evicted) template must
        # not resurrect a usage entry.
        kb.replay_usage([["ghost"]])
        assert "ghost" not in kb._usage

    def test_negative_capacity_rejected(self, mini_db):
        kb = KnowledgeBase()
        with pytest.raises(ValueError):
            kb.enforce_capacity(-1)


class TestPersistenceAfterLifecycle:
    def test_save_load_after_evictions(self, mini_db, tmp_path):
        kb = populated_kb(mini_db)
        for victim in sorted(kb.templates)[:2]:
            kb.evict_template(victim)
        kb.save(str(tmp_path))
        loaded = KnowledgeBase.load(str(tmp_path))
        assert set(loaded.templates) == set(kb.templates)
        assert len(loaded.graph) == len(kb.graph)
        for sql in QUERIES:
            for segment in segment_plan(mini_db.explain(sql), max_joins=3):
                original, _ = match_both_ways(kb, mini_db, segment)
                reloaded, brute = match_both_ways(loaded, mini_db, segment)
                assert [m.template.template_id for m in original] == [
                    m.template.template_id for m in reloaded
                ]
                assert [m.template.template_id for m in reloaded] == [
                    m.template.template_id for m in brute
                ]
