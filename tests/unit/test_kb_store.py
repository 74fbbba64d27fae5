"""The knowledge base keeps each triple once, in its template's own graph.

``KnowledgeBase.graph`` is a view assembled per call; ``save`` / ``load`` go
from and to the per-template graphs directly; and everything that puts a
template into a knowledge base -- learning, loading, Exp-4's copy -- leaves
registry, graphs and index in step.
"""

import json
import random

import pytest

from repro.core import vocabulary as voc
from repro.core.knowledge_base import KnowledgeBase, abstract_template_from_plan
from repro.core.matching.segmenter import segment_plan
from repro.core.planutils import join_tree_root
from repro.experiments.exp4_routinization import _inflate_knowledge_base
from repro.rdf.graph import Graph, Triple, parse_ntriples
from repro.rdf.terms import Literal
from test_kb_lifecycle import QUERIES, match_both_ways, populated_kb
from tests.prepared_support import WORKLOAD, build_system


def union_of_subgraphs(kb):
    return {triple for subgraph in kb._template_graphs.values() for triple in subgraph}


def matched_ids(kb, db):
    """(indexed, brute-force) template ids over every probe segment."""
    indexed_ids, brute_ids = [], []
    for sql in QUERIES:
        for segment in segment_plan(db.explain(sql), max_joins=3):
            indexed, brute = match_both_ways(kb, db, segment)
            indexed_ids.append([m.template.template_id for m in indexed])
            brute_ids.append([m.template.template_id for m in brute])
    return indexed_ids, brute_ids


class TestGraphIsAView:
    def test_graph_is_the_union_assembled_per_call(self, mini_db):
        kb = populated_kb(mini_db)
        assert set(kb.graph) == union_of_subgraphs(kb)
        assert kb.graph is not kb.graph
        assert "graph" not in vars(kb)
        with pytest.raises(AttributeError):
            kb.graph = Graph()

    def test_writing_to_the_view_changes_nothing(self, mini_db):
        kb = populated_kb(mini_db)
        before = set(kb.graph)
        kb.graph.add_triple(voc.TEMPLATE["stray"], voc.HAS_TEMPLATE_ID, Literal("stray"))
        assert set(kb.graph) == before


class TestLoadAndSave:
    def test_load_adds_each_triple_once(self, mini_db, tmp_path, monkeypatch):
        populated_kb(mini_db).save(str(tmp_path))
        text = (tmp_path / "v1" / "knowledge_base.nt").read_text(encoding="utf-8")
        in_file = len(list(parse_ntriples(text)))
        assert in_file > 100

        adds = []
        original_add = Graph.add

        def counting_add(self, triple):
            adds.append(triple)
            original_add(self, triple)

        monkeypatch.setattr(Graph, "add", counting_add)
        loaded = KnowledgeBase.load(str(tmp_path))
        monkeypatch.undo()
        assert len(adds) == in_file
        assert len(union_of_subgraphs(loaded)) == in_file

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_save_load_save_is_byte_identical_after_any_mix(self, mini_db, tmp_path, seed):
        rng = random.Random(seed)
        kb = populated_kb(mini_db)
        roots = [join_tree_root(mini_db.explain(sql)) for sql in QUERIES]
        for step in range(12):
            action = rng.choice(["add", "evict", "update"])
            if action == "add" or not kb.templates:
                abstract_template_from_plan(
                    kb,
                    rng.choice(roots),
                    name=f'mix{step} "quoted" \\ \n',
                    improvement=rng.random(),
                    catalog=mini_db.catalog,
                )
            elif action == "evict":
                assert kb.evict_template(rng.choice(sorted(kb.templates)))
            else:
                template_id = rng.choice(sorted(kb.templates))
                kb.update_template(
                    template_id,
                    improvement=rng.random(),
                    guideline_xml=kb.template(template_id).guideline_xml + f"<!-- {step} -->",
                )
            assert set(kb.graph) == union_of_subgraphs(kb)
            assert len(kb.index) == len(kb._template_graphs) == len(kb)

            first, second = tmp_path / f"a{step}", tmp_path / f"b{step}"
            first = first / f"v{kb.save(str(first))}"
            loaded = KnowledgeBase.load(str(first.parent))
            second = second / f"v{loaded.save(str(second))}"
            for name in ("knowledge_base.nt", "templates.json"):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
            assert set(loaded.graph) == set(kb.graph) == union_of_subgraphs(loaded)
        indexed, brute = matched_ids(kb, mini_db)
        assert indexed == brute == matched_ids(loaded, mini_db)[0]

    def test_hand_built_version_loads_what_the_registry_says(self, mini_db, tmp_path):
        """``save`` never pairs one version's graph with another's registry,
        but ``load`` tolerates a version directory built by hand that does:
        triples of a template the registry does not list (orphans) are
        dropped, and a listed template with no triples is registered with
        none."""
        kb = populated_kb(mini_db)
        orphan, hollow = sorted(kb.templates)[:2]
        kb.save(str(tmp_path))
        registry = json.loads((tmp_path / "v1" / "templates.json").read_text(encoding="utf-8"))
        del registry[orphan]
        kb.evict_template(hollow)
        kb.save(str(tmp_path))
        # The hand-built pair in v2/: its own graph, with the orphan's triples
        # and none of the hollow one's, beside a registry listing the hollow
        # one only.
        (tmp_path / "v2" / "templates.json").write_text(
            json.dumps(registry, indent=2, sort_keys=True), encoding="utf-8"
        )
        built_nt = (tmp_path / "v2" / "knowledge_base.nt").read_text(encoding="utf-8")
        assert orphan in built_nt and hollow not in built_nt
        kb.evict_template(orphan)  # ``kb`` is now the templates both files hold

        built = KnowledgeBase.load(str(tmp_path))
        assert built.checkpoint_version == 2
        assert set(built.templates) == set(registry) == set(kb.templates) | {hollow}
        assert len(built.index) == len(built._template_graphs) == len(built)
        assert len(built._template_graphs[hollow]) == 0
        assert set(built.graph) == set(kb.graph)
        indexed, brute = matched_ids(built, mini_db)
        assert indexed == brute == matched_ids(kb, mini_db)[0]
        assert any(indexed)

        resaved = tmp_path / "resaved" / f"v{built.save(str(tmp_path / 'resaved'))}"
        resaved_nt = (resaved / "knowledge_base.nt").read_text(encoding="utf-8")
        assert orphan not in resaved_nt
        assert set(parse_ntriples(resaved_nt)) == set(kb.graph)


class TestOneRegistrationPath:
    def test_copy_templates_from_registers_everything(self, mini_db):
        base = populated_kb(mini_db)
        copy = KnowledgeBase()
        generation = copy.generation
        copy.copy_templates_from(base)
        assert copy.templates == base.templates
        assert len(copy.index) == len(copy._template_graphs) == len(copy) == len(base)
        assert copy.generation > generation and copy.dirty
        assert matched_ids(copy, mini_db) == matched_ids(base, mini_db)
        # Registry entries are copies: an update on one side stays there.
        template_id = sorted(base.templates)[0]
        copy.update_template(template_id, improvement=0.99)
        assert base.template(template_id).improvement != 0.99
        assert Triple(
            voc.TEMPLATE[template_id], voc.HAS_IMPROVEMENT, Literal(0.99)
        ) not in base.graph

    def test_exp4_inflated_kb_keeps_the_learned_templates_matchable(self):
        galo = build_system()
        base = galo.knowledge_base
        engine = galo.matching_engine
        plans = [galo.database.explain(sql, query_name=name) for name, sql in WORKLOAD]

        def matched(kb):
            engine.knowledge_base = kb
            return [
                match.template.template_id
                for qgm in plans
                for match in engine.match_plan(qgm)[0]
            ]

        on_base = matched(base)
        assert on_base
        inflated = _inflate_knowledge_base(base, len(base) + 5, galo.database.catalog)
        assert len(inflated) == len(base) + 5
        assert len(inflated.index) == len(inflated._template_graphs) == len(inflated)
        assert set(on_base) <= set(matched(inflated))
