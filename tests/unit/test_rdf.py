"""Unit tests for the RDF triple store, terms, namespaces and N-Triples I/O."""

import pytest

from repro.errors import RdfError
from repro.rdf.graph import Graph, Triple
from repro.rdf.namespace import Namespace, QEP_POP, QEP_PROPERTY
from repro.rdf.terms import IRI, BlankNode, Literal, Variable, term_sort_key


NS = Namespace("http://example.org/")


class TestTerms:
    def test_iri_n3(self):
        assert IRI("http://x/y").n3() == "<http://x/y>"

    def test_literal_numeric_flag(self):
        assert Literal(5).is_numeric
        assert Literal(2.5).is_numeric
        assert not Literal("text").is_numeric
        assert not Literal(True).is_numeric

    def test_literal_n3_escaping(self):
        assert Literal('say "hi"').n3() == '"say \\"hi\\""'

    def test_blank_node_n3(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_variable_n3(self):
        assert Variable("pop_4").n3() == "?pop_4"

    def test_term_sort_key_orders_types(self):
        ordered = sorted([Literal("a"), IRI("z"), BlankNode("b")], key=term_sort_key)
        assert isinstance(ordered[0], IRI)
        assert isinstance(ordered[-1], Literal)


class TestNamespace:
    def test_attribute_and_item_access(self):
        assert NS.thing == IRI("http://example.org/thing")
        assert NS["other"] == IRI("http://example.org/other")

    def test_contains_and_local_name(self):
        assert NS.thing in NS
        assert NS.local_name(NS.thing) == "thing"
        assert IRI("http://elsewhere/x") not in NS
        with pytest.raises(ValueError):
            NS.local_name(IRI("http://elsewhere/x"))

    def test_paper_namespaces(self):
        assert QEP_POP["2"].value == "http://galo/qep/pop/2"
        assert QEP_PROPERTY["hasPopType"].value == "http://galo/qep/property/hasPopType"


class TestGraph:
    def make_graph(self) -> Graph:
        graph = Graph()
        graph.add_triple(NS.a, NS.knows, NS.b)
        graph.add_triple(NS.b, NS.knows, NS.c)
        graph.add_triple(NS.a, NS.name, Literal("alice"))
        return graph

    def test_add_and_len(self):
        graph = self.make_graph()
        assert len(graph) == 3
        graph.add_triple(NS.a, NS.knows, NS.b)  # duplicate ignored
        assert len(graph) == 3

    def test_contains(self):
        graph = self.make_graph()
        assert Triple(NS.a, NS.knows, NS.b) in graph
        assert Triple(NS.a, NS.knows, NS.c) not in graph

    def test_pattern_queries(self):
        graph = self.make_graph()
        assert len(list(graph.triples(NS.a, None, None))) == 2
        assert len(list(graph.triples(None, NS.knows, None))) == 2
        assert len(list(graph.triples(None, None, NS.b))) == 1
        assert len(list(graph.triples(NS.a, NS.knows, NS.b))) == 1
        assert len(list(graph.triples())) == 3

    def test_objects_value_subjects(self):
        graph = self.make_graph()
        assert graph.objects(NS.a, NS.knows) == [NS.b]
        assert graph.value(NS.a, NS.name) == Literal("alice")
        assert graph.value(NS.c, NS.name) is None
        assert graph.subjects(NS.knows) == sorted([NS.a, NS.b], key=term_sort_key)

    def test_update_merges_graphs(self):
        graph = self.make_graph()
        other = Graph()
        other.add_triple(NS.c, NS.knows, NS.a)
        graph.update(other)
        assert len(graph) == 4

    def test_predicate_must_be_iri(self):
        graph = Graph()
        with pytest.raises(RdfError):
            graph.add(Triple(NS.a, Literal("not-a-predicate"), NS.b))  # type: ignore[arg-type]


class TestNTriples:
    def test_round_trip(self):
        graph = Graph()
        graph.add_triple(NS.a, NS.name, Literal("alice"))
        graph.add_triple(NS.a, NS.age, Literal(42))
        graph.add_triple(NS.a, NS.score, Literal(3.5))
        graph.add_triple(BlankNode("n1"), NS.knows, NS.a)
        text = graph.to_ntriples()
        parsed = Graph.from_ntriples(text)
        assert len(parsed) == 4
        assert parsed.value(NS.a, NS.age) == Literal(42)
        assert parsed.value(NS.a, NS.score) == Literal(3.5)
        assert parsed.to_ntriples() == text

    def test_empty_graph_serialization(self):
        assert Graph().to_ntriples() == ""
        assert len(Graph.from_ntriples("")) == 0

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\n<http://a> <http://p> \"x\" .\n"
        assert len(Graph.from_ntriples(text)) == 1

    def test_missing_dot_rejected(self):
        with pytest.raises(RdfError, match="line 1: missing terminating"):
            Graph.from_ntriples('<http://a> <http://p> "x"')

    def test_wrong_term_count_rejected(self):
        with pytest.raises(RdfError, match="line 1"):
            Graph.from_ntriples("<http://a> <http://p> .")

    @pytest.mark.parametrize(
        "line",
        [
            '<http://a> <http://p> "x" <http://extra> .',
            '<http://a> "p" <http://b> .',
            "<http://a> <http://p> <http://unterminated .",
            '<http://a> <http://p> "unterminated .',
            '<http://a> <http://p> "ends in a backslash\\" .',
            '<http://a> <http://p> "x"^^<http://www.w3.org/2001/XMLSchema#integer> .',
            '<http://a> <http://p> "1.5.2"^^<http://www.w3.org/2001/XMLSchema#double> .',
            "http://a <http://p> <http://b> .",
        ],
    )
    def test_malformed_line_reports_its_number(self, line):
        text = '# header\n<http://a> <http://p> "fine" .\n\n' + line + "\n"
        with pytest.raises(RdfError, match="line 4: "):
            Graph.from_ntriples(text)

    def test_terms_need_no_space_between_them(self):
        parsed = Graph.from_ntriples('_:n1<http://p>"x".\n<http://a>\t<http://p>  _:n2  .')
        assert set(parsed) == {
            Triple(BlankNode("n1"), IRI("http://p"), Literal("x")),
            Triple(IRI("http://a"), IRI("http://p"), BlankNode("n2")),
        }
