"""Unit tests for the SPARQL parser and evaluator."""

import pytest

from repro.errors import SparqlSyntaxError
from repro.rdf.graph import Graph
from repro.rdf.namespace import Namespace
from repro.rdf.sparql.ast import FilterClause, PropertyPath, TriplePattern
from repro.rdf.sparql.evaluator import SparqlEngine
from repro.rdf.sparql.parser import parse_sparql
from repro.rdf.terms import IRI, Literal, Variable

NS = Namespace("http://galo/qep/property/")
POP = Namespace("http://galo/qep/pop/")

PREFIX = "PREFIX p: <http://galo/qep/property/>\n"


def chain_graph() -> Graph:
    """pop1 -> pop2 -> pop3 chain with types and cardinalities."""
    graph = Graph()
    graph.add_triple(POP["1"], NS["hasPopType"], Literal("IXSCAN"))
    graph.add_triple(POP["1"], NS["hasCardinality"], Literal(100))
    graph.add_triple(POP["2"], NS["hasPopType"], Literal("NLJOIN"))
    graph.add_triple(POP["2"], NS["hasCardinality"], Literal(5000))
    graph.add_triple(POP["3"], NS["hasPopType"], Literal("RETURN"))
    graph.add_triple(POP["1"], NS["hasOutputStream"], POP["2"])
    graph.add_triple(POP["2"], NS["hasOutputStream"], POP["3"])
    return graph


class TestParser:
    def test_prefix_and_select(self):
        query = parse_sparql(PREFIX + "SELECT ?a ?b WHERE { ?a p:knows ?b . }")
        assert [v.name for v in query.variables] == ["a", "b"]
        assert query.prefixes["p"] == "http://galo/qep/property/"
        assert len(query.patterns) == 1

    def test_select_star_and_distinct(self):
        query = parse_sparql(PREFIX + "SELECT DISTINCT * WHERE { ?a p:x ?b }")
        assert query.select_all and query.distinct

    def test_literal_objects(self):
        query = parse_sparql(PREFIX + "SELECT ?a WHERE { ?a p:type 'HSJOIN' . ?a p:card 42 . }")
        objects = [pattern.object for pattern in query.patterns]
        assert Literal("HSJOIN") in objects
        assert Literal(42) in objects

    def test_property_path_plus(self):
        query = parse_sparql(PREFIX + "SELECT ?a WHERE { ?a p:hasOutputStream+ ?b }")
        assert isinstance(query.patterns[0].predicate, PropertyPath)

    def test_filter_comparison_and_str(self):
        query = parse_sparql(
            PREFIX + "SELECT ?a WHERE { ?a p:card ?c . FILTER (?c <= 10) . FILTER (STR(?a) != STR(?b)) }"
        )
        assert len(query.filters) == 2

    def test_filter_logical_operators(self):
        query = parse_sparql(
            PREFIX + "SELECT ?a WHERE { ?a p:card ?c . FILTER (?c >= 1 && ?c <= 9 || ?c = 42) }"
        )
        assert len(query.filters) == 1

    def test_limit(self):
        query = parse_sparql(PREFIX + "SELECT ?a WHERE { ?a p:x ?b } LIMIT 3")
        assert query.limit == 3

    def test_full_iri_term(self):
        query = parse_sparql("SELECT ?a WHERE { ?a <http://galo/qep/property/x> ?b }")
        assert query.patterns[0].predicate == IRI("http://galo/qep/property/x")

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?a WHERE { ?a nope:x ?b }")

    def test_missing_where_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql("SELECT ?a { ?a ?b ?c }")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(SparqlSyntaxError):
            parse_sparql(PREFIX + "SELECT ?a WHERE { ?a p:x ?b } extra")


class TestEvaluator:
    def test_basic_bgp_join(self):
        engine = SparqlEngine(chain_graph())
        solutions = engine.query(
            parse_sparql(PREFIX + "SELECT ?scan WHERE { ?scan p:hasPopType 'IXSCAN' . ?scan p:hasOutputStream ?join . ?join p:hasPopType 'NLJOIN' }")
        )
        assert len(solutions) == 1
        assert solutions[0]["scan"] == POP["1"]

    def test_no_match_returns_empty(self):
        engine = SparqlEngine(chain_graph())
        assert engine.query(parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasPopType 'MSJOIN' }")) == []

    def test_numeric_filter(self):
        engine = SparqlEngine(chain_graph())
        solutions = engine.query(
            parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasCardinality ?c . FILTER (?c >= 1000) }")
        )
        assert [s["x"] for s in solutions] == [POP["2"]]

    def test_str_filter_on_iris(self):
        engine = SparqlEngine(chain_graph())
        solutions = engine.query(
            parse_sparql(PREFIX + "SELECT ?a ?b WHERE { ?a p:hasOutputStream ?b . FILTER (STR(?a) != STR(?b)) }")
        )
        assert len(solutions) == 2

    def test_property_path_transitive(self):
        engine = SparqlEngine(chain_graph())
        solutions = engine.query(
            parse_sparql(PREFIX + "SELECT ?target WHERE { <http://galo/qep/pop/1> p:hasOutputStream+ ?target }")
        )
        targets = {s["target"] for s in solutions}
        assert targets == {POP["2"], POP["3"]}

    def test_property_path_with_bound_object(self):
        engine = SparqlEngine(chain_graph())
        solutions = engine.query(
            parse_sparql(PREFIX + "SELECT ?src WHERE { ?src p:hasOutputStream+ <http://galo/qep/pop/3> }")
        )
        assert {s["src"] for s in solutions} == {POP["1"], POP["2"]}

    def test_distinct_and_limit(self):
        graph = chain_graph()
        engine = SparqlEngine(graph)
        all_rows = engine.query(parse_sparql(PREFIX + "SELECT ?t WHERE { ?x p:hasPopType ?t }"))
        distinct = engine.query(parse_sparql(PREFIX + "SELECT DISTINCT ?t WHERE { ?x p:hasPopType ?t }"))
        limited = engine.query(parse_sparql(PREFIX + "SELECT ?t WHERE { ?x p:hasPopType ?t } LIMIT 2"))
        assert len(all_rows) == 3
        assert len(distinct) == 3  # three distinct types
        assert len(limited) == 2

    def test_ask(self):
        engine = SparqlEngine(chain_graph())
        assert engine.ask(parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasPopType 'RETURN' }"))
        assert not engine.ask(parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasPopType 'HSJOIN' }"))

    def test_logical_filters(self):
        engine = SparqlEngine(chain_graph())
        both = engine.query(
            parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasCardinality ?c . FILTER (?c >= 50 && ?c <= 200) }")
        )
        either = engine.query(
            parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasCardinality ?c . FILTER (?c = 100 || ?c = 5000) }")
        )
        negated = engine.query(
            parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasCardinality ?c . FILTER (!(?c = 100)) }")
        )
        assert len(both) == 1
        assert len(either) == 2
        assert len(negated) == 1

    def test_numeric_string_coercion_in_filter(self):
        graph = Graph()
        graph.add_triple(POP["9"], NS["hasLowerCardinality"], Literal("19771"))
        engine = SparqlEngine(graph)
        solutions = engine.query(
            parse_sparql(PREFIX + "SELECT ?x WHERE { ?x p:hasLowerCardinality ?c . FILTER (?c <= 20000) }")
        )
        assert len(solutions) == 1
