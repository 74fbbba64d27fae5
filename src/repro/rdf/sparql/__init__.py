"""SPARQL subset: AST, parser, renderer, and evaluator."""

from repro.rdf.sparql.ast import FilterClause, PropertyPath, SelectQuery, TriplePattern
from repro.rdf.sparql.evaluator import SparqlEngine
from repro.rdf.sparql.parser import parse_sparql
from repro.rdf.sparql.render import render_sparql

__all__ = [
    "SelectQuery",
    "TriplePattern",
    "PropertyPath",
    "FilterClause",
    "SparqlEngine",
    "parse_sparql",
    "render_sparql",
]
