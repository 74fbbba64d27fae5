"""Renderer for the SPARQL subset: the inverse of :mod:`repro.rdf.sparql.parser`.

``parse_sparql(render_sparql(query)) == query`` for every query the parser can
produce: IRIs under a declared prefix are written as prefixed names, nested
``&&`` / ``||`` / ``!`` operands are parenthesized, and a number is written so
that it parses back to the same value.  One clause per line, as the paper
prints its matching queries (Figure 6).
"""

from __future__ import annotations

import re
from typing import Dict, Union

from repro.rdf.sparql.ast import (
    FilterComparison,
    FilterExpression,
    FilterLogical,
    FilterOperand,
    PropertyPath,
    SelectQuery,
    StrCall,
    TriplePattern,
)
from repro.rdf.terms import IRI, Literal, TermOrVariable, Variable

#: The local part of a prefixed name, as the parser's tokenizer accepts it.
_LOCAL_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")


def _number(value: Union[int, float]) -> str:
    if isinstance(value, int):
        return str(value)
    # Four decimals is how the generated queries state a bound; any other
    # float is written in full so that it parses back to itself.
    text = f"{value:.4f}"
    return text if float(text) == value else repr(value)


def _literal(literal: Literal) -> str:
    if literal.is_numeric:
        return _number(literal.value)
    text = str(literal.value)
    quote = '"' if "'" in text else "'"
    return f"{quote}{text}{quote}"


def _iri(iri: IRI, prefixes: Dict[str, str]) -> str:
    for prefix, base in prefixes.items():
        if iri.value.startswith(base) and _LOCAL_NAME.match(iri.value, len(base)):
            return f"{prefix}:{iri.value[len(base):]}"
    return iri.n3()


def _term(term: Union[TermOrVariable, PropertyPath], prefixes: Dict[str, str]) -> str:
    if isinstance(term, PropertyPath):
        return _iri(term.predicate, prefixes) + "+"
    if isinstance(term, IRI):
        return _iri(term, prefixes)
    if isinstance(term, Literal):
        return _literal(term)
    return term.n3()


def _operand(operand: FilterOperand) -> str:
    if isinstance(operand, StrCall):
        return f"STR({operand.operand.n3()})"
    if isinstance(operand, Variable):
        return operand.n3()
    return _literal(operand)


def _expression(expression: FilterExpression, nested: bool = False) -> str:
    if isinstance(expression, FilterComparison):
        return f"{_operand(expression.left)} {expression.op} {_operand(expression.right)}"
    if expression.op == "!":
        return f"!({_expression(expression.operands[0])})"
    text = f" {expression.op} ".join(
        _expression(operand, nested=isinstance(operand, FilterLogical))
        for operand in expression.operands
    )
    return f"({text})" if nested else text


def render_sparql(query: SelectQuery) -> str:
    """The text of ``query``, one clause per line."""
    prefixes = query.prefixes
    lines = [f"PREFIX {prefix}: <{base}>" for prefix, base in prefixes.items()]
    select = "SELECT DISTINCT" if query.distinct else "SELECT"
    projection = "*" if query.select_all else " ".join(v.n3() for v in query.variables)
    lines.append(f"{select} {projection}")
    lines.append("WHERE {")
    for element in query.where:
        if isinstance(element, TriplePattern):
            subject, predicate, obj = (
                _term(term, prefixes)
                for term in (element.subject, element.predicate, element.object)
            )
            lines.append(f" {subject} {predicate} {obj} .")
        else:
            lines.append(f"   FILTER ({_expression(element.expression)}) .")
    lines.append("}")
    if query.limit is not None:
        lines.append(f"LIMIT {query.limit}")
    return "\n".join(lines)
