"""Abstract syntax tree for the SPARQL subset GALO generates.

The subset covers everything the paper's matching engine emits (Figure 6):
basic graph patterns with prefixed predicates, numeric and string FILTERs,
the ``STR()`` function, property paths (``predicate+``), ``DISTINCT`` and
``LIMIT``.  The matching engine builds these objects directly
(:mod:`repro.core.transform.sparql_gen`); :mod:`repro.rdf.sparql.parser` reads
them from text and :mod:`repro.rdf.sparql.render` writes them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.rdf.terms import IRI, Literal, TermOrVariable, Variable


@dataclass(frozen=True)
class PropertyPath:
    """A property path: currently ``iri+`` (one or more hops)."""

    predicate: IRI
    one_or_more: bool = True


@dataclass(frozen=True)
class TriplePattern:
    """One triple pattern; any position may be a variable."""

    subject: TermOrVariable
    predicate: Union[IRI, Variable, PropertyPath]
    object: TermOrVariable

    def variables(self) -> List[Variable]:
        out: List[Variable] = []
        for term in (self.subject, self.predicate, self.object):
            if isinstance(term, Variable):
                out.append(term)
        return out


# --- filter expressions -----------------------------------------------------


@dataclass(frozen=True)
class StrCall:
    """``STR(?var)`` -- the string form of a bound term."""

    operand: Variable


FilterOperand = Union[Variable, Literal, StrCall]


@dataclass(frozen=True)
class FilterComparison:
    """``left <op> right`` inside a FILTER."""

    op: str
    left: FilterOperand
    right: FilterOperand

    def variables(self) -> List[Variable]:
        out: List[Variable] = []
        for operand in (self.left, self.right):
            if isinstance(operand, Variable):
                out.append(operand)
            elif isinstance(operand, StrCall):
                out.append(operand.operand)
        return out


@dataclass(frozen=True)
class FilterLogical:
    """``&&`` / ``||`` / ``!`` combination of filter expressions."""

    op: str
    operands: Tuple["FilterExpression", ...]

    def variables(self) -> List[Variable]:
        out: List[Variable] = []
        for operand in self.operands:
            out.extend(operand.variables())
        return out


FilterExpression = Union[FilterComparison, FilterLogical]


@dataclass(frozen=True)
class FilterClause:
    """A FILTER(...) element of the WHERE clause."""

    expression: FilterExpression

    def variables(self) -> List[Variable]:
        return self.expression.variables()


WhereElement = Union[TriplePattern, FilterClause]


@dataclass
class SelectQuery:
    """A SELECT query."""

    variables: List[Variable] = field(default_factory=list)
    select_all: bool = False
    distinct: bool = False
    where: List[WhereElement] = field(default_factory=list)
    limit: Optional[int] = None
    prefixes: Dict[str, str] = field(default_factory=dict)

    @property
    def patterns(self) -> List[TriplePattern]:
        return [element for element in self.where if isinstance(element, TriplePattern)]

    @property
    def filters(self) -> List[FilterClause]:
        return [element for element in self.where if isinstance(element, FilterClause)]
