"""QGM -> SPARQL translation (the other half of the transformation engine).

Given a sub-QGM of an incoming query, generate the SPARQL query that looks for
a matching problem-pattern template in the knowledge base (query-by-example,
Figure 6 of the paper).  The generated query uses the three handler kinds the
paper describes:

* *result handlers* ``?pop_<id>`` / ``?pop_<table instance>`` name the template
  resources each LOLEPOP of the sub-plan must bind to;
* *internal handlers* ``?ih<N>`` carry values used in FILTER clauses (the
  template's lower/upper bounds compared against the incoming plan's concrete
  cardinalities, FPages and row sizes);
* *relationship handlers* connect nodes through ``hasOutputStream``.

The query is built as a :class:`~repro.rdf.sparql.ast.SelectQuery` -- the form
the knowledge base evaluates -- and only on first read, so a segment the
knowledge base's index rejects outright has nothing built for it.  Its text
(:attr:`GeneratedSparql.text`) is a rendering of that AST, produced on demand
for whoever wants to look at the query; nothing on the matching path writes or
parses text.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import vocabulary as voc
from repro.engine.catalog import Catalog
from repro.engine.plan.physical import PlanNode
from repro.rdf.sparql.ast import (
    FilterClause,
    FilterComparison,
    SelectQuery,
    StrCall,
    TriplePattern,
    WhereElement,
)
from repro.rdf.sparql.render import render_sparql
from repro.rdf.terms import IRI, Literal, Variable

#: Prefix declarations of every generated query (its text abbreviates with them).
_PREFIXES = {"predURI": voc.PROP.base, "kbURI": voc.KBPROP.base}


class GeneratedSparql:
    """A matching query plus the mapping from its variables to plan nodes.

    The variable maps are a cheap walk of the sub-plan; the query is the
    expensive part and only an evaluator needs it, so it comes from
    ``query_source`` -- a zero-argument callable -- on the first read of
    :attr:`query`.  :attr:`text` is its rendering.
    """

    def __init__(
        self,
        query_source: Callable[[], SelectQuery],
        node_for_variable: Optional[Dict[str, PlanNode]] = None,
        label_variables: Optional[Dict[str, PlanNode]] = None,
        template_variable: str = "template",
        cardinality_tolerance: float = 1.0,
    ):
        self._query: Optional[SelectQuery] = None
        self._query_source = query_source
        #: variable name (without '?') -> the plan node it represents
        self.node_for_variable = node_for_variable if node_for_variable is not None else {}
        #: variable name of the table-label variable -> scan node it describes
        self.label_variables = label_variables if label_variables is not None else {}
        self.template_variable = template_variable
        #: tolerance the FILTER values were generated with (consumed by the
        #: knowledge base's index so its pre-filter applies the same comparison).
        self.cardinality_tolerance = cardinality_tolerance

    @property
    def query(self) -> SelectQuery:
        """The query as the evaluator takes it, built once."""
        if self._query is None:
            self._query = self._query_source()
        return self._query

    @property
    def query_built(self) -> bool:
        """Whether :attr:`query` has been read."""
        return self._query is not None

    @property
    def text(self) -> str:
        return render_sparql(self.query)


def _result_handler(node: PlanNode) -> str:
    """Variable name for one LOLEPOP (``pop_Q3`` for scans, ``pop_7`` otherwise)."""
    if node.is_scan and node.table_alias:
        return f"pop_{node.table_alias}"
    return f"pop_{node.operator_id}"


def _label_handler(node: PlanNode) -> str:
    """Variable name for a scan's table-label binding (``label_Q3``)."""
    return f"label_{node.table_alias or node.operator_id}"


def _bound_literal(value: float) -> Literal:
    """The number a cardinality FILTER compares with: whole when ``value`` is
    (to 1e-9), else rounded to the four decimals the text shows -- so the
    query and its rendering cannot disagree."""
    if abs(value - round(value)) < 1e-9:
        return Literal(int(round(value)))
    return Literal(float(f"{value:.4f}"))


def variable_maps_for(root: PlanNode) -> Tuple[Dict[str, PlanNode], Dict[str, PlanNode]]:
    """The variable -> node mappings of the query generated for ``root``.

    Variable names are a pure function of the sub-plan (operator ids and table
    instances).
    """
    node_for_variable: Dict[str, PlanNode] = {}
    label_variables: Dict[str, PlanNode] = {}
    for node in root.walk():
        node_for_variable[_result_handler(node)] = node
        if node.is_scan:
            label_variables[_label_handler(node)] = node
    return node_for_variable, label_variables


def sparql_for_subplan(
    root: PlanNode,
    catalog: Optional[Catalog] = None,
    check_row_size: bool = True,
    cardinality_tolerance: float = 1.0,
) -> GeneratedSparql:
    """Generate the knowledge-base matching query for the sub-plan ``root``.

    ``cardinality_tolerance`` scales the concrete values before they are
    compared with the template bounds (1.0 = exact containment as in the
    paper; larger values loosen the match).
    """
    node_for_variable, label_variables = variable_maps_for(root)
    selected = [*node_for_variable, *label_variables]
    return GeneratedSparql(
        query_source=lambda: _segment_query(
            root, catalog, check_row_size, cardinality_tolerance, selected
        ),
        node_for_variable=node_for_variable,
        label_variables=label_variables,
        cardinality_tolerance=cardinality_tolerance,
    )


def _segment_query(
    root: PlanNode,
    catalog: Optional[Catalog],
    check_row_size: bool,
    cardinality_tolerance: float,
    selected: List[str],
) -> SelectQuery:
    """The query-by-example for ``root``; ``selected`` names the result and
    label handlers it returns beside ``?template``."""
    template = Variable("template")
    #: Sequential ``?ih<N>`` (the paper's internal handlers).
    handles: Iterator[int] = itertools.count(1)
    where: List[WhereElement] = []

    def bound(variable: Variable, predicate: IRI, op: str, value: Literal) -> None:
        handle = Variable(f"ih{next(handles)}")
        where.append(TriplePattern(variable, predicate, handle))
        where.append(FilterClause(FilterComparison(op, handle, value)))

    nodes = list(root.walk())
    variables = [Variable(_result_handler(node)) for node in nodes]
    for node, variable in zip(nodes, variables):
        where.append(TriplePattern(variable, voc.HAS_POP_TYPE, Literal(node.display_type)))
        where.append(TriplePattern(variable, voc.IN_TEMPLATE, template))

        cardinality = float(node.estimated_cardinality)
        bound(variable, voc.HAS_LOWER_CARDINALITY, "<=",
              _bound_literal(cardinality * cardinality_tolerance))
        bound(variable, voc.HAS_HIGHER_CARDINALITY, ">=",
              _bound_literal(cardinality / cardinality_tolerance))

        if node.is_scan and node.table and catalog is not None and catalog.has_table(node.table):
            pages = Literal(catalog.statistics(node.table).pages)
            bound(variable, voc.HAS_LOWER_FPAGES, "<=", pages)
            bound(variable, voc.HAS_HIGHER_FPAGES, ">=", pages)
            if check_row_size:
                row_width = Literal(catalog.table_schema(node.table).row_width)
                bound(variable, voc.HAS_LOWER_ROW_SIZE, "<=", row_width)
                bound(variable, voc.HAS_HIGHER_ROW_SIZE, ">=", row_width)

        if node.is_scan:
            where.append(
                TriplePattern(variable, voc.HAS_TABLE_LABEL, Variable(_label_handler(node)))
            )

    # Relationship handlers: one hasOutputStream edge per child -> parent link.
    for node, variable in zip(nodes, variables):
        for child in node.inputs:
            where.append(
                TriplePattern(Variable(_result_handler(child)), voc.HAS_OUTPUT_STREAM, variable)
            )

    # Uniqueness of template resources bound to distinct plan nodes.
    for first, second in itertools.combinations(variables, 2):
        where.append(FilterClause(FilterComparison("!=", StrCall(first), StrCall(second))))

    return SelectQuery(
        variables=[template] + [Variable(name) for name in selected],
        where=where,
        prefixes=dict(_PREFIXES),
    )
