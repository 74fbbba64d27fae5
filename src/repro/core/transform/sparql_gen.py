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
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core import vocabulary as voc
from repro.engine.catalog import Catalog
from repro.engine.plan.physical import PlanNode

#: Prefix declarations emitted at the top of every generated query.
_PREFIXES = (
    f"PREFIX predURI: <{voc.PROP.base}>\n"
    f"PREFIX kbURI: <{voc.KBPROP.base}>\n"
)


class GeneratedSparql:
    """A generated SPARQL query plus the mapping from variables to plan nodes.

    The variable maps are a cheap walk of the sub-plan; the query text is the
    expensive part and only an evaluator needs it.  A caller may therefore
    pass ``text_source`` -- a zero-argument callable -- instead of ``text``:
    it runs on the first read of :attr:`text`, so a segment the knowledge
    base's index rejects outright never has its query written or parsed.
    """

    def __init__(
        self,
        text: Optional[str] = None,
        node_for_variable: Optional[Dict[str, PlanNode]] = None,
        label_variables: Optional[Dict[str, PlanNode]] = None,
        template_variable: str = "template",
        cardinality_tolerance: float = 1.0,
        text_source: Optional[Callable[[], str]] = None,
    ):
        if (text is None) == (text_source is None):
            raise ValueError("GeneratedSparql needs exactly one of text / text_source")
        self._text = text
        self._text_source = text_source
        #: variable name (without '?') -> the plan node it represents
        self.node_for_variable = node_for_variable if node_for_variable is not None else {}
        #: variable name of the table-label variable -> scan node it describes
        self.label_variables = label_variables if label_variables is not None else {}
        self.template_variable = template_variable
        #: tolerance the FILTER values were generated with (consumed by the
        #: knowledge base's index so its pre-filter applies the same comparison).
        self.cardinality_tolerance = cardinality_tolerance

    @property
    def text(self) -> str:
        if self._text is None:
            assert self._text_source is not None
            self._text = self._text_source()
        return self._text


class _InternalHandles:
    """Sequential ``?ih<N>`` allocator (the paper's internal handlers)."""

    def __init__(self) -> None:
        self._counter = 0

    def next(self) -> str:
        self._counter += 1
        return f"ih{self._counter}"


def _result_handler(node: PlanNode) -> str:
    """Variable name for one LOLEPOP (``pop_Q3`` for scans, ``pop_7`` otherwise)."""
    if node.is_scan and node.table_alias:
        return f"pop_{node.table_alias}"
    return f"pop_{node.operator_id}"


def _label_handler(node: PlanNode) -> str:
    """Variable name for a scan's table-label binding (``label_Q3``)."""
    return f"label_{node.table_alias or node.operator_id}"


def _format_value(value: float) -> str:
    if abs(value - round(value)) < 1e-9:
        return str(int(round(value)))
    return f"{value:.4f}"


def variable_maps_for(root: PlanNode) -> Tuple[Dict[str, PlanNode], Dict[str, PlanNode]]:
    """Rebuild the variable -> node mappings a generated query uses.

    Variable names are a pure function of the sub-plan (operator ids and table
    instances), so a cached SPARQL text can be re-attached to a structurally
    identical segment by recomputing only these maps.
    """
    node_for_variable: Dict[str, PlanNode] = {}
    label_variables: Dict[str, PlanNode] = {}
    for node in root.walk():
        node_for_variable[_result_handler(node)] = node
        if node.is_scan:
            label_variables[_label_handler(node)] = node
    return node_for_variable, label_variables


def segment_cache_key(
    root: PlanNode,
    catalog: Optional[Catalog] = None,
    check_row_size: bool = True,
    cardinality_tolerance: float = 1.0,
) -> Tuple:
    """Hashable key identifying the SPARQL text ``sparql_for_subplan`` emits.

    Two sub-plans with equal keys generate byte-identical queries: the key
    covers everything the text depends on -- operator ids and types, tree
    shape, cardinalities, and (for scans) the catalog statistics the FILTER
    values embed -- so cached text stays correct across RUNSTATS refreshes.
    """
    parts = []
    for node in root.walk():
        entry: Tuple = (
            node.display_type,
            node.operator_id,
            node.table_alias or "",
            len(node.inputs),
            float(node.estimated_cardinality),
        )
        if node.is_scan and node.table and catalog is not None and catalog.has_table(node.table):
            stats = catalog.statistics(node.table)
            schema = catalog.table_schema(node.table)
            entry += (stats.pages, schema.row_width)
        parts.append(entry)
    return (tuple(parts), bool(check_row_size), float(cardinality_tolerance))


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
    handles = _InternalHandles()
    nodes = list(root.walk())
    node_for_variable, label_variables = variable_maps_for(root)
    where: List[str] = []

    for node in nodes:
        variable = _result_handler(node)
        where.append(f" ?{variable} predURI:hasPopType '{node.display_type}' .")
        where.append(f" ?{variable} kbURI:inTemplate ?template .")

        cardinality = float(node.estimated_cardinality) * cardinality_tolerance
        low_handle = handles.next()
        where.append(f" ?{variable} predURI:hasLowerCardinality ?{low_handle} .")
        where.append(f"   FILTER ( ?{low_handle} <= {_format_value(cardinality)}) .")
        high_handle = handles.next()
        where.append(f" ?{variable} predURI:hasHigherCardinality ?{high_handle} .")
        where.append(
            f"   FILTER ( ?{high_handle} >= {_format_value(float(node.estimated_cardinality) / cardinality_tolerance)}) ."
        )

        if node.is_scan and node.table and catalog is not None and catalog.has_table(node.table):
            stats = catalog.statistics(node.table)
            schema = catalog.table_schema(node.table)
            fpages_low = handles.next()
            where.append(f" ?{variable} predURI:hasLowerFPages ?{fpages_low} .")
            where.append(f"   FILTER ( ?{fpages_low} <= {stats.pages}) .")
            fpages_high = handles.next()
            where.append(f" ?{variable} predURI:hasHigherFPages ?{fpages_high} .")
            where.append(f"   FILTER ( ?{fpages_high} >= {stats.pages}) .")
            if check_row_size:
                row_low = handles.next()
                where.append(f" ?{variable} predURI:hasLowerRowSize ?{row_low} .")
                where.append(f"   FILTER ( ?{row_low} <= {schema.row_width}) .")
                row_high = handles.next()
                where.append(f" ?{variable} predURI:hasHigherRowSize ?{row_high} .")
                where.append(f"   FILTER ( ?{row_high} >= {schema.row_width}) .")

        if node.is_scan:
            where.append(f" ?{variable} kbURI:hasTableLabel ?{_label_handler(node)} .")

    # Relationship handlers: one hasOutputStream edge per child -> parent link.
    for node in nodes:
        parent_variable = _result_handler(node)
        for child in node.inputs:
            child_variable = _result_handler(child)
            where.append(
                f" ?{child_variable} predURI:hasOutputStream ?{parent_variable} ."
            )

    # Uniqueness of template resources bound to distinct plan nodes.
    variables = [_result_handler(node) for node in nodes]
    for i in range(len(variables)):
        for j in range(i + 1, len(variables)):
            where.append(
                f"   FILTER (STR(?{variables[i]}) != STR(?{variables[j]})) ."
            )

    select_variables = ["?template"] + [f"?{name}" for name in node_for_variable]
    select_variables += [f"?{name}" for name in label_variables]
    text = (
        _PREFIXES
        + "SELECT "
        + " ".join(select_variables)
        + "\nWHERE {\n"
        + "\n".join(where)
        + "\n}"
    )
    return GeneratedSparql(
        text=text,
        node_for_variable=node_for_variable,
        label_variables=label_variables,
        cardinality_tolerance=cardinality_tolerance,
    )
