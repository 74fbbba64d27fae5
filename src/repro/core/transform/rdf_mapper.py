"""QGM -> RDF translation (half of the transformation engine).

Every LOLEPOP of a plan becomes an RDF resource under ``http://galo/qep/pop/``
carrying its type, estimated (and, when given, actual) cardinality, cost,
base-table attributes, and ``hasOutputStream`` / ``hasOuterInputStream`` /
``hasInnerInputStream`` edges -- exactly the representation the paper shows in
Section 3.1.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import vocabulary as voc
from repro.engine.catalog import Catalog
from repro.engine.plan.physical import PlanNode, Qgm
from repro.rdf.graph import Graph
from repro.rdf.terms import IRI, Literal


def _pop_iri(prefix: str, node: PlanNode) -> IRI:
    return voc.POP[f"{prefix}{node.operator_id}"]


def _add_node_triples(
    graph: Graph,
    node: PlanNode,
    resource: IRI,
    catalog: Optional[Catalog],
    actuals: Optional[Dict[int, int]],
) -> None:
    graph.add_triple(resource, voc.HAS_POP_TYPE, Literal(node.display_type))
    graph.add_triple(resource, voc.HAS_OPERATOR_ID, Literal(node.operator_id))
    graph.add_triple(
        resource, voc.HAS_ESTIMATE_CARDINALITY, Literal(round(float(node.estimated_cardinality), 4))
    )
    graph.add_triple(
        resource, voc.HAS_ESTIMATE_COST, Literal(round(float(node.estimated_cost), 4))
    )
    actual = actuals.get(node.operator_id) if actuals is not None else None
    if actual is not None:
        graph.add_triple(resource, voc.HAS_ACTUAL_CARDINALITY, Literal(int(actual)))
    if node.properties.get("bloom_filter"):
        graph.add_triple(resource, voc.HAS_BLOOM_FILTER, Literal("true"))
    if node.is_scan and node.table:
        graph.add_triple(resource, voc.HAS_TABLE_NAME, Literal(node.table))
        if node.table_alias:
            graph.add_triple(resource, voc.HAS_TABLE_INSTANCE, Literal(node.table_alias))
        if node.index_name:
            graph.add_triple(resource, voc.HAS_INDEX_NAME, Literal(node.index_name))
        if catalog is not None and catalog.has_table(node.table):
            stats = catalog.statistics(node.table)
            schema = catalog.table_schema(node.table)
            graph.add_triple(resource, voc.HAS_TABLE_CARDINALITY, Literal(stats.cardinality))
            graph.add_triple(resource, voc.HAS_FPAGES, Literal(stats.pages))
            graph.add_triple(resource, voc.HAS_ROW_SIZE, Literal(schema.row_width))


def subplan_to_rdf(
    root: PlanNode,
    catalog: Optional[Catalog] = None,
    resource_prefix: str = "",
    actuals: Optional[Dict[int, int]] = None,
) -> Graph:
    """Translate the subtree rooted at ``root`` into an RDF graph.

    ``resource_prefix`` namespaces the generated LOLEPOP resources so several
    plans can live in one graph without colliding.  ``actuals`` is an
    execution's :attr:`~repro.engine.executor.executor.ExecutionResult.actual_cardinalities`:
    given, every operator it covers carries its actual cardinality too.
    """
    graph = Graph()
    for node in root.walk():
        resource = _pop_iri(resource_prefix, node)
        _add_node_triples(graph, node, resource, catalog, actuals)
        for position, child in enumerate(node.inputs):
            child_resource = _pop_iri(resource_prefix, child)
            graph.add_triple(child_resource, voc.HAS_OUTPUT_STREAM, resource)
            if node.is_join:
                edge = voc.HAS_OUTER_INPUT_STREAM if position == 0 else voc.HAS_INNER_INPUT_STREAM
                graph.add_triple(resource, edge, child_resource)
    return graph


def qgm_to_rdf(
    qgm: Qgm,
    catalog: Optional[Catalog] = None,
    resource_prefix: str = "",
    actuals: Optional[Dict[int, int]] = None,
) -> Graph:
    """Translate a whole QGM into an RDF graph (``actuals`` as above)."""
    return subplan_to_rdf(qgm.root, catalog, resource_prefix, actuals)


def rdf_node_index(root: PlanNode, resource_prefix: str = "") -> Dict[int, IRI]:
    """Map operator ids of ``root``'s subtree to their RDF resources."""
    return {node.operator_id: _pop_iri(resource_prefix, node) for node in root.walk()}
