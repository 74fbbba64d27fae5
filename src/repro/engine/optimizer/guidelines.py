"""OPTGUIDELINES documents.

A guideline document is an XML fragment (Figure 5 of the paper) submitted with
a query that *suggests* plan decisions to the cost-based optimizer: join
methods, join order (the order of child elements -- first child is the outer
input, second the inner), and access methods.  Unspecified aspects remain
cost-based, and a guideline that is incompatible with the rest of the plan is
silently ignored -- both behaviours match the paper.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.engine.optimizer.builder import PlanBuilder
from repro.engine.plan.physical import PlanNode, PopType
from repro.engine.sql.binder import BoundQuery
from repro.errors import GuidelineError

_JOIN_TAGS = {"HSJOIN", "MSJOIN", "NLJOIN"}
_ACCESS_TAGS = {"TBSCAN", "IXSCAN"}


@dataclass(frozen=True)
class GuidelineAccess:
    """A forced access method for one table instance."""

    method: str
    tabid: Optional[str] = None
    table: Optional[str] = None
    index: Optional[str] = None

    def aliases(self) -> List[str]:
        return [self.tabid] if self.tabid else []


@dataclass(frozen=True)
class GuidelineJoin:
    """A forced join: method plus outer (first) and inner (second) children."""

    method: str
    outer: "GuidelineElement"
    inner: "GuidelineElement"
    bloom_filter: bool = False

    def aliases(self) -> List[str]:
        return self.outer.aliases() + self.inner.aliases()


GuidelineElement = Union[GuidelineAccess, GuidelineJoin]


@dataclass
class GuidelineDocument:
    """An OPTGUIDELINES document: an ordered list of guideline elements."""

    elements: List[GuidelineElement] = field(default_factory=list)

    def aliases(self) -> List[str]:
        out: List[str] = []
        for element in self.elements:
            out.extend(element.aliases())
        return out

    # -- XML serialization -------------------------------------------------

    def to_xml(self) -> str:
        root = ET.Element("OPTGUIDELINES")
        for element in self.elements:
            root.append(_element_to_xml(element))
        _indent(root)
        return ET.tostring(root, encoding="unicode")

    @property
    def is_empty(self) -> bool:
        return not self.elements

    def __len__(self) -> int:
        return len(self.elements)


def _element_to_xml(element: GuidelineElement) -> ET.Element:
    if isinstance(element, GuidelineAccess):
        node = ET.Element(element.method.upper())
        if element.tabid:
            node.set("TABID", element.tabid)
        if element.table:
            node.set("TABLE", element.table)
        if element.index:
            node.set("INDEX", f'"{element.index}"')
        return node
    node = ET.Element(element.method.upper())
    if element.bloom_filter:
        node.set("BLOOMFILTER", "TRUE")
    node.append(_element_to_xml(element.outer))
    node.append(_element_to_xml(element.inner))
    return node


def _indent(element: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(element):
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in element:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not element[-1].tail or not element[-1].tail.strip():
            element[-1].tail = pad
    elif level and (not element.tail or not element.tail.strip()):
        element.tail = pad


def parse_guidelines(xml_text: str) -> GuidelineDocument:
    """Parse an OPTGUIDELINES XML document."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise GuidelineError(f"malformed guideline XML: {exc}") from exc
    if root.tag.upper() != "OPTGUIDELINES":
        raise GuidelineError(f"expected <OPTGUIDELINES> root, found <{root.tag}>")
    document = GuidelineDocument()
    for child in root:
        document.elements.append(_parse_element(child))
    return document


def _parse_element(node: ET.Element) -> GuidelineElement:
    tag = node.tag.upper()
    if tag in _ACCESS_TAGS:
        index = node.get("INDEX")
        if index:
            index = index.strip('"')
        return GuidelineAccess(
            method=tag,
            tabid=node.get("TABID"),
            table=node.get("TABLE"),
            index=index,
        )
    if tag in _JOIN_TAGS:
        children = list(node)
        if len(children) != 2:
            raise GuidelineError(
                f"join element <{tag}> must have exactly two children, "
                f"found {len(children)}"
            )
        return GuidelineJoin(
            method=tag,
            outer=_parse_element(children[0]),
            inner=_parse_element(children[1]),
            bloom_filter=(node.get("BLOOMFILTER", "").upper() == "TRUE"),
        )
    raise GuidelineError(f"unsupported guideline element <{node.tag}>")


# ---------------------------------------------------------------------------
# Turning guidelines into forced plan fragments
# ---------------------------------------------------------------------------

def guideline_from_plan(node: PlanNode) -> GuidelineElement:
    """Derive a guideline element from a (sub-)plan -- used by GALO when it
    stores a recommended rewrite in the knowledge base."""
    if node.pop_type in (PopType.SORT, PopType.FILTER, PopType.GRPBY, PopType.RETURN):
        if not node.inputs:
            raise GuidelineError(f"cannot derive a guideline from {node.pop_type}")
        return guideline_from_plan(node.inputs[0])
    if node.is_scan:
        method = "IXSCAN" if node.pop_type is PopType.IXSCAN else "TBSCAN"
        return GuidelineAccess(
            method=method,
            tabid=node.table_alias,
            index=node.index_name,
        )
    if node.is_join:
        assert node.outer is not None and node.inner is not None
        return GuidelineJoin(
            method=node.pop_type.value,
            outer=guideline_from_plan(node.outer),
            inner=guideline_from_plan(node.inner),
            bloom_filter=bool(node.properties.get("bloom_filter")),
        )
    raise GuidelineError(f"cannot derive a guideline from {node.pop_type}")


def build_forced_plan(
    builder: PlanBuilder, query: BoundQuery, element: GuidelineElement
) -> Optional[PlanNode]:
    """Build the annotated plan fragment a guideline element dictates.

    Returns ``None`` when the guideline is not applicable to ``query`` (an
    alias it names is absent, or the forced join has no connecting predicate);
    the optimizer then ignores it, exactly as DB2 would.
    """
    try:
        return _build_element(builder, query, element)
    except GuidelineError:
        return None


def _resolve_alias(query: BoundQuery, access: GuidelineAccess) -> str:
    if access.tabid:
        for table in query.tables:
            if table.alias.upper() == access.tabid.upper():
                return table.alias
        raise GuidelineError(f"TABID {access.tabid!r} not present in the query")
    if access.table:
        matches = [t.alias for t in query.tables if t.table.upper() == access.table.upper()]
        if len(matches) == 1:
            return matches[0]
        raise GuidelineError(
            f"TABLE {access.table!r} is ambiguous or absent in the query"
        )
    raise GuidelineError("guideline access element needs TABID or TABLE")


def _build_element(
    builder: PlanBuilder, query: BoundQuery, element: GuidelineElement
) -> PlanNode:
    if isinstance(element, GuidelineAccess):
        alias = _resolve_alias(query, element)
        return builder.forced_access_path(alias, element.method, element.index)
    outer = _build_element(builder, query, element.outer)
    inner = _build_element(builder, query, element.inner)
    pair = builder.join_pair(outer, inner)
    if not pair.join_predicates:
        raise GuidelineError(
            f"guideline join {element.method} has no connecting join predicate"
        )
    return builder.make_join(
        PopType(element.method.upper()), outer, inner,
        bloom_filter=element.bloom_filter, pair=pair,
    )
