"""Physical plan nodes (LOLEPOPs) and the QGM plan graph.

Terminology follows the paper: each plan operator is a *LOLEPOP* (low-level
plan operator) and a full plan -- the annotated operator tree the optimizer
emits -- is a *QGM* (query graph model).  Operator names match DB2's:
``TBSCAN``, ``IXSCAN``, ``FETCH``, ``HSJOIN``, ``MSJOIN``, ``NLJOIN``,
``SORT``, ``FILTER``, ``GRPBY``, ``RETURN``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.engine.expressions import ColumnRef, Comparison, Predicate
from repro.errors import PlanError

if TYPE_CHECKING:
    from repro.engine.sql.binder import BoundQuery


class PopType(Enum):
    """LOLEPOP operator kinds."""

    TBSCAN = "TBSCAN"
    IXSCAN = "IXSCAN"
    FETCH = "FETCH"
    HSJOIN = "HSJOIN"
    MSJOIN = "MSJOIN"
    NLJOIN = "NLJOIN"
    SORT = "SORT"
    FILTER = "FILTER"
    GRPBY = "GRPBY"
    RETURN = "RETURN"

    @property
    def is_join(self) -> bool:
        return self in (PopType.HSJOIN, PopType.MSJOIN, PopType.NLJOIN)

    @property
    def is_scan(self) -> bool:
        return self in (PopType.TBSCAN, PopType.IXSCAN, PopType.FETCH)


JOIN_TYPES: Tuple[PopType, ...] = (PopType.HSJOIN, PopType.MSJOIN, PopType.NLJOIN)
SCAN_TYPES: Tuple[PopType, ...] = (PopType.TBSCAN, PopType.IXSCAN)


@dataclass
class PlanNode:
    """One LOLEPOP in a QGM.

    Attributes
    ----------
    pop_type:
        The operator kind.
    inputs:
        Child operators; for joins ``inputs[0]`` is the *outer* input stream
        and ``inputs[1]`` the *inner* one (matching the guideline convention).
    table / table_alias:
        For scans, the base table name and the table instance ("Q1", "Q2", ...
        in the paper's figures; here the bound alias).
    index_name:
        For index scans, the index used.
    predicates:
        Local predicates applied at this operator.
    join_predicates:
        Equi-join predicates applied at a join operator.
    estimated_cardinality / estimated_cost:
        The optimizer's annotations (cost is cumulative, in timerons).  What
        an execution observed is not kept here: a planned node is read-only,
        and its actual cardinality lives in the execution's
        :attr:`~repro.engine.executor.executor.ExecutionResult.actual_cardinalities`,
        keyed by ``operator_id``.
    properties:
        Free-form extras: ``bloom_filter`` (hash joins), ``sorted_on`` (the
        column a SORT orders by), ``fetch`` (index scan fetches data pages),
        ``group_by`` / ``aggregates`` (GRPBY).
    """

    pop_type: PopType
    inputs: List["PlanNode"] = field(default_factory=list)
    table: Optional[str] = None
    table_alias: Optional[str] = None
    index_name: Optional[str] = None
    predicates: Tuple[Predicate, ...] = ()
    join_predicates: Tuple[Comparison, ...] = ()
    estimated_cardinality: float = 0.0
    estimated_cost: float = 0.0
    operator_id: int = 0
    properties: Dict[str, Any] = field(default_factory=dict)

    # -- structure helpers ---------------------------------------------------

    @property
    def outer(self) -> Optional["PlanNode"]:
        return self.inputs[0] if self.inputs else None

    @property
    def inner(self) -> Optional["PlanNode"]:
        return self.inputs[1] if len(self.inputs) > 1 else None

    @property
    def is_join(self) -> bool:
        return self.pop_type.is_join

    @property
    def is_scan(self) -> bool:
        return self.pop_type.is_scan

    @property
    def display_type(self) -> str:
        """Operator name as the paper prints it (F-IXSCAN for fetching scans)."""
        if self.pop_type is PopType.IXSCAN and self.properties.get("fetch"):
            return "F-IXSCAN"
        return self.pop_type.value

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree rooted at this node."""
        # An explicit stack: nested generators cost one frame per level for
        # every node yielded, and everything that lists a plan sits on this.
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.inputs))

    def scans(self) -> List["PlanNode"]:
        return [node for node in self.walk() if node.is_scan]

    def joins(self) -> List["PlanNode"]:
        return [node for node in self.walk() if node.is_join]

    def aliases(self) -> List[str]:
        """Table instances (aliases) covered by this subtree, in scan order."""
        return [node.table_alias for node in self.scans() if node.table_alias]

    def find_alias(self, alias: str) -> Optional["PlanNode"]:
        for node in self.scans():
            if node.table_alias == alias:
                return node
        return None

    def copy(self) -> "PlanNode":
        """Deep copy of the subtree (predicates are shared, they are immutable)."""
        return PlanNode(
            pop_type=self.pop_type,
            inputs=[child.copy() for child in self.inputs],
            table=self.table,
            table_alias=self.table_alias,
            index_name=self.index_name,
            predicates=self.predicates,
            join_predicates=self.join_predicates,
            estimated_cardinality=self.estimated_cardinality,
            estimated_cost=self.estimated_cost,
            operator_id=self.operator_id,
            properties=dict(self.properties),
        )

    # -- shape signatures ------------------------------------------------------

    def shape_signature(self) -> str:
        """A canonical string describing operator types and tree shape only.

        Table and column names are *not* included -- two plans over different
        tables but the same operator structure share a signature.  This is the
        abstraction the knowledge base relies on.
        """
        if self.is_scan:
            return self.display_type
        children = ",".join(child.shape_signature() for child in self.inputs)
        return f"{self.display_type}({children})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        target = f" {self.table}({self.table_alias})" if self.table else ""
        return (
            f"<{self.display_type}#{self.operator_id}{target} "
            f"card={self.estimated_cardinality:.4g}>"
        )


class Qgm:
    """A complete query execution plan: a RETURN-rooted LOLEPOP tree.

    ``query`` is the bound statement the optimizer planned this for (None for
    a plan built some other way): re-planning the statement under guidelines
    passes it back to :meth:`repro.engine.database.Database.explain`, so a
    request is parsed and bound once.

    A plan is read-only once the optimizer has numbered it: executing it
    writes nothing into its nodes, so one plan is shared by the plan cache,
    the prepared-statement lane and every thread that runs it.  Callers that
    want their own ``query_name`` take a :meth:`renamed` view.
    """

    def __init__(
        self,
        root: PlanNode,
        sql: str = "",
        query_name: str = "",
        query: Optional["BoundQuery"] = None,
    ):
        if root.pop_type is not PopType.RETURN:
            root = PlanNode(pop_type=PopType.RETURN, inputs=[root],
                            estimated_cardinality=root.estimated_cardinality,
                            estimated_cost=root.estimated_cost)
        self.root = root
        self.sql = sql
        self.query_name = query_name
        self.query = query
        self.assign_operator_ids()

    # -- numbering -------------------------------------------------------------

    def assign_operator_ids(self) -> None:
        """Number operators in pre-order starting from 1 (RETURN gets 1)."""
        for operator_id, node in enumerate(self.root.walk(), start=1):
            node.operator_id = operator_id

    # -- traversal --------------------------------------------------------------

    def nodes(self) -> List[PlanNode]:
        return list(self.root.walk())

    def node_by_id(self, operator_id: int) -> PlanNode:
        for node in self.root.walk():
            if node.operator_id == operator_id:
                return node
        raise PlanError(f"no LOLEPOP with operator id {operator_id}")

    def joins(self) -> List[PlanNode]:
        return self.root.joins()

    def scans(self) -> List[PlanNode]:
        return self.root.scans()

    def aliases(self) -> List[str]:
        return self.root.aliases()

    @property
    def join_count(self) -> int:
        return len(self.joins())

    @property
    def total_cost(self) -> float:
        return self.root.estimated_cost

    @property
    def estimated_cardinality(self) -> float:
        return self.root.estimated_cardinality

    def renamed(self, query_name: str) -> "Qgm":
        """This plan under another ``query_name``: the same numbered nodes,
        no copy and no renumbering walk."""
        view = Qgm.__new__(Qgm)
        view.root = self.root
        view.sql = self.sql
        view.query_name = query_name
        view.query = self.query
        return view

    def shape_signature(self) -> str:
        return self.root.shape_signature()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Qgm {self.query_name or 'anonymous'} cost={self.total_cost:.4g}>"


# ---------------------------------------------------------------------------
# Construction helpers used by the optimizer, the random plan generator and
# the tests.  They build un-costed nodes; costing is the optimizer's job.
# ---------------------------------------------------------------------------

def table_scan(table: str, alias: str, predicates: Tuple[Predicate, ...] = ()) -> PlanNode:
    """Build a TBSCAN leaf."""
    return PlanNode(
        pop_type=PopType.TBSCAN, table=table, table_alias=alias, predicates=predicates
    )


def index_scan(
    table: str,
    alias: str,
    index_name: str,
    predicates: Tuple[Predicate, ...] = (),
    fetch: bool = True,
) -> PlanNode:
    """Build an IXSCAN leaf (``fetch=True`` models the FETCH over the index)."""
    node = PlanNode(
        pop_type=PopType.IXSCAN,
        table=table,
        table_alias=alias,
        index_name=index_name,
        predicates=predicates,
    )
    node.properties["fetch"] = fetch
    return node


def join(
    join_type: PopType,
    outer: PlanNode,
    inner: PlanNode,
    join_predicates: Tuple[Comparison, ...],
    bloom_filter: bool = False,
) -> PlanNode:
    """Build a join node with the given outer/inner inputs."""
    if not join_type.is_join:
        raise PlanError(f"{join_type} is not a join operator")
    node = PlanNode(
        pop_type=join_type,
        inputs=[outer, inner],
        join_predicates=join_predicates,
    )
    if join_type is PopType.HSJOIN and bloom_filter:
        node.properties["bloom_filter"] = True
    return node


def sort(child: PlanNode, sort_key: ColumnRef) -> PlanNode:
    """Build a SORT over ``child`` ordering on ``sort_key``."""
    node = PlanNode(pop_type=PopType.SORT, inputs=[child])
    node.properties["sorted_on"] = sort_key
    return node


def filter_node(child: PlanNode, predicates: Tuple[Predicate, ...]) -> PlanNode:
    """Build a residual FILTER node."""
    return PlanNode(pop_type=PopType.FILTER, inputs=[child], predicates=predicates)


def group_by(child: PlanNode, keys: Tuple[ColumnRef, ...], aggregates: Tuple) -> PlanNode:
    """Build a GRPBY (hash aggregation) node."""
    node = PlanNode(pop_type=PopType.GRPBY, inputs=[child])
    node.properties["group_by"] = keys
    node.properties["aggregates"] = aggregates
    return node
