"""Abstract syntax tree for the supported SQL subset.

The workloads in the paper are analytic star-join queries:

.. code-block:: sql

    SELECT i_item_desc, i_category, SUM(ws_sales_price)
    FROM   web_sales, item, date_dim
    WHERE  ws_item_sk = i_item_sk
      AND  i_category = 'Jewelry'
      AND  ws_sold_date_sk = d_date_sk
      AND  d_date BETWEEN '2016-01-01' AND '2016-12-31'
    GROUP BY i_item_desc, i_category
    ORDER BY i_item_desc

The AST keeps raw (unresolved) column names; the binder resolves them against
the catalog into :class:`repro.engine.expressions.ColumnRef` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


@dataclass(frozen=True)
class RawColumn:
    """An unresolved column reference as written in the SQL text."""

    name: str
    qualifier: Optional[str] = None

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class RawLiteral:
    """A literal constant as written in the SQL text."""

    value: Any


@dataclass(frozen=True)
class SelectItem:
    """One item of the SELECT list.

    ``aggregate`` is None for a plain column, otherwise one of
    ``COUNT``, ``SUM``, ``AVG``, ``MIN``, ``MAX``.  ``COUNT(*)`` is represented
    with ``column=None``.
    """

    column: Optional[RawColumn]
    aggregate: Optional[str] = None
    alias: Optional[str] = None

    @property
    def is_aggregate(self) -> bool:
        return self.aggregate is not None


@dataclass(frozen=True)
class RawCondition:
    """One WHERE conjunct before binding.

    ``kind`` is one of ``comparison``, ``between``, ``in``, ``isnull``,
    ``isnotnull``.  For comparisons ``left``/``right`` are RawColumn or
    RawLiteral; for between/in the extra operands live in ``operands``.
    """

    kind: str
    left: Any
    op: Optional[str] = None
    right: Any = None
    operands: Tuple[Any, ...] = ()


@dataclass(frozen=True)
class TableRef:
    """A FROM-list entry: table name plus optional alias."""

    table: str
    alias: Optional[str] = None


@dataclass
class SelectStatement:
    """A parsed SELECT statement."""

    select_items: List[SelectItem] = field(default_factory=list)
    from_tables: List[TableRef] = field(default_factory=list)
    where: List[RawCondition] = field(default_factory=list)
    group_by: List[RawColumn] = field(default_factory=list)
    order_by: List[RawColumn] = field(default_factory=list)
    select_star: bool = False
