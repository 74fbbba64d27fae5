"""Schema objects: columns, tables, and indexes.

These are pure descriptions; the data itself lives in
:class:`repro.engine.storage.TableData` and the derived statistics in
:class:`repro.engine.statistics.TableStatistics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.engine.types import DataType, row_width_for
from repro.errors import CatalogError


@dataclass(frozen=True)
class Column:
    """A column definition: name and scalar type."""

    name: str
    data_type: DataType

    @property
    def width(self) -> int:
        return row_width_for(self.data_type)


@dataclass(frozen=True)
class Index:
    """A (single-column) index definition.

    Attributes
    ----------
    name:
        Index name, referenced by guidelines (``INDEX='...'``).
    table:
        Name of the table the index belongs to.
    column:
        Indexed column.
    unique:
        Whether key values are unique.
    cluster_ratio:
        How well the physical row order follows the index order, in ``[0, 1]``.
        A poorly clustered index (low ratio) causes buffer-pool flooding during
        index scans that fetch many rows -- the Figure 4 problem pattern.
    """

    name: str
    table: str
    column: str
    unique: bool = False
    cluster_ratio: float = 0.95


@dataclass
class TableSchema:
    """A table definition: ordered columns plus any indexes."""

    name: str
    columns: List[Column] = field(default_factory=list)
    indexes: List[Index] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Resolved once: the binder asks for columns by name several times
        # per reference, and nothing changes ``columns`` after construction.
        self._columns_by_name: Dict[str, Column] = {}
        for column in self.columns:
            if column.name in self._columns_by_name:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            self._columns_by_name[column.name] = column
        self._row_width = sum(column.width for column in self.columns) or 1

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        column = self._columns_by_name.get(name)
        if column is None:
            raise CatalogError(f"table {self.name!r} has no column {name!r}")
        return column

    def has_column(self, name: str) -> bool:
        return name in self._columns_by_name

    def index_on(self, column_name: str) -> Optional[Index]:
        """Return an index whose key is ``column_name``, if one exists."""
        for index in self.indexes:
            if index.column == column_name:
                return index
        return None

    def index_named(self, index_name: str) -> Optional[Index]:
        for index in self.indexes:
            if index.name == index_name:
                return index
        return None

    def add_index(self, index: Index) -> None:
        if self.index_named(index.name) is not None:
            raise CatalogError(f"index {index.name!r} already exists")
        if not self.has_column(index.column):
            raise CatalogError(
                f"cannot index missing column {index.column!r} on {self.name!r}"
            )
        self.indexes.append(index)

    @property
    def row_width(self) -> int:
        """Approximate row width in bytes (used for page-count estimates)."""
        return self._row_width


def make_schema(
    name: str,
    columns: Sequence[tuple],
    indexes: Sequence[Index] = (),
) -> TableSchema:
    """Convenience constructor: ``columns`` is a sequence of (name, DataType)."""
    schema = TableSchema(
        name=name,
        columns=[Column(col_name, col_type) for col_name, col_type in columns],
    )
    for index in indexes:
        schema.add_index(index)
    return schema
