"""The catalog: registered tables, their data, indexes, and statistics."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.engine.config import DbConfig
from repro.engine.schema import Index, TableSchema
from repro.engine.statistics import TableStatistics, collect_table_statistics
from repro.engine.storage import TableData
from repro.errors import CatalogError


class Catalog:
    """Holds every table known to the engine, with data and statistics."""

    def __init__(self, config: Optional[DbConfig] = None):
        self.config = config or DbConfig()
        self._schemas: Dict[str, TableSchema] = {}
        self._data: Dict[str, TableData] = {}
        self._statistics: Dict[str, TableStatistics] = {}

    # -- DDL ---------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> TableData:
        key = schema.name.upper()
        if key in self._schemas:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._schemas[key] = schema
        data = TableData(schema)
        self._data[key] = data
        for index in schema.indexes:
            data.build_index(index)
        self._statistics[key] = TableStatistics(table=schema.name)
        return data

    def create_index(self, index: Index) -> None:
        schema = self.table_schema(index.table)
        schema.add_index(index)
        self.table_data(index.table).build_index(index)

    def drop_table(self, name: str) -> None:
        key = name.upper()
        if key not in self._schemas:
            raise CatalogError(f"table {name!r} does not exist")
        del self._schemas[key]
        del self._data[key]
        del self._statistics[key]

    # -- DML / stats -------------------------------------------------------

    def load_rows(self, table: str, rows: Iterable[dict]) -> int:
        """Insert rows and refresh the table's statistics (RUNSTATS).

        A batch that adds no row changes nothing the statistics describe, so
        they are left alone.
        """
        added = self.table_data(table).insert_rows(rows)
        if added:
            self.runstats(table)
        return added

    def runstats(self, table: str) -> TableStatistics:
        """Recompute statistics for ``table`` from its current data."""
        key = table.upper()
        stats = collect_table_statistics(self.table_schema(table), self.table_data(table))
        self._statistics[key] = stats
        return stats

    # -- lookups -----------------------------------------------------------

    def has_table(self, name: str) -> bool:
        return name.upper() in self._schemas

    def table_schema(self, name: str) -> TableSchema:
        try:
            return self._schemas[name.upper()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def table_data(self, name: str) -> TableData:
        try:
            return self._data[name.upper()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def statistics(self, name: str) -> TableStatistics:
        try:
            return self._statistics[name.upper()]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    @property
    def table_names(self) -> List[str]:
        return sorted(schema.name for schema in self._schemas.values())

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __len__(self) -> int:
        return len(self._schemas)
