"""SQL data types supported by the engine.

The workloads in the paper (TPC-DS and an IBM client warehouse) only need a
small set of scalar types.  Dates are stored as integer ordinals ("days since
epoch") which keeps comparisons and histograms purely numeric while still
round-tripping through SQL literals of the form ``'YYYY-MM-DD'``.
"""

from __future__ import annotations

import datetime
import math
from enum import Enum
from typing import Any, Optional


class DataType(Enum):
    """Scalar column types."""

    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    VARCHAR = "VARCHAR"
    DATE = "DATE"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.DECIMAL, DataType.DATE)


_EPOCH = datetime.date(1970, 1, 1)


def date_to_ordinal(text: str) -> int:
    """Convert a ``'YYYY-MM-DD'`` string to days since 1970-01-01."""
    year, month, day = (int(part) for part in text.split("-"))
    return (datetime.date(year, month, day) - _EPOCH).days


def ordinal_to_date(ordinal: int) -> str:
    """Convert days since 1970-01-01 back to a ``'YYYY-MM-DD'`` string."""
    return (_EPOCH + datetime.timedelta(days=int(ordinal))).isoformat()


def coerce_value(value: Any, data_type: DataType) -> Optional[Any]:
    """Coerce ``value`` into the Python representation used for ``data_type``.

    ``None`` is passed through (SQL NULL).  Strings that look like dates are
    converted to ordinals for DATE columns so that literals written in SQL text
    compare correctly against stored values.  A value the type cannot hold --
    NaN included, for DECIMAL -- raises ``ValueError``.
    """
    if value is None:
        return None
    if data_type is DataType.INTEGER:
        return int(value)
    if data_type is DataType.DECIMAL:
        number = float(value)
        if math.isnan(number):  # DB2's DECIMAL holds no NaN
            raise ValueError(f"could not convert {value!r} to DECIMAL: NaN")
        return number
    if data_type is DataType.DATE:
        if isinstance(value, str):
            return date_to_ordinal(value)
        return int(value)
    return str(value)


def row_width_for(data_type: DataType) -> int:
    """Approximate width in bytes of one value, used for row-size estimates."""
    widths = {
        DataType.INTEGER: 4,
        DataType.DECIMAL: 8,
        DataType.DATE: 4,
        DataType.VARCHAR: 24,
    }
    return widths[data_type]
