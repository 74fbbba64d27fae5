"""Generated key columns through every keyed operator, against the row engine.

Joins, SORT and GROUP BY of the vectorized executor read one key grouping
(``repro.engine.columns.KeyGroups``) for every key type.  Whatever the key
column holds -- VARCHAR with '' and NULL, NULL-bearing INTEGER, integers
beyond int64, a second key column -- each operator must return the row
engine's rows (key order and value types included), ``elapsed_ms``, actual
cardinalities and metrics, cold and memoized.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.config import DbConfig
from repro.engine.database import Database
from repro.engine.executor import ExecutionMemo, Executor, VectorizedExecutor
from repro.engine.expressions import ColumnRef, Comparison
from repro.engine.plan.physical import (
    PopType,
    Qgm,
    group_by,
    index_scan,
    join,
    sort,
    table_scan,
)
from repro.engine.schema import Index, make_schema
from repro.engine.types import DataType

SETTINGS = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Key column type -> the values a row may hold in it.
KEY_VALUES = {
    DataType.VARCHAR: st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab"])),
    DataType.INTEGER: st.one_of(
        st.none(), st.integers(-3, 3), st.sampled_from([2**64, -(2**70), 2**70])
    ),
}
DECIMALS = st.one_of(st.none(), st.floats(-50, 50, allow_nan=False, width=32))

OPERATORS = [
    "HSJOIN",
    "HSJOIN bloom",
    "MSJOIN",
    "NLJOIN scanned inner",
    "NLJOIN index lookup",
    "SORT",
    "GROUP BY",
]


@st.composite
def tables(draw, kinds):
    """Rows of one table: an id, one value per key column, a DECIMAL.  Half
    the tables hold no NULL key (a merge join drains NULLs by side)."""
    count = draw(st.integers(0, 10))
    values = [KEY_VALUES[kind] for kind in kinds]
    if draw(st.booleans()):
        values = [strategy.filter(lambda value: value is not None) for strategy in values]
    return [
        {
            "id": i,
            "v": draw(DECIMALS),
            **{f"k{position}": draw(strategy) for position, strategy in enumerate(values)},
        }
        for i in range(count)
    ]


def build_database(kinds, left_rows, right_rows):
    db = Database(DbConfig(buffer_pool_pages=2))
    for table, prefix, rows in (("L", "l", left_rows), ("R", "r", right_rows)):
        columns = [(f"{prefix}_id", DataType.INTEGER), (f"{prefix}_v", DataType.DECIMAL)]
        columns += [(f"{prefix}_k{position}", kind) for position, kind in enumerate(kinds)]
        db.create_table(
            make_schema(table, columns, [Index(f"{table}_K0", table, f"{prefix}_k0")])
        )
        db.load_rows(
            table, [{f"{prefix}_{name}": value for name, value in row.items()} for row in rows]
        )
    return db


def build_plan(operator, key_count):
    keys = tuple(ColumnRef("l", f"l_k{position}") for position in range(key_count))
    if operator == "SORT":
        return Qgm(sort(table_scan("L", "l"), keys[-1]))
    if operator == "GROUP BY":
        aggregates = (
            ("COUNT", None),
            ("COUNT", ColumnRef("l", "l_k0")),
            ("SUM", ColumnRef("l", "l_v")),
            ("AVG", ColumnRef("l", "l_v")),
            ("MIN", ColumnRef("l", "l_k0")),
            ("MAX", ColumnRef("l", f"l_k{key_count - 1}")),
        )
        return Qgm(group_by(table_scan("L", "l"), keys, aggregates))
    predicates = tuple(
        Comparison("=", key, ColumnRef("r", f"r_k{position}"))
        for position, key in enumerate(keys)
    )
    inner = table_scan("R", "r")
    if operator == "NLJOIN index lookup":
        inner = index_scan("R", "r", "R_K0")
        inner.properties["nljoin_lookup"] = True
    pop_type = PopType[operator.split()[0]]
    return Qgm(
        join(pop_type, table_scan("L", "l"), inner, predicates, bloom_filter="bloom" in operator)
    )


def comparable(result):
    rows = [[(key, type(value), value) for key, value in row.items()] for row in result.rows]
    return rows, result.elapsed_ms, result.actual_cardinalities, result.metrics.as_dict()


@SETTINGS
@given(data=st.data())
def test_keyed_operators_equal_the_row_engine(data):
    kinds = data.draw(
        st.lists(st.sampled_from([DataType.VARCHAR, DataType.INTEGER]), min_size=1, max_size=2)
    )
    left_rows = data.draw(tables(kinds))
    right_rows = data.draw(tables(kinds))
    db = build_database(kinds, left_rows, right_rows)
    row_engine = Executor(db.catalog, db.config)
    engine = VectorizedExecutor(db.catalog, db.config)
    memo = ExecutionMemo()  # shared by every operator, as in a learning sweep
    for operator in OPERATORS:
        qgm = build_plan(operator, len(kinds))
        reference = comparable(row_engine.execute(qgm))
        assert comparable(engine.execute(qgm)) == reference, operator
        for _ in range(2):  # computed and stored, then replayed
            assert comparable(engine.execute(qgm, memo=memo)) == reference, operator
