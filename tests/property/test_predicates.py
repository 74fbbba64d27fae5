"""Generated predicates through the array evaluator, against ``evaluate``.

``filter_positions`` must accept exactly the rows ``Predicate.evaluate``
accepts, in position order, and raise ``TypeError`` where ``evaluate`` raises
(BETWEEN over mixed types).  Columns come in every form the executor hands
it: storage ``ColumnVector`` s (INTEGER beyond int64 included, so an
``object`` typed view), gathered int64 / float64 / ``object`` ndarrays,
plain lists and an absent key.  Predicates are random trees of comparisons
(column-constant, constant-column, column-column), BETWEEN, IN, IS [NOT]
NULL and nested AND / OR over those columns.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.columns import ColumnVector
from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Or,
    filter_positions,
)
from repro.engine.types import DataType

SETTINGS = settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])

OPS = ["=", "<>", "<", "<=", ">", ">="]

#: Integers around the places float64 and int64 stop being exact.
INTEGERS = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63), 2**64, -(2**70)]),
)
#: DECIMAL holds no NaN (``coerce_value`` rejects it), and neither does SQL.
FLOATS = st.one_of(
    st.floats(-4, 4, allow_nan=False).map(lambda value: round(value * 2) / 2),
    st.sampled_from([2.0**53, 1e300, -0.0]),
)
STRINGS = st.sampled_from(["", "1", "a", "b", "ab", "-2"])
CONSTANTS = st.one_of(st.none(), st.booleans(), INTEGERS, FLOATS, STRINGS)


def nullable(values):
    return st.one_of(st.none(), values)


#: Column key -> (form, value strategy).  ``z.absent`` is never in ``columns``.
KEYS = {
    "t.i": ("INTEGER", nullable(INTEGERS)),
    "t.d": ("DECIMAL", nullable(FLOATS)),
    "t.s": ("VARCHAR", nullable(STRINGS)),
    "g.i": ("int64", st.integers(-4, 4)),
    "g.f": ("float64", FLOATS),
    "g.o": ("object", st.one_of(st.none(), st.integers(-4, 4), STRINGS)),
    "l.x": ("list", st.one_of(st.none(), st.integers(-4, 4), FLOATS, STRINGS)),
}
REFS = [ColumnRef(*key.split(".")) for key in KEYS] + [ColumnRef("z", "absent")]


def build_column(form, values):
    if form in ("INTEGER", "DECIMAL", "VARCHAR"):
        return ColumnVector(DataType(form), values)
    if form == "list":
        return list(values)
    if form == "object":
        array = np.empty(len(values), dtype=object)
        array[:] = values
        return array
    return np.asarray(values, dtype=form)


@st.composite
def tables(draw):
    """``(columns, python value lists)`` over ``count`` rows."""
    count = draw(st.integers(0, 12))
    columns, values = {}, {}
    for key, (form, strategy) in KEYS.items():
        values[key] = draw(st.lists(strategy, min_size=count, max_size=count))
        columns[key] = build_column(form, values[key])
    return count, columns, values


def operands():
    return st.one_of(st.sampled_from(REFS), CONSTANTS.map(Literal))


LEAVES = st.one_of(
    st.builds(Comparison, st.sampled_from(OPS), st.sampled_from(REFS), CONSTANTS.map(Literal)),
    st.builds(Comparison, st.sampled_from(OPS), CONSTANTS.map(Literal), st.sampled_from(REFS)),
    st.builds(Comparison, st.sampled_from(OPS), st.sampled_from(REFS), st.sampled_from(REFS)),
    st.builds(Comparison, st.sampled_from(OPS), operands(), operands()),
    st.builds(Between, st.sampled_from(REFS), CONSTANTS.map(Literal), CONSTANTS.map(Literal)),
    st.builds(
        InList,
        st.sampled_from(REFS),
        st.lists(CONSTANTS.filter(lambda value: value is not None), max_size=4).map(tuple),
    ),
    st.builds(IsNull, st.sampled_from(REFS), st.booleans()),
)
PREDICATES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, min_size=1, max_size=3).map(lambda kids: And(tuple(kids))),
        st.lists(children, min_size=1, max_size=3).map(lambda kids: Or(tuple(kids))),
    ),
    max_leaves=6,
)


@st.composite
def position_vectors(draw, count):
    kind = draw(st.sampled_from(["range", "scrambled", "empty"]))
    if kind == "range":
        return range(count)
    if kind == "empty" or count == 0:
        return []
    picks = draw(st.lists(st.integers(0, count - 1), max_size=2 * count))
    return np.asarray(picks, dtype=np.intp) if draw(st.booleans()) else picks


def oracle(predicates, values, positions):
    """The row engine: ``evaluate`` on each position's row dict, in order."""
    accepted = []
    for position in positions:
        row = {key: column[position] for key, column in values.items()}
        if all(predicate.evaluate(row) for predicate in predicates):
            accepted.append(position)
    return accepted


@SETTINGS
@given(data=st.data(), table=tables(), predicates=st.lists(PREDICATES, min_size=1, max_size=2))
def test_filter_positions_accepts_what_evaluate_accepts(data, table, predicates):
    count, columns, values = table
    positions = data.draw(position_vectors(count))
    try:
        expected = oracle(predicates, values, positions)
    except TypeError:
        with pytest.raises(TypeError):
            filter_positions(predicates, columns, positions)
        return
    got = filter_positions(predicates, columns, positions)
    assert isinstance(got, np.ndarray) and got.dtype == np.intp
    assert got.tolist() == expected


class TestPinnedCases:
    """The cases the generator must keep reaching, written out."""

    def test_int_array_against_a_string_compares_as_strings(self):
        # 3 < "a" raises, so evaluate compares "3" < "a": True for every row,
        # whatever NumPy would answer for an int64 array against a str.
        columns = {"g.i": np.asarray([3, -1, 40], dtype=np.int64)}
        predicate = Comparison("<", ColumnRef("g", "i"), Literal("a"))
        assert filter_positions([predicate], columns, range(3)).tolist() == [0, 1, 2]
        equal = Comparison("=", ColumnRef("g", "i"), Literal("3"))
        assert filter_positions([equal], columns, range(3)).tolist() == []

    def test_between_over_mixed_types_raises_like_evaluate(self):
        columns = {"t.s": ColumnVector(DataType.VARCHAR, ["a", None, "b"])}
        predicate = Between(ColumnRef("t", "s"), Literal(1), Literal(5))
        with pytest.raises(TypeError):
            predicate.evaluate({"t.s": "a"})
        with pytest.raises(TypeError):
            filter_positions([predicate], columns, range(3))
        # Only rows that reach it are evaluated: a NULL row does not raise.
        assert filter_positions([predicate], columns, [1]).tolist() == []

    def test_int_beyond_float_precision_compares_exactly(self):
        # float64 rounds 2**53 + 1 to 2**53; Python compares int and float exactly.
        columns = {"t.i": ColumnVector(DataType.INTEGER, [2**53 + 1, 2**53])}
        above = Comparison(">", ColumnRef("t", "i"), Literal(float(2**53)))
        assert filter_positions([above], columns, range(2)).tolist() == [0]
        decimals = {"t.d": ColumnVector(DataType.DECIMAL, [float(2**53)])}
        below = Comparison("<", ColumnRef("t", "d"), Literal(2**53 + 1))
        assert filter_positions([below], decimals, range(1)).tolist() == [0]

    def test_or_shows_each_child_only_the_rows_earlier_children_rejected(self):
        # The BETWEEN would raise on "a", but the first child accepts that row.
        columns = {"l.x": ["a", 2, None]}
        ref = ColumnRef("l", "x")
        predicate = Or((Comparison("=", ref, Literal("a")), Between(ref, Literal(1), Literal(3))))
        assert filter_positions([predicate], columns, [2, 1, 0, 1]).tolist() == [1, 0, 1]

    def test_and_shows_each_child_only_the_rows_earlier_children_accepted(self):
        # The BETWEEN would raise on "a", but the first child rejects that row.
        columns = {"l.x": ["a", 2, None]}
        ref = ColumnRef("l", "x")
        predicate = And((Comparison("=", ref, Literal(2)), Between(ref, Literal(1), Literal(3))))
        assert filter_positions([predicate], columns, [0, 1, 2, 1]).tolist() == [1, 1]
        # Likewise across the predicate list: the second sees what the first kept.
        first, second = predicate.children
        assert filter_positions([first, second], columns, range(3)).tolist() == [1]

    def test_no_predicates_return_the_positions_as_given(self):
        positions = range(4)
        assert filter_positions([], {}, positions) is positions
