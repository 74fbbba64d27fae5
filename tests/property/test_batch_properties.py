"""``Batch`` over several tables against an oracle that materialises everything.

A batch keeps one position vector per input table and gathers a column on its
first read.  The oracle keeps the rows themselves: a join output is a list of
merged dicts, ``take`` indexes that list.  Whatever sequence of joins, takes
and projections a batch went through, each of its columns -- read in any
order, once or twice -- and its rows must be the oracle's.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.columns import ColumnVector, python_values
from repro.engine.executor.vectorized import Batch
from repro.engine.types import DataType

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

VALUES = st.one_of(st.none(), st.integers(-5, 5))


@st.composite
def tables(draw):
    """1-3 tables: a backing-column dict in one of the executor's three column
    forms, a scan's qualifying positions, and the rows those stand for."""
    out = []
    for alias in "ABC"[: draw(st.integers(1, 3))]:
        row_count = draw(st.integers(0, 6))
        columns, plain = {}, {}
        for name in "xyz"[: draw(st.integers(1, 3))]:
            values = draw(st.lists(VALUES, min_size=row_count, max_size=row_count))
            form = draw(st.sampled_from(["vector", "list", "array"]))
            key = f"{alias}.{name}"
            plain[key] = values
            if form == "vector":
                columns[key] = ColumnVector(DataType.INTEGER, values)
            elif form == "list":
                columns[key] = values
            else:
                columns[key] = np.asarray(values, dtype=object)
        positions = draw(
            st.lists(st.integers(0, row_count - 1), max_size=8) if row_count else st.just([])
        )
        if draw(st.booleans()):
            positions = np.asarray(positions, dtype=np.intp)
        rows = [{key: values[p] for key, values in plain.items()} for p in positions]
        out.append((Batch.over(columns, positions), rows))
    return out


def picks_into(draw, length, as_array):
    picks = draw(st.lists(st.integers(0, length - 1), max_size=10) if length else st.just([]))
    return np.asarray(picks, dtype=np.intp) if as_array else picks


def assert_equals_rows(batch, rows, draw):
    assert batch.length == len(rows)
    keys = batch.keys()
    # Columns in a drawn order, some twice: the second read is the kept array.
    for key in draw(st.lists(st.sampled_from(keys), max_size=6)) if keys else []:
        assert python_values(batch.column(key)) == [row[key] for row in rows]
        assert batch.column(key) is batch.column(key)
    assert python_values(batch.column("Z.missing")) == [None] * len(rows)
    assert [tuple(row.items()) for row in batch.to_rows()] == [
        tuple(row.items()) for row in rows
    ]


@SETTINGS
@given(data=st.data())
def test_joined_taken_and_projected_batches_equal_the_materialised_rows(data):
    draw = data.draw
    (batch, rows), *rest = draw(tables())
    for inner, inner_rows in rest:
        # A join output: both sides at the join's picks, outer columns first.
        count = draw(st.integers(0, 8)) if batch.length and inner.length else 0
        outer_picks = [draw(st.integers(0, batch.length - 1)) for _ in range(count)]
        inner_picks = [draw(st.integers(0, inner.length - 1)) for _ in range(count)]
        if draw(st.booleans()):
            batch.column(draw(st.sampled_from(batch.keys())))  # read before joining
        rows = [{**rows[op], **inner_rows[ip]} for op, ip in zip(outer_picks, inner_picks)]
        if draw(st.booleans()):
            outer_picks = np.asarray(outer_picks, dtype=np.intp)
            inner_picks = np.asarray(inner_picks, dtype=np.intp)
        batch = Batch.joined(batch, outer_picks, inner, inner_picks)
        assert_equals_rows(batch, rows, draw)
    for _ in range(draw(st.integers(0, 3))):
        picks = picks_into(draw, batch.length, draw(st.booleans()))
        rows = [rows[int(p)] for p in picks]
        batch = batch.take(picks)
        assert_equals_rows(batch, rows, draw)
    keys = draw(st.lists(st.sampled_from(batch.keys()), max_size=4))
    gathered_before = len(batch._gathered)
    projected = batch.project(keys)
    assert len(batch._gathered) == gathered_before  # a select list gathers nothing
    assert_equals_rows(projected, [{key: row[key] for key in keys} for row in rows], draw)
    assert_equals_rows(batch, rows, draw)


@SETTINGS
@given(data=st.data())
def test_a_key_two_sources_carry_reads_from_the_inner_one(data):
    """The row engine's ``dict(outer).update(inner)``: first position, last value."""
    outer_values = data.draw(st.lists(VALUES, min_size=1, max_size=4))
    inner_values = data.draw(st.lists(VALUES, min_size=1, max_size=4))
    outer = Batch.over({"A.x": outer_values, "A.y": outer_values}, range(len(outer_values)))
    inner = Batch.over({"B.z": inner_values, "A.x": inner_values}, range(len(inner_values)))
    outer_picks = data.draw(st.lists(st.integers(0, len(outer_values) - 1), max_size=5))
    inner_picks = [
        data.draw(st.integers(0, len(inner_values) - 1)) for _ in outer_picks
    ]
    merged = Batch.joined(outer, outer_picks, inner, inner_picks)
    expected = []
    for op, ip in zip(outer_picks, inner_picks):
        row = {"A.x": outer_values[op], "A.y": outer_values[op]}
        row.update({"B.z": inner_values[ip], "A.x": inner_values[ip]})
        expected.append(row)
    assert [tuple(row.items()) for row in merged.to_rows()] == [
        tuple(row.items()) for row in expected
    ]
