"""The compiled row constructor against ``dict(zip(keys, values))``.

``Batch.to_rows`` builds result rows with a function generated for the
select list's keys.  Keys are arbitrary strings -- quotes, backslashes,
newlines, non-ASCII, Python keywords -- so the generated source must quote
them, and the rows must be ``dict(zip(keys, values))`` exactly: same values,
same key order, the same outcome for a repeated key.
"""

import ast
import keyword
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.executor.vectorized import Batch, row_constructor, row_constructor_source

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

KEYS = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["'", '"', "\\", "\n", "'''", '"""', "a'b\"c", "\\n", "éß中", "\U0001f600"]
        + ["v0", "__class__"]
        + keyword.kwlist
    ),
    st.builds(lambda alias, column: f"{alias}.{column}", st.text(max_size=4), st.text(max_size=6)),
)

VALUES = st.one_of(
    st.none(),
    st.just(math.nan),
    st.floats(allow_nan=True),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.text(max_size=8),
    st.booleans(),
)


@st.composite
def rows_of(draw):
    keys = tuple(draw(st.lists(KEYS, min_size=0, max_size=40)))
    row_count = draw(st.integers(0, 4))
    rows = [
        tuple(draw(st.lists(VALUES, min_size=len(keys), max_size=len(keys))))
        for _ in range(row_count)
    ]
    return keys, rows


def ordered(rows):
    return [tuple(row.items()) for row in rows]


@SETTINGS
@given(rows_of())
def test_rows_equal_dict_zip_in_key_order(case):
    keys, rows = case
    make = row_constructor(keys)
    assert ordered(make(*values) for values in rows) == ordered(
        dict(zip(keys, values)) for values in rows
    )


@SETTINGS
@given(st.lists(KEYS, min_size=0, max_size=40).map(tuple))
def test_source_is_a_dict_display_of_constant_keys(keys):
    tree = ast.parse(row_constructor_source(keys), mode="eval")
    function = tree.body
    assert isinstance(function, ast.Lambda)
    assert [argument.arg for argument in function.args.args] == [
        f"v{position}" for position in range(len(keys))
    ]
    display = function.body
    assert isinstance(display, ast.Dict)
    assert all(isinstance(key, ast.Constant) for key in display.keys)
    assert [key.value for key in display.keys] == list(keys)
    assert [value.id for value in display.values] == [
        f"v{position}" for position in range(len(keys))
    ]


@SETTINGS
@given(rows_of())
def test_batch_rows_compile_once_per_select_list(case):
    """``to_rows`` over two batches with the same select list: both equal
    ``dict(zip())`` on unique keys, and the constructor is compiled at most
    once for them -- the second batch, like any later plan with that select
    list, reuses it."""
    keys, rows = case
    unique = tuple(dict.fromkeys(keys))
    columns = {
        key: [values[keys.index(key)] for values in rows] for key in unique
    }
    expected = ordered(dict(zip(unique, (columns[key][row] for key in unique)))
                       for row in range(len(rows)))
    before = row_constructor.cache_info()
    assert ordered(Batch(((columns, None),), len(rows)).to_rows()) == expected
    assert ordered(Batch(((dict(columns), None),), len(rows)).to_rows()) == expected
    after = row_constructor.cache_info()
    if unique:
        assert after.misses - before.misses <= 1
        assert after.hits - before.hits >= 1
        assert row_constructor(unique) is row_constructor(tuple(dict.fromkeys(keys)))
