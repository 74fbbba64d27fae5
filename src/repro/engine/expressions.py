"""Predicate and scalar expression trees.

Expressions are shared between the SQL AST, the optimizer (which estimates
their selectivity) and the executor (which evaluates them against rows).
Rows are dictionaries keyed by ``"<alias>.<column>"`` so the same expression
evaluates correctly before and after joins.

Two evaluation forms exist:

* :meth:`Predicate.evaluate` -- row-at-a-time, used by the row engine and
  the oracle the other form is tested against;
* :func:`filter_positions` -- array evaluation of a *position vector*
  against column arrays, used by the vectorized executor.  Each referenced
  column is read at the positions (typed values plus an explicit ``NULL``
  mask), numeric operands compare with ufuncs and everything else with
  Python's own comparisons element-wise on ``object`` arrays.  Only where
  one of those raises are the predicate's rows handed to ``evaluate`` one
  by one, so the accepted rows are exactly the ones ``evaluate`` accepts --
  including the ``NULL``-rejects-everything rule, the mixed-type
  compare-as-strings rule of :class:`Comparison`, and the left-to-right
  short-circuiting of :class:`And` / :class:`Or`.  Numeric operands take
  a ufunc only where float64 / int64 compare as Python does (an int array
  never against a float, whose conversion would round beyond 2**53).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columns import ColumnVector, as_index_array, null_split

Row = Dict[str, Any]


@dataclass(frozen=True)
class ColumnRef:
    """A reference to ``qualifier.column`` (qualifier = table alias)."""

    qualifier: str
    column: str

    @property
    def key(self) -> str:
        return f"{self.qualifier}.{self.column}"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.key


@dataclass(frozen=True)
class Literal:
    """A constant value (already coerced to its Python representation)."""

    value: Any

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


class Predicate:
    """Base class for boolean expressions."""

    def evaluate(self, row: Row) -> bool:
        raise NotImplementedError

    def referenced_columns(self) -> FrozenSet[ColumnRef]:
        raise NotImplementedError

    def referenced_qualifiers(self) -> FrozenSet[str]:
        return frozenset(ref.qualifier for ref in self.referenced_columns())


def _value_of(operand: Any, row: Row) -> Any:
    if isinstance(operand, ColumnRef):
        return row.get(operand.key)
    if isinstance(operand, Literal):
        return operand.value
    return operand


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Predicate):
    """``left <op> right`` where each side is a ColumnRef or Literal."""

    op: str
    left: Any
    right: Any

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, row: Row) -> bool:
        left = _value_of(self.left, row)
        right = _value_of(self.right, row)
        if left is None or right is None:
            return False
        try:
            return _COMPARATORS[self.op](left, right)
        except TypeError:
            return _COMPARATORS[self.op](str(left), str(right))

    def referenced_columns(self) -> FrozenSet[ColumnRef]:
        refs = set()
        for operand in (self.left, self.right):
            if isinstance(operand, ColumnRef):
                refs.add(operand)
        return frozenset(refs)

    @property
    def is_join_predicate(self) -> bool:
        """True when both sides are column references on different qualifiers."""
        return (
            isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
            and self.left.qualifier != self.right.qualifier
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Between(Predicate):
    """``column BETWEEN low AND high`` (inclusive)."""

    column: ColumnRef
    low: Literal
    high: Literal

    def evaluate(self, row: Row) -> bool:
        value = row.get(self.column.key)
        if value is None:
            return False
        return self.low.value <= value <= self.high.value

    def referenced_columns(self) -> FrozenSet[ColumnRef]:
        return frozenset({self.column})

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.column} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class InList(Predicate):
    """``column IN (v1, v2, ...)``."""

    column: ColumnRef
    values: Tuple[Any, ...]

    def evaluate(self, row: Row) -> bool:
        value = row.get(self.column.key)
        if value is None:
            return False
        return value in self.values

    def referenced_columns(self) -> FrozenSet[ColumnRef]:
        return frozenset({self.column})

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        rendered = ", ".join(
            f"'{value}'" if isinstance(value, str) else str(value)
            for value in self.values
        )
        return f"{self.column} IN ({rendered})"


@dataclass(frozen=True)
class IsNull(Predicate):
    """``column IS [NOT] NULL``."""

    column: ColumnRef
    negated: bool = False

    def evaluate(self, row: Row) -> bool:
        value = row.get(self.column.key)
        return (value is not None) if self.negated else (value is None)

    def referenced_columns(self) -> FrozenSet[ColumnRef]:
        return frozenset({self.column})

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.column} IS {'NOT ' if self.negated else ''}NULL"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates."""

    children: Tuple[Predicate, ...]

    def evaluate(self, row: Row) -> bool:
        return all(child.evaluate(row) for child in self.children)

    def referenced_columns(self) -> FrozenSet[ColumnRef]:
        refs: set = set()
        for child in self.children:
            refs |= child.referenced_columns()
        return frozenset(refs)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return " AND ".join(str(child) for child in self.children)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    children: Tuple[Predicate, ...]

    def evaluate(self, row: Row) -> bool:
        return any(child.evaluate(row) for child in self.children)

    def referenced_columns(self) -> FrozenSet[ColumnRef]:
        refs: set = set()
        for child in self.children:
            refs |= child.referenced_columns()
        return frozenset(refs)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "(" + " OR ".join(str(child) for child in self.children) + ")"


def conjuncts(predicate: Optional[Predicate]) -> List[Predicate]:
    """Flatten a predicate into its top-level AND conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, And):
        flattened: List[Predicate] = []
        for child in predicate.children:
            flattened.extend(conjuncts(child))
        return flattened
    return [predicate]


def conjunction(predicates: Sequence[Predicate]) -> Optional[Predicate]:
    """Combine predicates into a single AND (or None / the single predicate)."""
    predicates = [predicate for predicate in predicates if predicate is not None]
    if not predicates:
        return None
    if len(predicates) == 1:
        return predicates[0]
    return And(tuple(predicates))


# ---------------------------------------------------------------------------
# Array evaluation over position vectors
# ---------------------------------------------------------------------------

#: Column arrays: ``"<alias>.<column>"`` -> full value sequence (a
#: :class:`~repro.engine.columns.ColumnVector`, an ndarray or a list).
#: Position vectors index into these, so a scan filters directly over the
#: table's backing columns without materializing a dict per row.
Columns = Mapping[str, Sequence[Any]]

#: The comparison operators as ufuncs (raise instead of returning
#: ``NotImplemented``, on every NumPy version).
_UFUNCS = {
    "=": np.equal,
    "<>": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


def filter_positions(
    predicates: Sequence[Predicate], columns: Columns, positions: Sequence[int]
) -> Sequence[int]:
    """The ``positions`` whose rows satisfy every one of ``predicates``.

    Exactly the rows ``all(p.evaluate(row) for p in predicates)`` accepts, in
    position order, as an ``intp`` array (``positions`` come back as given
    when there are no predicates).  Each predicate sees only the rows the
    ones before it accepted, and raises where :meth:`Predicate.evaluate`
    raises on one of them.  A key absent from ``columns`` reads as an
    all-``NULL`` column, as ``row.get`` does.
    """
    if not predicates:
        return positions
    live = np.asarray(as_index_array(positions), dtype=np.intp)
    for predicate in predicates:
        if not len(live):
            break
        live = live[_accepts(predicate, columns, live)]
    return live


def _accepts(predicate: Predicate, columns: Columns, positions: Any) -> Any:
    """Boolean mask over ``positions``: the rows ``predicate`` accepts."""
    if isinstance(predicate, And):
        # ``all``'s short-circuit: child k sees the rows every earlier one accepted.
        live = np.arange(len(positions))
        for child in predicate.children:
            if not len(live):
                break
            live = live[_accepts(child, columns, positions[live])]
        return _mask_of(live, len(positions))
    if isinstance(predicate, Or):
        # ``any``'s short-circuit: child k sees the rows every earlier one rejected.
        rest = np.arange(len(positions))
        for child in predicate.children:
            if not len(rest):
                break
            rest = rest[~_accepts(child, columns, positions[rest])]
        return ~_mask_of(rest, len(positions))
    if isinstance(predicate, IsNull):
        nulls = _column_at(columns, predicate.column.key, positions)[1]
        if nulls is None:
            return np.full(len(positions), predicate.negated)
        return ~nulls if predicate.negated else nulls
    if isinstance(predicate, (Comparison, Between, InList)):
        return _accepts_non_null(predicate, columns, positions)
    raise TypeError(f"no array evaluation for {type(predicate).__name__}")


def _accepts_non_null(predicate: Predicate, columns: Columns, positions: Any) -> Any:
    """A comparison, BETWEEN or IN over the rows where none of its columns is
    ``NULL`` (every other row is rejected, as ``evaluate`` rejects it)."""
    keys = sorted({ref.key for ref in predicate.referenced_columns()})
    if not keys:
        # Constants only: one answer for every row.
        return np.full(len(positions), predicate.evaluate({}), dtype=bool)
    arrays = {}
    valid = None
    for key in keys:
        arrays[key], nulls = _column_at(columns, key, positions)
        if nulls is not None:
            valid = ~nulls if valid is None else valid & ~nulls
    if valid is None:
        return _compare_or_evaluate(predicate, arrays)
    keep = np.zeros(len(positions), dtype=bool)
    rows = np.flatnonzero(valid)
    if len(rows):
        keep[rows] = _compare_or_evaluate(
            predicate, {key: array[rows] for key, array in arrays.items()}
        )
    return keep


def _compare_or_evaluate(predicate: Predicate, values: Dict[str, Any]) -> Any:
    try:
        return _compare(predicate, values)
    except TypeError:
        return _evaluate_each(predicate, values)


def _compare(predicate: Predicate, values: Dict[str, Any]) -> Any:
    """``predicate`` over non-``NULL`` column values: a ufunc where every
    operand is numeric and the comparison exact, else Python's own
    comparisons element-wise on ``object`` arrays.  Raises ``TypeError``
    where one of those raises."""
    if isinstance(predicate, Comparison):
        operands = (_value_of(predicate.left, values), _value_of(predicate.right, values))
        if operands[0] is None or operands[1] is None:
            return np.zeros(len(next(iter(values.values()))), dtype=bool)
    elif isinstance(predicate, Between):
        operands = (predicate.low.value, values[predicate.column.key], predicate.high.value)
    else:
        operands = (values[predicate.column.key],) + tuple(predicate.values)
    numeric = _exact_in_numpy(operands)
    if not numeric:
        operands = tuple(_as_object(operand) for operand in operands)
    if isinstance(predicate, Comparison):
        return np.asarray(_UFUNCS[predicate.op](*operands), dtype=bool)
    if isinstance(predicate, Between):
        low, column, high = operands
        return np.asarray(np.less_equal(low, column) & np.less_equal(column, high), dtype=bool)
    column, members = operands[0], operands[1:]
    if numeric:
        return np.isin(column, list(members))
    hits = np.zeros(len(column), dtype=bool)
    for member in members:
        hits |= np.asarray(np.equal(column, member), dtype=bool)
    return hits


def _evaluate_each(predicate: Predicate, values: Dict[str, Any]) -> Any:
    """``predicate.evaluate`` row by row over the given column values: the rule
    for rows whose Python comparison raised (compare as strings, or raise)."""
    keys = list(values)
    columns = [values[key].tolist() for key in keys]
    return np.array(
        [predicate.evaluate(dict(zip(keys, row))) for row in zip(*columns)], dtype=bool
    )


def _column_at(columns: Columns, key: str, positions: Any) -> Tuple[Any, Any]:
    """Values of column ``key`` at ``positions`` and their ``NULL`` mask (None
    when none is ``NULL``): a column vector's typed view and null mask, an
    ndarray as it is, a plain list as an ``object`` array; an absent key
    reads as all ``NULL``."""
    column = columns.get(key)
    if column is None:
        return None, np.ones(len(positions), dtype=bool)
    if isinstance(column, ColumnVector):
        array, nulls = column.arrays()
        return array[positions], (None if nulls is None else nulls[positions])
    if not isinstance(column, np.ndarray):
        column = np.asarray(column, dtype=object)
    return null_split(column[positions])


#: Integers up to this magnitude are exact as float64 too.
_EXACT_IN_FLOAT = 2**53
_INT64 = (-(2**63), 2**63 - 1)


def _exact_in_numpy(operands: Tuple[Any, ...]) -> bool:
    """True when a ufunc over ``operands`` answers as Python would: int64 and
    float64 arrays and int / float constants (not bool), never an int array
    against a float (float64 rounds integers beyond 2**53)."""
    kinds = set()
    for operand in operands:
        if isinstance(operand, np.ndarray):
            kind = operand.dtype.kind
        elif isinstance(operand, float):
            kind = "f"
        elif isinstance(operand, int) and not isinstance(operand, bool):
            if abs(operand) <= _EXACT_IN_FLOAT:
                continue  # exact against either kind
            if not _INT64[0] <= operand <= _INT64[1]:
                return False
            kind = "i"
        else:
            return False
        kinds.add(kind)
    return len(kinds) == 1 and kinds <= {"i", "f"}


def _as_object(operand: Any) -> Any:
    """``operand`` as an ``object`` array (a constant as a 0-d one), so NumPy
    hands every element pair to Python's comparison."""
    if isinstance(operand, np.ndarray):
        return operand.astype(object, copy=False)
    boxed = np.empty((), dtype=object)
    boxed[()] = operand
    return boxed


def _mask_of(indices: Any, count: int) -> Any:
    mask = np.zeros(count, dtype=bool)
    mask[indices] = True
    return mask
