"""Predicate and scalar expression trees.

Expressions are shared between the SQL AST, the optimizer (which estimates
their selectivity) and the executor (which evaluates them against rows).
Rows are dictionaries keyed by ``"<alias>.<column>"`` so the same expression
evaluates correctly before and after joins.

Three evaluation forms exist:

* :meth:`Predicate.evaluate` -- row-at-a-time, used by the legacy executor;
* :func:`compile_predicate` -- compiles a predicate once into a column-wise
  closure that filters a *position vector* against column arrays, used by the
  vectorized executor.  Compiled predicates produce exactly the rows
  ``evaluate`` accepts (including the ``NULL``-rejects-everything and the
  mixed-type string-comparison fallback semantics of :class:`Comparison`, and
  the left-to-right short-circuiting of :class:`And` / :class:`Or`);
* the same :class:`CompiledPredicate` additionally carries a **vectorized
  mask form** when the predicate's shape allows it: comparisons, BETWEEN, IN
  and IS NULL over numeric typed columns (and their AND/OR combinations)
  evaluate as whole-array ufunc operations producing a boolean selection
  mask over the backing arrays, which the filter then gathers at the given
  positions.  The mask form is attempted first and silently declines --
  per expression, at runtime -- whenever a referenced column has no typed
  view (plain list, object dtype, missing column) or an operand is
  non-numeric, falling back to the closure form.  Both forms accept exactly
  the same rows in the same order; NULLs are excluded through the columns'
  explicit null masks, mirroring the ``NULL``-rejects-everything rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.engine.columns import ColumnVector, as_index_array

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
# Compiled (column-wise) predicate evaluation
# ---------------------------------------------------------------------------

#: Column arrays: ``"<alias>.<column>"`` -> full value list.  Position vectors
#: index into these arrays, so a scan can filter directly over the table's
#: backing columns without materializing a dict per row.
Columns = Mapping[str, Sequence[Any]]
FilterFn = Callable[[Columns, Sequence[int]], List[int]]
#: Vectorized form: full-length boolean qualification mask over the backing
#: arrays, or None when a referenced column has no usable typed view.
MaskFn = Callable[[Columns], Optional[Any]]

#: Below this many candidate positions the closure path wins: the mask form
#: always evaluates over the *full* backing arrays, which an index scan
#: qualifying a handful of rows should not pay for.  Pure heuristic -- both
#: forms accept identical rows.
_MIN_MASK_POSITIONS = 32


class CompiledPredicate:
    """A predicate compiled into a position-vector filter.

    ``filter(columns, positions)`` returns the sub-sequence of ``positions``
    whose rows satisfy the predicate, preserving order (an ndarray when the
    vectorized mask form ran, a list otherwise).  A column key absent from
    ``columns`` behaves like an all-``NULL`` column, matching ``row.get``.
    """

    __slots__ = ("predicate", "_filter", "_mask")

    def __init__(
        self,
        predicate: Predicate,
        filter_fn: FilterFn,
        mask_fn: Optional[MaskFn] = None,
    ):
        self.predicate = predicate
        self._filter = filter_fn
        self._mask = mask_fn

    def mask(self, columns: Columns) -> Optional[Any]:
        """Full-length boolean qualification mask, or None (not vectorizable).

        Callers must treat the returned array as read-only: IS NULL masks may
        alias a column's own null mask.
        """
        if self._mask is None:
            return None
        return self._mask(columns)

    def filter(self, columns: Columns, positions: Sequence[int]) -> Sequence[int]:
        if self._mask is not None and len(positions) >= _MIN_MASK_POSITIONS:
            mask = self._mask(columns)
            if mask is not None:
                index = as_index_array(positions)
                return index[mask[index]]
        return self._filter(columns, positions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledPredicate {self.predicate}>"


def _operand_key_or_const(operand: Any) -> Tuple[Optional[str], Any]:
    """Split an operand into (column key, None) or (None, constant value)."""
    if isinstance(operand, ColumnRef):
        return operand.key, None
    if isinstance(operand, Literal):
        return None, operand.value
    return None, operand


def _compile_comparison(predicate: Comparison) -> FilterFn:
    op = _COMPARATORS[predicate.op]
    left_key, left_const = _operand_key_or_const(predicate.left)
    right_key, right_const = _operand_key_or_const(predicate.right)

    if left_key is not None and right_key is not None:

        def filter_col_col(columns: Columns, positions: Sequence[int]) -> List[int]:
            left = columns.get(left_key)
            right = columns.get(right_key)
            if left is None or right is None:
                return []
            try:
                return [
                    i
                    for i in positions
                    if left[i] is not None
                    and right[i] is not None
                    and op(left[i], right[i])
                ]
            except TypeError:
                out = []
                for i in positions:
                    lv, rv = left[i], right[i]
                    if lv is None or rv is None:
                        continue
                    try:
                        keep = op(lv, rv)
                    except TypeError:
                        keep = op(str(lv), str(rv))
                    if keep:
                        out.append(i)
                return out

        return filter_col_col

    if left_key is not None:
        const = right_const
        if const is None:
            return lambda columns, positions: []

        def filter_col_const(columns: Columns, positions: Sequence[int]) -> List[int]:
            values = columns.get(left_key)
            if values is None:
                return []
            try:
                return [i for i in positions if values[i] is not None and op(values[i], const)]
            except TypeError:
                out = []
                for i in positions:
                    value = values[i]
                    if value is None:
                        continue
                    try:
                        keep = op(value, const)
                    except TypeError:
                        keep = op(str(value), str(const))
                    if keep:
                        out.append(i)
                return out

        return filter_col_const

    if right_key is not None:
        const = left_const
        if const is None:
            return lambda columns, positions: []

        def filter_const_col(columns: Columns, positions: Sequence[int]) -> List[int]:
            values = columns.get(right_key)
            if values is None:
                return []
            try:
                return [i for i in positions if values[i] is not None and op(const, values[i])]
            except TypeError:
                out = []
                for i in positions:
                    value = values[i]
                    if value is None:
                        continue
                    try:
                        keep = op(const, value)
                    except TypeError:
                        keep = op(str(const), str(value))
                    if keep:
                        out.append(i)
                return out

        return filter_const_col

    # Constant comparison: evaluate once.
    if left_const is None or right_const is None:
        return lambda columns, positions: []
    try:
        constant_true = op(left_const, right_const)
    except TypeError:
        constant_true = op(str(left_const), str(right_const))
    if constant_true:
        return lambda columns, positions: list(positions)
    return lambda columns, positions: []


def _compile_between(predicate: Between) -> FilterFn:
    key = predicate.column.key
    low = predicate.low.value
    high = predicate.high.value

    def filter_between(columns: Columns, positions: Sequence[int]) -> List[int]:
        values = columns.get(key)
        if values is None:
            return []
        return [i for i in positions if values[i] is not None and low <= values[i] <= high]

    return filter_between


def _compile_in_list(predicate: InList) -> FilterFn:
    key = predicate.column.key
    try:
        members: Any = frozenset(predicate.values)
    except TypeError:  # pragma: no cover - unhashable literals never parse
        members = predicate.values

    def filter_in(columns: Columns, positions: Sequence[int]) -> List[int]:
        values = columns.get(key)
        if values is None:
            return []
        return [i for i in positions if values[i] is not None and values[i] in members]

    return filter_in


def _compile_is_null(predicate: IsNull) -> FilterFn:
    key = predicate.column.key
    if predicate.negated:

        def filter_not_null(columns: Columns, positions: Sequence[int]) -> List[int]:
            values = columns.get(key)
            if values is None:
                return []
            return [i for i in positions if values[i] is not None]

        return filter_not_null

    def filter_null(columns: Columns, positions: Sequence[int]) -> List[int]:
        values = columns.get(key)
        if values is None:
            return list(positions)
        return [i for i in positions if values[i] is None]

    return filter_null


def _compile_and(predicate: And) -> FilterFn:
    children = [_compile(child) for child in predicate.children]

    def filter_and(columns: Columns, positions: Sequence[int]) -> List[int]:
        current: Sequence[int] = positions
        for child in children:
            if not current:
                break
            current = child(columns, current)
        return list(current)

    return filter_and


def _compile_or(predicate: Or) -> FilterFn:
    children = [_compile(child) for child in predicate.children]

    def filter_or(columns: Columns, positions: Sequence[int]) -> List[int]:
        # Mirror ``any``'s short-circuit: child k only ever sees the rows every
        # child before it rejected, so side effects (raises) match row order.
        matched: set = set()
        remaining: Sequence[int] = positions
        for child in children:
            if not remaining:
                break
            hits = child(columns, remaining)
            if hits:
                matched.update(hits)
                hit_set = set(hits)
                remaining = [i for i in remaining if i not in hit_set]
        return [i for i in positions if i in matched]

    return filter_or


def _compile_fallback(predicate: Predicate) -> FilterFn:
    """Row-at-a-time fallback for predicate classes without a compiled form."""

    def filter_rows(columns: Columns, positions: Sequence[int]) -> List[int]:
        keys = list(columns)
        out = []
        for i in positions:
            row = {key: columns[key][i] for key in keys}
            if predicate.evaluate(row):
                out.append(i)
        return out

    return filter_rows


def _compile(predicate: Predicate) -> FilterFn:
    if isinstance(predicate, Comparison):
        return _compile_comparison(predicate)
    if isinstance(predicate, Between):
        return _compile_between(predicate)
    if isinstance(predicate, InList):
        return _compile_in_list(predicate)
    if isinstance(predicate, IsNull):
        return _compile_is_null(predicate)
    if isinstance(predicate, And):
        return _compile_and(predicate)
    if isinstance(predicate, Or):
        return _compile_or(predicate)
    return _compile_fallback(predicate)


# ---------------------------------------------------------------------------
# Vectorized (whole-array mask) compilation
# ---------------------------------------------------------------------------


def _typed_view(values: Any) -> Optional[Tuple[Any, Optional[Any]]]:
    """``(array, null mask)`` of a column, or None when it has no typed view.

    Accepts the storage-backed :class:`~repro.engine.columns.ColumnVector`
    (typed view + mask) and raw non-object ndarrays (executor-gathered
    columns, null-free by construction).
    """
    if isinstance(values, ColumnVector):
        return values.arrays()
    if isinstance(values, np.ndarray) and values.dtype != object:
        return values, None
    return None


def _is_vector_constant(value: Any) -> bool:
    """Constants the ufunc path may compare against numeric columns.

    Strings (and any other type) must keep the closure path so the
    ``TypeError -> compare as str`` fallback semantics stay exact.
    """
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _non_null(mask: Any, nulls: Optional[Any]) -> Any:
    return mask if nulls is None else mask & ~nulls


def _mask_comparison(predicate: Comparison) -> Optional[MaskFn]:
    op = _COMPARATORS[predicate.op]
    left_key, left_const = _operand_key_or_const(predicate.left)
    right_key, right_const = _operand_key_or_const(predicate.right)

    if left_key is not None and right_key is not None:

        def mask_col_col(columns: Columns) -> Optional[Any]:
            left = _typed_view(columns.get(left_key))
            right = _typed_view(columns.get(right_key))
            if left is None or right is None:
                return None
            left_arr, left_nulls = left
            right_arr, right_nulls = right
            if left_arr.dtype == object or right_arr.dtype == object:
                return None
            return _non_null(_non_null(op(left_arr, right_arr), left_nulls), right_nulls)

        return mask_col_col

    key = left_key if left_key is not None else right_key
    if key is None:
        return None  # constant-only comparisons are already O(1) closures
    const = right_const if left_key is not None else left_const
    if not _is_vector_constant(const):
        return None
    flipped = left_key is None

    def mask_col_const(columns: Columns) -> Optional[Any]:
        pair = _typed_view(columns.get(key))
        if pair is None:
            return None
        array, nulls = pair
        if array.dtype == object:
            return None
        result = op(const, array) if flipped else op(array, const)
        return _non_null(result, nulls)

    return mask_col_const


def _mask_between(predicate: Between) -> Optional[MaskFn]:
    key = predicate.column.key
    low, high = predicate.low.value, predicate.high.value
    if not (_is_vector_constant(low) and _is_vector_constant(high)):
        return None

    def mask_between(columns: Columns) -> Optional[Any]:
        pair = _typed_view(columns.get(key))
        if pair is None:
            return None
        array, nulls = pair
        if array.dtype == object:
            return None
        return _non_null((array >= low) & (array <= high), nulls)

    return mask_between


def _mask_in_list(predicate: InList) -> Optional[MaskFn]:
    key = predicate.column.key
    if not all(_is_vector_constant(value) for value in predicate.values):
        return None
    members = list(predicate.values)

    def mask_in(columns: Columns) -> Optional[Any]:
        pair = _typed_view(columns.get(key))
        if pair is None:
            return None
        array, nulls = pair
        if array.dtype == object:
            return None
        return _non_null(np.isin(array, members), nulls)

    return mask_in


def _mask_is_null(predicate: IsNull) -> MaskFn:
    key = predicate.column.key
    negated = predicate.negated

    def mask_null(columns: Columns) -> Optional[Any]:
        pair = _typed_view(columns.get(key))
        if pair is None:
            # Missing columns (all-NULL semantics) and untyped views both
            # land here; the closure path distinguishes them.
            return None
        array, nulls = pair
        if nulls is None:
            nulls = np.zeros(len(array), dtype=bool)
        # IS NULL works for object (string) columns too: the null mask is
        # maintained independently of the value dtype.
        return ~nulls if negated else nulls

    return mask_null


def _mask_connective(children: List[Optional[MaskFn]], conjunction_op: bool) -> Optional[MaskFn]:
    if any(child is None for child in children):
        return None

    def mask_connective(columns: Columns) -> Optional[Any]:
        result = None
        for child in children:
            mask = child(columns)
            if mask is None:
                return None
            if result is None:
                result = mask
            elif conjunction_op:
                result = result & mask
            else:
                result = result | mask
        return result

    return mask_connective


def _compile_mask(predicate: Predicate) -> Optional[MaskFn]:
    """Vectorized mask form of ``predicate`` (None = shape not vectorizable).

    Unlike the closure form this can also *decline at runtime* (the returned
    function yields None) when the columns it meets carry no usable typed
    view -- plain list, object dtype, missing column.
    """
    if isinstance(predicate, Comparison):
        return _mask_comparison(predicate)
    if isinstance(predicate, Between):
        return _mask_between(predicate)
    if isinstance(predicate, InList):
        return _mask_in_list(predicate)
    if isinstance(predicate, IsNull):
        return _mask_is_null(predicate)
    if isinstance(predicate, And):
        return _mask_connective([_compile_mask(child) for child in predicate.children], True)
    if isinstance(predicate, Or):
        return _mask_connective([_compile_mask(child) for child in predicate.children], False)
    return None


#: Predicates are immutable, so their compiled form is cached process-wide.
_COMPILED_CACHE: Dict[Predicate, CompiledPredicate] = {}
_COMPILED_CACHE_LIMIT = 4096


def compile_predicate(predicate: Predicate) -> CompiledPredicate:
    """Compile ``predicate`` into a column-wise filter (cached per predicate).

    The compiled object carries both the closure form and, where the
    predicate's shape allows, the vectorized mask form; ``filter`` picks per
    call (see :class:`CompiledPredicate`).
    """
    try:
        cached = _COMPILED_CACHE.get(predicate)
    except TypeError:  # unhashable predicate: compile without caching
        return CompiledPredicate(predicate, _compile(predicate), _compile_mask(predicate))
    if cached is None:
        cached = CompiledPredicate(predicate, _compile(predicate), _compile_mask(predicate))
        if len(_COMPILED_CACHE) >= _COMPILED_CACHE_LIMIT:
            _COMPILED_CACHE.clear()
        _COMPILED_CACHE[predicate] = cached
    return cached


def filter_positions(
    predicates: Sequence[Predicate], columns: Columns, positions: Sequence[int]
) -> Sequence[int]:
    """Apply ``predicates`` in order to a position vector (AND semantics)."""
    current = positions
    for predicate in predicates:
        if not len(current):
            break
        current = compile_predicate(predicate).filter(columns, current)
    return current


def conjunction_mask(
    predicates: Sequence[Predicate], columns: Columns
) -> Optional[Any]:
    """One boolean qualification mask for ANDed ``predicates`` over ``columns``.

    Returns None when any predicate (or any column it touches) is not
    vectorizable -- the caller then keeps the per-position
    :func:`filter_positions` path.  Used by the executor's index-lookup
    nested-loop join to qualify residual predicates once for the whole inner
    table instead of once per probe value.
    """
    result = None
    for predicate in predicates:
        mask = compile_predicate(predicate).mask(columns)
        if mask is None:
            return None
        result = mask if result is None else result & mask
    return result
