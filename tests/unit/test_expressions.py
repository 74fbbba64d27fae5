"""Unit tests for repro.engine.expressions."""

import pytest

from repro.engine.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    InList,
    IsNull,
    Literal,
    Or,
    conjunction,
    conjuncts,
    filter_positions,
)

A_X = ColumnRef("A", "x")
B_Y = ColumnRef("B", "y")
ROW = {"A.x": 5, "B.y": 7, "A.s": "hello"}


class TestColumnRef:
    def test_key(self):
        assert A_X.key == "A.x"

    def test_equality_and_hash(self):
        assert ColumnRef("A", "x") == A_X
        assert len({ColumnRef("A", "x"), A_X}) == 1


class TestComparison:
    def test_equality_true_false(self):
        assert Comparison("=", A_X, Literal(5)).evaluate(ROW)
        assert not Comparison("=", A_X, Literal(6)).evaluate(ROW)

    def test_all_operators(self):
        assert Comparison("<", A_X, Literal(6)).evaluate(ROW)
        assert Comparison("<=", A_X, Literal(5)).evaluate(ROW)
        assert Comparison(">", A_X, Literal(4)).evaluate(ROW)
        assert Comparison(">=", A_X, Literal(5)).evaluate(ROW)
        assert Comparison("<>", A_X, Literal(4)).evaluate(ROW)

    def test_invalid_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("!=", A_X, Literal(1))

    def test_null_operand_is_false(self):
        assert not Comparison("=", A_X, Literal(5)).evaluate({"A.x": None})
        assert not Comparison("=", ColumnRef("A", "missing"), Literal(5)).evaluate(ROW)

    def test_column_to_column(self):
        predicate = Comparison("=", A_X, B_Y)
        assert not predicate.evaluate(ROW)
        assert predicate.evaluate({"A.x": 3, "B.y": 3})

    def test_is_join_predicate(self):
        assert Comparison("=", A_X, B_Y).is_join_predicate
        assert not Comparison("=", A_X, Literal(1)).is_join_predicate
        assert not Comparison("=", A_X, ColumnRef("A", "z")).is_join_predicate

    def test_referenced_columns(self):
        assert Comparison("=", A_X, B_Y).referenced_columns() == frozenset({A_X, B_Y})
        assert Comparison("=", A_X, Literal(1)).referenced_qualifiers() == frozenset({"A"})

    def test_mixed_type_comparison_falls_back_to_string(self):
        predicate = Comparison("<", ColumnRef("A", "s"), Literal(5))
        # "hello" < "5" is False under string comparison; must not raise.
        assert predicate.evaluate(ROW) in (True, False)


class TestBetween:
    def test_inclusive_bounds(self):
        predicate = Between(A_X, Literal(5), Literal(10))
        assert predicate.evaluate(ROW)
        assert predicate.evaluate({"A.x": 10})
        assert not predicate.evaluate({"A.x": 11})

    def test_null_is_false(self):
        assert not Between(A_X, Literal(0), Literal(10)).evaluate({"A.x": None})


class TestInList:
    def test_membership(self):
        predicate = InList(A_X, (1, 5, 9))
        assert predicate.evaluate(ROW)
        assert not InList(A_X, (1, 2)).evaluate(ROW)

    def test_null_is_false(self):
        assert not InList(A_X, (None, 5)).evaluate({"A.x": None})


class TestIsNull:
    def test_is_null(self):
        assert IsNull(A_X).evaluate({"A.x": None})
        assert not IsNull(A_X).evaluate(ROW)

    def test_is_not_null(self):
        assert IsNull(A_X, negated=True).evaluate(ROW)
        assert not IsNull(A_X, negated=True).evaluate({"A.x": None})


class TestBooleanCombinators:
    def test_and(self):
        predicate = And((Comparison(">", A_X, Literal(1)), Comparison("<", A_X, Literal(10))))
        assert predicate.evaluate(ROW)
        assert not And((Comparison(">", A_X, Literal(6)),)).evaluate(ROW)

    def test_or(self):
        predicate = Or((Comparison(">", A_X, Literal(6)), Comparison("=", B_Y, Literal(7))))
        assert predicate.evaluate(ROW)
        assert not Or((Comparison(">", A_X, Literal(6)),)).evaluate(ROW)

    def test_referenced_columns_union(self):
        predicate = And((Comparison("=", A_X, Literal(1)), Comparison("=", B_Y, Literal(2))))
        assert predicate.referenced_qualifiers() == frozenset({"A", "B"})


class TestConjunctionHelpers:
    def test_conjuncts_flattens_nested_and(self):
        inner = And((Comparison("=", A_X, Literal(1)), Comparison("=", B_Y, Literal(2))))
        outer = And((inner, Comparison(">", A_X, Literal(0))))
        assert len(conjuncts(outer)) == 3

    def test_conjuncts_of_none(self):
        assert conjuncts(None) == []

    def test_conjunction_of_empty(self):
        assert conjunction([]) is None

    def test_conjunction_single_passthrough(self):
        predicate = Comparison("=", A_X, Literal(1))
        assert conjunction([predicate]) is predicate

    def test_conjunction_builds_and(self):
        combined = conjunction([Comparison("=", A_X, Literal(1)), Comparison("=", B_Y, Literal(2))])
        assert isinstance(combined, And)
        assert len(combined.children) == 2


class TestCompiledPredicates:
    """Array evaluation over positions must agree with row-at-a-time evaluate."""

    COLUMNS = {
        "A.x": [5, None, 6, 0, 5],
        "B.y": [7, 7, None, 7, 2],
        "A.s": ["hello", "there", None, "hello", "x"],
    }

    def _rows(self):
        keys = list(self.COLUMNS)
        return [
            {key: self.COLUMNS[key][i] for key in keys}
            for i in range(len(self.COLUMNS["A.x"]))
        ]

    def assert_agrees(self, predicate):
        expected = [i for i, row in enumerate(self._rows()) if predicate.evaluate(row)]
        got = filter_positions([predicate], self.COLUMNS, range(len(self._rows())))
        assert list(got) == expected, str(predicate)

    def test_comparison_col_literal(self):
        for op in ("=", "<>", "<", "<=", ">", ">="):
            self.assert_agrees(Comparison(op, A_X, Literal(5)))

    def test_comparison_literal_col(self):
        self.assert_agrees(Comparison("<", Literal(3), A_X))

    def test_comparison_col_col(self):
        self.assert_agrees(Comparison("<", A_X, B_Y))

    def test_comparison_mixed_types_string_fallback(self):
        # Row engine falls back to string comparison on TypeError.
        self.assert_agrees(Comparison("<", ColumnRef("A", "s"), Literal(9)))

    def test_comparison_null_literal_matches_nothing(self):
        self.assert_agrees(Comparison("=", A_X, Literal(None)))

    def test_between(self):
        self.assert_agrees(Between(A_X, Literal(1), Literal(5)))

    def test_in_list(self):
        self.assert_agrees(InList(A_X, (0, 6)))

    def test_is_null_and_not_null(self):
        self.assert_agrees(IsNull(A_X))
        self.assert_agrees(IsNull(A_X, negated=True))

    def test_and_or_nesting(self):
        self.assert_agrees(
            And((Comparison(">", A_X, Literal(0)), Comparison("=", B_Y, Literal(7))))
        )
        self.assert_agrees(
            Or((Comparison(">", A_X, Literal(5)), Comparison("=", B_Y, Literal(2))))
        )
        self.assert_agrees(
            Or((IsNull(A_X), And((Comparison("=", A_X, Literal(5)), IsNull(B_Y)))))
        )

    def test_missing_column_behaves_as_nulls(self):
        missing = ColumnRef("Z", "q")
        equals = Comparison("=", missing, Literal(1))
        assert list(filter_positions([equals], self.COLUMNS, range(5))) == []
        assert list(filter_positions([IsNull(missing)], self.COLUMNS, range(5))) == list(range(5))

    def test_filter_positions_applies_in_order(self):
        predicates = (
            Comparison(">=", A_X, Literal(0)),
            Comparison("=", B_Y, Literal(7)),
        )
        expected = [
            i
            for i, row in enumerate(self._rows())
            if all(p.evaluate(row) for p in predicates)
        ]
        assert list(filter_positions(predicates, self.COLUMNS, range(5))) == expected
