"""SPARQL query evaluation over :class:`repro.rdf.graph.Graph`.

Evaluation is a backtracking join over the basic graph pattern.  Patterns are
reordered greedily so that patterns with the most bound positions run first,
and FILTER clauses are applied as soon as all of their variables are bound --
the same pushdown a real engine performs, and enough to keep matching a
thousand-template knowledge base in the millisecond range the paper reports.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Sequence, Set, Tuple

from repro.errors import SparqlEvaluationError
from repro.rdf.graph import Graph
from repro.rdf.sparql.ast import (
    FilterClause,
    FilterComparison,
    FilterExpression,
    FilterLogical,
    PropertyPath,
    SelectQuery,
    StrCall,
    TriplePattern,
)
from repro.rdf.terms import IRI, BlankNode, Literal, Node, Variable

Bindings = Dict[str, Node]
#: A FILTER still waiting for its variables, with their names.
PendingFilter = Tuple[FilterClause, Tuple[str, ...]]


class SparqlEngine:
    """Evaluates SPARQL SELECT queries (ASTs) against a graph."""

    def __init__(self, graph: Graph):
        self.graph = graph

    # ------------------------------------------------------------------

    def query(self, query: SelectQuery) -> List[Bindings]:
        """Evaluate ``query`` and return a list of solution bindings."""
        solutions = list(self._evaluate(query))
        if query.distinct:
            solutions = _distinct(solutions)
        if query.limit is not None:
            solutions = solutions[: query.limit]
        return solutions

    def ask(self, query: SelectQuery) -> bool:
        """True when the query has at least one solution."""
        limited = SelectQuery(
            variables=query.variables,
            select_all=query.select_all,
            distinct=False,
            where=query.where,
            limit=1,
            prefixes=query.prefixes,
        )
        return bool(self.query(limited))

    # ------------------------------------------------------------------

    def _evaluate(self, query: SelectQuery) -> Iterator[Bindings]:
        patterns = list(query.patterns)
        # Each filter's variable names are derived once here: ``backtrack``
        # re-tests every pending filter at every search node, and walking the
        # filter expression there dominated matching time.
        filters: List[PendingFilter] = [
            (clause, tuple(variable.name for variable in clause.variables()))
            for clause in query.filters
        ]
        ordered = _order_patterns(patterns)

        def project(bindings: Bindings) -> Bindings:
            if query.select_all:
                return dict(bindings)
            return {
                variable.name: bindings[variable.name]
                for variable in query.variables
                if variable.name in bindings
            }

        def backtrack(
            index: int, bindings: Bindings, pending_filters: List[PendingFilter]
        ) -> Iterator[Bindings]:
            applicable = []
            remaining = []
            for pending in pending_filters:
                clause, names = pending
                for name in names:
                    if name not in bindings:
                        remaining.append(pending)
                        break
                else:
                    applicable.append(clause)
            for clause in applicable:
                if not _evaluate_filter(clause.expression, bindings):
                    return
            if index == len(ordered):
                if remaining:
                    # Filters whose variables were never bound fail the solution.
                    return
                yield project(bindings)
                return
            pattern = ordered[index]
            for extended in self._match_pattern(pattern, bindings):
                yield from backtrack(index + 1, extended, remaining)

        yield from backtrack(0, {}, filters)

    # ------------------------------------------------------------------

    def _match_pattern(
        self, pattern: TriplePattern, bindings: Bindings
    ) -> Iterator[Bindings]:
        subject = _resolve(pattern.subject, bindings)
        obj = _resolve(pattern.object, bindings)

        if isinstance(pattern.predicate, PropertyPath):
            yield from self._match_path(pattern, subject, obj, bindings)
            return

        predicate = _resolve(pattern.predicate, bindings)
        if predicate is not None and not isinstance(predicate, IRI):
            return

        for triple in self.graph.triples(
            subject if not isinstance(subject, Variable) else None,
            predicate if not isinstance(predicate, Variable) else None,  # type: ignore[arg-type]
            obj if not isinstance(obj, Variable) else None,
        ):
            extended = dict(bindings)
            if not _bind(pattern.subject, triple.subject, extended):
                continue
            if not _bind(pattern.predicate, triple.predicate, extended):
                continue
            if not _bind(pattern.object, triple.object, extended):
                continue
            yield extended

    def _match_path(
        self,
        pattern: TriplePattern,
        subject: Any,
        obj: Any,
        bindings: Bindings,
    ) -> Iterator[Bindings]:
        """Evaluate ``subject predicate+ object`` (one or more hops)."""
        path = pattern.predicate
        assert isinstance(path, PropertyPath)

        def reachable_from(start: Node) -> Set[Node]:
            seen: Set[Node] = set()
            frontier = [start]
            while frontier:
                current = frontier.pop()
                for triple in self.graph.triples(current, path.predicate, None):
                    if triple.object not in seen:
                        seen.add(triple.object)
                        frontier.append(triple.object)
            return seen

        if not isinstance(subject, Variable) and subject is not None:
            targets = reachable_from(subject)
            for target in sorted(targets, key=str):
                extended = dict(bindings)
                if not _bind(pattern.object, target, extended):
                    continue
                yield extended
            return

        # Subject unbound: try every subject that has the predicate at all.
        starts = {
            triple.subject for triple in self.graph.triples(None, path.predicate, None)
        }
        for start in sorted(starts, key=str):
            targets = reachable_from(start)
            if not isinstance(obj, Variable) and obj is not None:
                if obj not in targets:
                    continue
                extended = dict(bindings)
                if _bind(pattern.subject, start, extended):
                    yield extended
                continue
            for target in sorted(targets, key=str):
                extended = dict(bindings)
                if not _bind(pattern.subject, start, extended):
                    continue
                if not _bind(pattern.object, target, extended):
                    continue
                yield extended


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _order_patterns(patterns: Sequence[TriplePattern]) -> List[TriplePattern]:
    """Greedy join ordering: prefer patterns with bound terms / bound variables.

    A pattern scores 3 per constant term, 1 for a property path and 4 per
    occurrence of a variable an earlier pattern binds; the first pattern with
    the highest score runs next.  A variable that is already bound is the
    strongest join signal: it keeps the search walking outward from nodes it
    has pinned down instead of opening a fresh cross product on an unseen
    variable.  Each pattern is scored once and the scores are kept up to date
    as variables become bound.
    """
    scores: List[float] = []
    #: variable name -> the pattern of each of its occurrences, until bound.
    unbound: Dict[str, List[int]] = {}
    for index, pattern in enumerate(patterns):
        score = 0
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(term, Variable):
                unbound.setdefault(term.name, []).append(index)
            elif isinstance(term, PropertyPath):
                score += 1
            else:
                score += 3
        scores.append(score)
    ordered: List[TriplePattern] = []
    for _ in patterns:
        index = scores.index(max(scores))
        # Taken: no later increment brings it back.
        scores[index] = float("-inf")
        ordered.append(patterns[index])
        for variable in patterns[index].variables():
            for occurrence in unbound.pop(variable.name, ()):
                scores[occurrence] += 4
    return ordered


def _resolve(term: Any, bindings: Bindings) -> Any:
    if isinstance(term, Variable):
        return bindings.get(term.name, term)
    return term


def _bind(term: Any, value: Node, bindings: Bindings) -> bool:
    """Bind ``term`` (variable or constant) to ``value``; False on conflict."""
    if isinstance(term, Variable):
        existing = bindings.get(term.name)
        if existing is None:
            bindings[term.name] = value
            return True
        return existing == value
    if isinstance(term, PropertyPath):
        return True
    return term == value


def _distinct(solutions: List[Bindings]) -> List[Bindings]:
    seen = set()
    unique = []
    for solution in solutions:
        key = tuple(sorted((name, repr(value)) for name, value in solution.items()))
        if key in seen:
            continue
        seen.add(key)
        unique.append(solution)
    return unique


def _operand_value(operand: Any, bindings: Bindings) -> Any:
    if isinstance(operand, Literal):
        return operand.value
    if isinstance(operand, Variable):
        value = bindings.get(operand.name)
        if value is None:
            raise SparqlEvaluationError(f"unbound variable ?{operand.name} in FILTER")
        if isinstance(value, Literal):
            return value.value
        return value
    if isinstance(operand, StrCall):
        value = bindings.get(operand.operand.name)
        if value is None:
            raise SparqlEvaluationError(
                f"unbound variable ?{operand.operand.name} in STR()"
            )
        if isinstance(value, IRI):
            return value.value
        if isinstance(value, BlankNode):
            return value.label
        if isinstance(value, Literal):
            return str(value.value)
        return str(value)
    raise SparqlEvaluationError(f"unsupported FILTER operand {operand!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    both_numeric = isinstance(left, (int, float)) and isinstance(right, (int, float))
    if not both_numeric:
        # Try numeric coercion so "19771" compares numerically with 19771.
        try:
            left_num = float(left)
            right_num = float(right)
        except (TypeError, ValueError):
            left_num = None
            right_num = None
        if left_num is not None and right_num is not None:
            left, right = left_num, right_num
            both_numeric = True
    if not both_numeric:
        left, right = str(left), str(right)
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SparqlEvaluationError(f"unsupported comparison operator {op!r}")


def _evaluate_filter(expression: FilterExpression, bindings: Bindings) -> bool:
    if isinstance(expression, FilterComparison):
        left = _operand_value(expression.left, bindings)
        right = _operand_value(expression.right, bindings)
        if isinstance(left, (IRI, BlankNode)):
            left = left.value if isinstance(left, IRI) else left.label
        if isinstance(right, (IRI, BlankNode)):
            right = right.value if isinstance(right, IRI) else right.label
        return _compare(expression.op, left, right)
    if isinstance(expression, FilterLogical):
        if expression.op == "&&":
            return all(_evaluate_filter(operand, bindings) for operand in expression.operands)
        if expression.op == "||":
            return any(_evaluate_filter(operand, bindings) for operand in expression.operands)
        if expression.op == "!":
            return not _evaluate_filter(expression.operands[0], bindings)
    raise SparqlEvaluationError(f"unsupported filter expression {expression!r}")
