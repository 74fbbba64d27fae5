"""The project-specific galolint rules (GL001..GL006).

Each rule encodes an invariant this repository has been burned by (or has
only ever enforced at runtime / in differential suites):

- GL001 determinism: no unsorted iteration over ``set``/``frozenset`` values
  in the modules whose output feeds SQL text, plan/seed generation or KB
  persistence -- the exact PR 3 bug class, where frozenset iteration order
  leaked PYTHONHASHSEED into sub-query SQL and changed what got learned.
- GL002 hot-path loops: no Python per-row loops in the vectorized kernels
  (``vectorized.py`` / ``columns.py`` / ``bufferpool.py`` /
  ``statistics.py`` / ``storage.py``) outside the declared allowlist.
- GL003 counter discipline: every ``metrics.increment("name")`` literal and
  every ``PROMETHEUS_HELP`` family key must exist in the declared counter
  registry, and every declared counter must actually be incremented
  somewhere (no dead declarations).  This turns the PR 8 runtime raise into
  a pre-merge failure.
- GL004 monotonic clocks: ``time.time()`` is banned tree-wide -- spans and
  durations must use ``time.perf_counter()``; schedule deadlines
  ``time.monotonic()``.  Wall-clock provenance stamps live in benchmarks/,
  outside the analyzed tree.
- GL005 async hygiene: no blocking calls (``time.sleep``, sync queue
  ``get``, file I/O, thread joins, pool shutdowns) inside ``async def``
  bodies in the serving tier.
- GL006 atomic writes: no bare ``open(..., "w")`` / ``Path.write_text``
  under checkpoint/persistence paths; all persistence goes through the
  temp-file + ``os.replace`` helper.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import Finding, ModuleContext, Rule, register_rule

# ---------------------------------------------------------------------------
# shared AST helpers
# ---------------------------------------------------------------------------


def iter_scopes(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualified name, scope node)`` for the module and every def."""

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                yield qualname, child
                yield from walk(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")
            else:
                yield from walk(child, prefix)

    yield "<module>", tree
    yield from walk(tree, "")


def scope_statements(scope: ast.AST) -> List[ast.stmt]:
    """The statements belonging directly to one scope (no nested defs)."""
    body = scope.body if isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)) else []
    out: List[ast.stmt] = []

    def collect(statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested scope: analyzed separately
            out.append(statement)
            for field_name in ("body", "orelse", "finalbody"):
                collect(getattr(statement, field_name, []) or [])
            for handler in getattr(statement, "handlers", []) or []:
                collect(handler.body)

    collect(body)
    return out


def walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Every AST node in a scope, *excluding* nested function/class bodies."""
    todo: List[ast.AST] = [scope]
    while todo:
        current = todo.pop()
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            yield child
            todo.append(child)


def attribute_chain(node: ast.AST) -> str:
    """Dotted-name text of a Name/Attribute chain ('' when not a chain)."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


class ClockAliases:
    """Which local names refer to the ``time`` module / ``time.time``."""

    def __init__(self, tree: ast.Module):
        self.module_names: Set[str] = set()
        self.time_func_names: Set[str] = set()
        self.sleep_func_names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self.module_names.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "time":
                        self.time_func_names.add(alias.asname or "time")
                    elif alias.name == "sleep":
                        self.sleep_func_names.add(alias.asname or "sleep")

    def is_wall_clock_call(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "time":
            return isinstance(func.value, ast.Name) and func.value.id in self.module_names
        if isinstance(func, ast.Name):
            return func.id in self.time_func_names
        return False

    def is_sleep_call(self, call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "sleep":
            return isinstance(func.value, ast.Name) and func.value.id in self.module_names
        if isinstance(func, ast.Name):
            return func.id in self.sleep_func_names
        return False


# ---------------------------------------------------------------------------
# GL001: determinism -- unsorted set iteration in ordering-sensitive modules
# ---------------------------------------------------------------------------

#: Methods known (from their definitions elsewhere in the tree) to return
#: sets; calling code iterating their result is as unordered as a local set.
SET_RETURNING_METHODS = ("referenced_qualifiers",)

#: Annotation names that mark a parameter/variable as set-typed.
_SET_ANNOTATIONS = ("Set", "FrozenSet", "AbstractSet", "MutableSet", "set", "frozenset")

#: Calls whose consumption of an iterable is order-insensitive, so a
#: set-typed argument is fine.
_ORDER_SAFE_CALLS = (
    "sorted", "len", "min", "max", "sum", "any", "all", "set", "frozenset",
)

#: Calls that materialize their argument's iteration order into an ordered
#: container / string -- a set argument leaks hash order through these.
_ORDER_SINK_CALLS = ("list", "tuple", "enumerate")


def _annotation_is_set(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
    return name in _SET_ANNOTATIONS


class _SetTypeInference:
    """Names bound to set-typed values within one scope (syntactic, local)."""

    def __init__(self, scope: ast.AST):
        self.set_names: Set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if _annotation_is_set(arg.annotation):
                    self.set_names.add(arg.arg)
        statements = scope_statements(scope)
        # Fixpoint over assignments: x = frozenset(...); y = x | other; ...
        for _ in range(4):
            grew = False
            for statement in statements:
                for target, value in _assignments(statement):
                    if isinstance(target, ast.Name) and target.id not in self.set_names:
                        if value is not None and self.is_set_expr(value):
                            self.set_names.add(target.id)
                            grew = True
                if isinstance(statement, ast.AnnAssign) and isinstance(
                    statement.target, ast.Name
                ):
                    if _annotation_is_set(statement.annotation):
                        if statement.target.id not in self.set_names:
                            self.set_names.add(statement.target.id)
                            grew = True
            if not grew:
                break

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute):
                if func.attr in SET_RETURNING_METHODS:
                    return True
                if func.attr in (
                    "union", "intersection", "difference", "symmetric_difference",
                ) and self.is_set_expr(func.value):
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body) or self.is_set_expr(node.orelse)
        return False


def _assignments(statement: ast.stmt) -> Iterator[Tuple[ast.expr, Optional[ast.expr]]]:
    if isinstance(statement, ast.Assign):
        for target in statement.targets:
            yield target, statement.value
    elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
        yield statement.target, statement.value
    elif isinstance(statement, ast.AugAssign):
        yield statement.target, None


@register_rule
class DeterminismRule(Rule):
    """GL001: iteration order over sets must not reach ordered output."""

    rule_id = "GL001"
    title = "unsorted set/frozenset iteration in an ordering-sensitive module"
    hint = "wrap the iterable in sorted(...) (hash order leaks into SQL/plans/KB)"
    paths = (
        "repro/core/*.py",
        "repro/core/learning/*.py",
        "repro/core/matching/*.py",
        "repro/core/transform/*.py",
        "repro/engine/optimizer/*.py",
        "repro/engine/sql/*.py",
        "repro/engine/plan/*.py",
        "repro/engine/expressions.py",
        # The renderer writes text tests compare; the pattern order decides
        # which bindings the evaluator meets first.
        "repro/rdf/sparql/*.py",
        "repro/workloads/*.py",
        "repro/workloads/*/*.py",
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for qualname, scope in iter_scopes(ctx.tree):
            inference = _SetTypeInference(scope)
            if not inference.set_names and not self._scope_mentions_sets(scope):
                continue
            safe = self._order_safe_nodes(scope)
            for node in walk_scope(scope):
                findings.extend(
                    self._check_node(ctx, node, inference, safe, qualname)
                )
        return findings

    @staticmethod
    def _scope_mentions_sets(scope: ast.AST) -> bool:
        for node in walk_scope(scope):
            if isinstance(node, (ast.Set, ast.SetComp)):
                return True
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                    return True
                if isinstance(func, ast.Attribute) and func.attr in SET_RETURNING_METHODS:
                    return True
        return False

    @staticmethod
    def _order_safe_nodes(scope: ast.AST) -> Set[int]:
        """ids of expressions consumed order-insensitively (sorted(x), len(x), ...)."""
        safe: Set[int] = set()
        for node in walk_scope(scope):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else ""
                if name in _ORDER_SAFE_CALLS:
                    for arg in node.args:
                        safe.add(id(arg))
                        # sorted(x for x in s): the genexp's iteration feeds
                        # an order-insensitive consumer.
                        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                            for generator in arg.generators:
                                safe.add(id(generator.iter))
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
            ):
                for comparator in node.comparators:
                    safe.add(id(comparator))
        return safe

    def _check_node(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        inference: _SetTypeInference,
        safe: Set[int],
        qualname: str,
    ) -> Iterator[Finding]:
        if isinstance(node, ast.For):
            if id(node.iter) not in safe and inference.is_set_expr(node.iter):
                yield ctx.finding(
                    self,
                    node,
                    f"for-loop over a set-typed iterable in {qualname}",
                )
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                if id(generator.iter) in safe:
                    continue
                if inference.is_set_expr(generator.iter):
                    yield ctx.finding(
                        self,
                        node,
                        f"comprehension over a set-typed iterable in {qualname}",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_SINK_CALLS
                and node.args
                and id(node.args[0]) not in safe
                and inference.is_set_expr(node.args[0])
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"{func.id}(<set>) materializes hash order in {qualname}",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in ("join", "extend")
                and node.args
                and id(node.args[0]) not in safe
                and inference.is_set_expr(node.args[0])
            ):
                yield ctx.finding(
                    self,
                    node,
                    f".{func.attr}(<set>) materializes hash order in {qualname}",
                )


# ---------------------------------------------------------------------------
# GL002: no Python per-row loops in the vectorized kernels
# ---------------------------------------------------------------------------

#: Functions whose per-row loops are their whole point: the places a
#: column's Python values become arrays and back (the typed view, result-row
#: dicts at the plan edge, the gather of a plain-list column), and the value
#: loop and per-page LRU the array kernels are pinned to.  The executor keeps
#: no dict-probe or row-loop fallback: joins, SORT and GROUP BY read one key
#: grouping (``columns.KeyGroups``) for every key type.  Entries naming no
#: function in the analyzed kernels are themselves findings (dead entries).
GL002_ORACLE_FUNCTIONS = frozenset(
    {
        # columns.py: gather of plain-list columns (``Batch`` accepts them;
        # no operator builds one), and the one place a column's Python values
        # become its typed array
        "gather",
        "ColumnVector._build_typed",
        # statistics.py: the value loop RUNSTATS declines to (object columns,
        # plain sequences, NaN) -- also the definition the array kernel equals
        "_collect_from_values",
        # vectorized.py: result-row dicts at the plan edge
        "Batch.to_rows",
        # bufferpool.py: the per-page LRU oracle the summary replay is pinned to
        "BufferPool.access_many",
        # storage.py: none -- an index is a KeyGroups; the dict-of-lists loop
        # is tests/naive_index.py
    }
)

#: Identifiers that mark an iterable as row-sized.
_ROW_SCALE_NAMES = frozenset(
    {
        "rows", "row_ids", "survivors", "trace", "picks", "matches", "pages",
        # one column's values, NULLs included / removed
        "values", "non_null",
    }
)
_ROW_SCALE_ATTRS = frozenset({"length", "row_count", "rows", "row_ids"})


def _allowlisted(qualname: str) -> bool:
    if qualname in GL002_ORACLE_FUNCTIONS:
        return True
    # Nested defs (closures) inherit their enclosing function's exemption.
    return any(
        qualname.startswith(entry + ".") for entry in GL002_ORACLE_FUNCTIONS
    )


#: The executor file whose operators may not copy every column of a batch.
_LATE_MATERIALIZATION_PATH = "repro/engine/executor/vectorized.py"
_COLUMN_SET_ATTRS = frozenset({"columns", "sources"})
_COLUMN_COPY_CALLS = frozenset({"gather", "python_values"})


def _is_column_set(node: ast.AST) -> bool:
    """``<mapping>.items()`` / ``.values()``, or a batch's / entry's
    ``columns`` / ``sources``."""
    if isinstance(node, ast.Call):
        return isinstance(node.func, ast.Attribute) and node.func.attr in ("items", "values")
    return isinstance(node, ast.Attribute) and node.attr in _COLUMN_SET_ATTRS


def _all_columns_copy(node: ast.AST) -> bool:
    """A loop or comprehension over a column set that gathers each of them."""
    if isinstance(node, ast.For):
        iterables, body = [node.iter], node.body
    elif isinstance(node, ast.DictComp):
        iterables, body = [gen.iter for gen in node.generators], [node.key, node.value]
    elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        iterables, body = [gen.iter for gen in node.generators], [node.elt]
    else:
        return False
    return any(
        _is_column_set(child) for iterable in iterables for child in ast.walk(iterable)
    ) and any(
        isinstance(child, ast.Call) and attribute_chain(child.func) in _COLUMN_COPY_CALLS
        for statement in body
        for child in ast.walk(statement)
    )


def _mentions_row_scale(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in _ROW_SCALE_NAMES:
            return True
        if isinstance(child, ast.Attribute) and child.attr in _ROW_SCALE_ATTRS:
            return True
        if isinstance(child, ast.Starred):
            # zip(*columns) / enumerate(zip(*cols)): per-row tuple iteration.
            return True
    return False


@register_rule
class HotPathLoopRule(Rule):
    """GL002: per-row Python loops may not creep back into vectorized kernels,
    nor may an operator copy every column of a batch to pass a few on."""

    rule_id = "GL002"
    title = "Python per-row loop on the vectorized hot path"
    hint = (
        "vectorize (masks/argsort/searchsorted/reduceat) or move the loop into"
        " a function declared in GL002_ORACLE_FUNCTIONS"
    )
    paths = (
        "repro/engine/executor/vectorized.py",
        "repro/engine/columns.py",
        "repro/engine/executor/bufferpool.py",
        "repro/engine/statistics.py",
        "repro/engine/storage.py",
    )

    def __init__(self) -> None:
        #: qualnames defined in the analyzed kernel files, to detect dead
        #: allowlist entries.
        self.seen_qualnames: set = set()
        self.seen_paths: set = set()
        self.any_module: Optional[Tuple[str, int]] = None

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if self.any_module is None:
            self.any_module = (ctx.relpath, 1)
        self.seen_paths.add(ctx.relpath)
        findings: List[Finding] = []
        late_materialization = ctx.relpath == _LATE_MATERIALIZATION_PATH
        for qualname, scope in iter_scopes(ctx.tree):
            self.seen_qualnames.add(qualname)
            if late_materialization and not qualname.startswith("Batch."):
                # Oracle functions included: a declared per-row loop is no
                # licence to gather the columns nobody reads.
                for node in walk_scope(scope):
                    if _all_columns_copy(node):
                        findings.append(
                            ctx.finding(
                                self,
                                node,
                                f"every column of a batch gathered in {qualname}",
                                hint="carry positions (Batch.joined / take); a column"
                                " is gathered by Batch.column when an operator reads it",
                            )
                        )
            if _allowlisted(qualname) or qualname == "<module>":
                continue
            for node in walk_scope(scope):
                if isinstance(node, ast.For) and _mentions_row_scale(node.iter):
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"per-row for-loop in kernel {qualname}",
                        )
                    )
                elif isinstance(node, ast.While) and _mentions_row_scale(node.test):
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"per-row while-loop in kernel {qualname}",
                        )
                    )
                elif isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp, ast.SetComp)
                ):
                    for generator in node.generators:
                        if _mentions_row_scale(generator.iter):
                            findings.append(
                                ctx.finding(
                                    self,
                                    node,
                                    f"per-row comprehension in kernel {qualname}",
                                )
                            )
                            break
        return findings

    def finish(self) -> Iterable[Finding]:
        # The dead-entry audit only makes sense over the complete kernel set
        # (partial runs -- single files, fixtures -- would misreport every
        # entry defined in an unanalyzed file as dead).
        if self.any_module is None or not self.seen_paths.issuperset(self.paths):
            return ()
        path, line = self.any_module
        return [
            Finding(
                rule=self.rule_id,
                path=path,
                line=line,
                message=(
                    f"dead GL002_ORACLE_FUNCTIONS entry {entry!r}: no such"
                    " function in the kernel files"
                ),
                hint="remove or rename the allowlist entry",
                snippet="",
            )
            for entry in sorted(GL002_ORACLE_FUNCTIONS)
            if entry not in self.seen_qualnames
        ]


# ---------------------------------------------------------------------------
# GL003: counter discipline (cross-file)
# ---------------------------------------------------------------------------

#: Summary statistics the snapshot/exposition layer emits alongside counters;
#: legitimate PROMETHEUS_HELP keys that are not counters.
_SUMMARY_STAT_NAMES = frozenset(
    {
        "latency_samples",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_min_ms",
        "latency_max_ms",
        # Steering-guard gauge (repro/service/guard.py): point-in-time state,
        # not a monotonic counter.
        "quarantined_templates",
        # Size of the prepared-statement lane (repro/core/matching/prepared.py).
        "prepared_entries",
    }
)


@register_rule
class CounterDisciplineRule(Rule):
    """GL003: increment literals and HELP keys vs the declared registry."""

    rule_id = "GL003"
    title = "counter name not statically consistent with DECLARED_COUNTERS"
    hint = (
        "declare the name in DECLARED_COUNTERS / a *_COUNTERS tuple (or"
        " register_counter), and delete dead declarations"
    )

    def __init__(self) -> None:
        #: name -> (path, line) of its declaration.
        self.declared: Dict[str, Tuple[str, int]] = {}
        #: literal increment sites: (name, path, line, snippet).
        self.increments: List[Tuple[str, str, int, str]] = []
        #: dynamic (non-literal) increment sites.
        self.dynamic: List[Finding] = []
        #: PROMETHEUS_HELP keys: (name, path, line, snippet).
        self.help_keys: List[Tuple[str, str, int, str]] = []

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                self._collect_declarations(ctx, node)
            elif isinstance(node, ast.Call):
                self._collect_calls(ctx, node)
        return ()

    def _collect_declarations(self, ctx: ModuleContext, node: ast.Assign) -> None:
        for target in node.targets:
            name = target.id if isinstance(target, ast.Name) else ""
            if name.endswith("COUNTERS") and isinstance(node.value, (ast.Tuple, ast.List)):
                for element in node.value.elts:
                    if isinstance(element, ast.Constant) and isinstance(element.value, str):
                        self.declared.setdefault(
                            element.value, (ctx.relpath, element.lineno)
                        )
            if name == "PROMETHEUS_HELP" and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        self.help_keys.append(
                            (key.value, ctx.relpath, key.lineno, ctx.line_text(key.lineno))
                        )

    def _collect_calls(self, ctx: ModuleContext, node: ast.Call) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "register_counter" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                self.declared.setdefault(arg.value, (ctx.relpath, arg.lineno))
            return
        if func.attr != "increment" or not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            self.increments.append(
                (arg.value, ctx.relpath, node.lineno, ctx.line_text(node.lineno))
            )
        else:
            self.dynamic.append(
                ctx.finding(
                    self,
                    node,
                    "increment() with a non-literal counter name cannot be"
                    " statically checked",
                    hint="pass a string literal (or suppress with the reason)",
                )
            )

    def finish(self) -> Iterable[Finding]:
        findings: List[Finding] = list(self.dynamic)
        incremented = {name for name, _, _, _ in self.increments}
        for name, path, line, snippet in self.increments:
            if name not in self.declared:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=path,
                        line=line,
                        message=f"increment of undeclared counter {name!r}",
                        hint=self.hint,
                        snippet=snippet,
                    )
                )
        for name, (path, line) in sorted(self.declared.items()):
            if name not in incremented:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=path,
                        line=line,
                        message=f"declared counter {name!r} is never incremented (dead)",
                        hint="delete the declaration or wire the increment",
                        snippet="",
                    )
                )
        for name, path, line, snippet in self.help_keys:
            if name not in self.declared and name not in _SUMMARY_STAT_NAMES:
                findings.append(
                    Finding(
                        rule=self.rule_id,
                        path=path,
                        line=line,
                        message=(
                            f"PROMETHEUS_HELP documents {name!r}, which is neither"
                            " a declared counter nor a summary stat"
                        ),
                        hint="remove the dead HELP entry or declare the counter",
                        snippet=snippet,
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# GL004: monotonic clocks only
# ---------------------------------------------------------------------------


@register_rule
class MonotonicClockRule(Rule):
    """GL004: ``time.time()`` is wall-clock; spans/durations must not use it."""

    rule_id = "GL004"
    title = "wall-clock time.time() used where a monotonic clock is required"
    hint = (
        "use time.perf_counter() for spans/durations, time.monotonic() for"
        " deadlines (wall-clock stamps belong in benchmarks/, not src/)"
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        aliases = ClockAliases(ctx.tree)
        findings: List[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and aliases.is_wall_clock_call(node):
                findings.append(
                    ctx.finding(self, node, "call to wall-clock time.time()")
                )
        return findings


# ---------------------------------------------------------------------------
# GL005: async hygiene in the serving tier
# ---------------------------------------------------------------------------

#: Attribute-call names that block the calling thread outright.
_BLOCKING_ATTR_CALLS = frozenset(
    {
        "read_text", "write_text", "read_bytes", "write_bytes",
        "join_thread",
        # KB persistence entry points: file I/O behind a method name.
        "maybe_reload_knowledge_base",
    }
)
#: Dotted prefixes of module-level blocking calls.
_BLOCKING_DOTTED = (
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.replace", "os.rename", "shutil.copy", "shutil.move",
)
#: Receiver-name substrings that make a bare ``.get()`` / ``.join()`` /
#: ``.shutdown()`` call read as a thread/queue/pool primitive.
_QUEUE_HINTS = ("queue",)
_THREAD_HINTS = ("thread", "reader", "process", "worker", "pool", "executor")


@register_rule
class AsyncHygieneRule(Rule):
    """GL005: the event loop must never run blocking calls."""

    rule_id = "GL005"
    title = "blocking call inside an async def"
    hint = "await it via loop.run_in_executor(...) (or restructure into a sync helper)"
    paths = ("repro/service/*.py",)

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        aliases = ClockAliases(ctx.tree)
        findings: List[Finding] = []
        for qualname, scope in iter_scopes(ctx.tree):
            if not isinstance(scope, ast.AsyncFunctionDef):
                continue
            # Any call nested under an ``await`` expression is treated as
            # loop-friendly: ``await q.get()`` (asyncio queues) and
            # ``await asyncio.wait_for(q.get(), ...)`` both qualify.
            awaited: Set[int] = set()
            for node in walk_scope(scope):
                if isinstance(node, ast.Await):
                    awaited.update(id(sub) for sub in ast.walk(node.value))
            for node in walk_scope(scope):
                if not isinstance(node, ast.Call) or id(node) in awaited:
                    continue
                reason = self._blocking_reason(node, aliases)
                if reason:
                    findings.append(
                        ctx.finding(
                            self, node, f"{reason} inside async def {qualname}"
                        )
                    )
        return findings

    @staticmethod
    def _blocking_reason(node: ast.Call, aliases: ClockAliases) -> str:
        if aliases.is_sleep_call(node):
            return "blocking time.sleep()"
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("open", "print"):
            if func.id == "open":
                return "blocking file open()"
            return ""
        chain = attribute_chain(func)
        if any(chain.startswith(prefix) for prefix in _BLOCKING_DOTTED):
            return f"blocking {chain}()"
        if not isinstance(func, ast.Attribute):
            return ""
        if func.attr in _BLOCKING_ATTR_CALLS:
            return f"blocking .{func.attr}()"
        receiver = attribute_chain(func.value).lower()
        if func.attr == "get" and any(hint in receiver for hint in _QUEUE_HINTS):
            return f"un-awaited queue get on {receiver!r}"
        if func.attr == "join" and any(hint in receiver for hint in _THREAD_HINTS):
            return f"blocking join on {receiver!r}"
        if func.attr == "shutdown" and any(hint in receiver for hint in _THREAD_HINTS):
            for keyword in node.keywords:
                if keyword.arg == "wait" and isinstance(keyword.value, ast.Constant):
                    if keyword.value.value is False:
                        return ""
            return f"blocking pool shutdown on {receiver!r}"
        return ""


# ---------------------------------------------------------------------------
# GL006: atomic writes under persistence paths
# ---------------------------------------------------------------------------

#: Functions allowed to write files directly: the temp+rename helper itself.
GL006_ATOMIC_HELPERS = frozenset({"KnowledgeBase._write_atomic"})


@register_rule
class AtomicWriteRule(Rule):
    """GL006: persistence writes must go through the temp+rename helper."""

    rule_id = "GL006"
    title = "bare file write under a checkpoint/persistence path"
    hint = (
        "route the write through KnowledgeBase._write_atomic (temp file +"
        " os.replace commit)"
    )
    paths = (
        "repro/core/knowledge_base.py",
        "repro/core/galo.py",
        "repro/service/*.py",
        "repro/obs/*.py",
    )

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for qualname, scope in iter_scopes(ctx.tree):
            if qualname in GL006_ATOMIC_HELPERS:
                continue
            for node in walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if isinstance(func, ast.Name) and func.id == "open":
                    mode = self._open_mode(node)
                    if mode and any(flag in mode for flag in "wax+"):
                        findings.append(
                            ctx.finding(
                                self,
                                node,
                                f"bare open(..., {mode!r}) in {qualname}",
                            )
                        )
                elif isinstance(func, ast.Attribute) and func.attr in (
                    "write_text", "write_bytes",
                ):
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            f"bare .{func.attr}() in {qualname}",
                        )
                    )
        return findings

    @staticmethod
    def _open_mode(node: ast.Call) -> str:
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            if isinstance(node.args[1].value, str):
                return node.args[1].value
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
                if isinstance(keyword.value.value, str):
                    return keyword.value.value
        return ""
