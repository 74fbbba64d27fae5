"""Dead-knob guard: every config field is read, and set, outside its class.

A field that nothing reads is an option that selects nothing.  The scan is
by attribute name over the AST of every module under ``src/`` (the defining
class body excluded, so ``__post_init__`` validation does not count as a
use); a name shared with another class's attribute passes, which errs on the
side of not failing.

A field that nothing *sets* -- no keyword argument, no attribute assignment
anywhere in ``src/``, ``tests/``, ``bench/``, ``benchmarks/`` or ``examples/``
(a keyword that forwards the same-named attribute, ``x=config.x``, sets
nothing) -- only ever has its default: a constant with a config field's
upkeep.  The fields in that state when the check was written are listed in
``NEVER_SET``, which may only shrink: a new never-set field fails, and so does
an entry that is set by now or no longer exists.

A field that nothing reads may stay only while the pinned benchmark under
``bench/`` still passes it: ``UNREAD_FOR_BENCH`` lists those fields and may
only shrink -- an entry fails once ``src/`` reads it again, and once nothing
under ``bench/`` sets it any more (then delete the field).

A field that only tests and examples set earns its place through no caller of
the package.  ``TESTS_ONLY`` lists the fields in that state, by the same scan
restricted to ``src/``, ``bench/`` and ``benchmarks/``, and is shrink-only in
the same way: a new test-only knob fails.
"""

import ast
import dataclasses
import functools
from pathlib import Path

import pytest

from repro.core.learning.engine import LearningConfig
from repro.core.matching.engine import MatchingConfig
from repro.engine.config import DbConfig
from repro.experiments.harness import ExperimentSettings
from repro.service.config import ServiceConfig, ShardedServiceConfig

CONFIG_CLASSES = [
    DbConfig,
    ServiceConfig,
    ShardedServiceConfig,
    LearningConfig,
    MatchingConfig,
    ExperimentSettings,
]
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SETTER_ROOTS = ("src", "tests", "bench", "benchmarks", "examples")
#: Setter roots that are not tests or examples.
CALLER_ROOTS = ("src", "bench", "benchmarks")

#: Fields nothing sets, by class.  Shrink-only: give a field a second value
#: somewhere (and drop it here) or turn it into a constant (and drop it here).
NEVER_SET = {
    "DbConfig": set(),
    "ServiceConfig": set(),
    "ShardedServiceConfig": set(),
    # Read by ``bench/layers.py`` to size its own ``Db2Batch``.
    "LearningConfig": {"runs_per_plan"},
    "MatchingConfig": set(),
    "ExperimentSettings": set(),
}

#: Fields nothing in ``src/`` reads, kept only because ``bench/`` passes them.
#: Shrink-only: drop an entry once ``bench/`` stops passing it (and delete
#: the field).
UNREAD_FOR_BENCH = {"ServiceConfig": {"max_workers"}}

#: Fields only tests and examples set, by class.  Shrink-only: give a field a
#: caller outside ``tests/`` and ``examples/`` (and drop it here) or turn it
#: into a constant (and drop it here).
TESTS_ONLY = {
    "DbConfig": {"buffer_pool_pages", "noise_seed"},
    "ServiceConfig": {
        "kb_checkpoint_interval_seconds",
        "kb_checkpoint_directory",
        "slow_query_threshold_ms",
    },
    "ShardedServiceConfig": {
        "max_pending_per_shard",
        "kb_poll_interval_seconds",
        "kb_publish_interval_seconds",
        "max_worker_restarts",
    },
    "LearningConfig": set(),
    # Read by ``bench/layers.py`` to build its own SPARQL.  No caller sets the
    # field; the scan sees tests pass ``sparql_for_subplan``'s parameter of
    # the same name.
    "MatchingConfig": {"check_row_size"},
    "ExperimentSettings": set(),
}


@functools.lru_cache(maxsize=None)
def source_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")]


@functools.lru_cache(maxsize=None)
def setter_trees(roots):
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for root in roots
        for path in (ROOT / root).rglob("*.py")
    ]


class OutsideClass(ast.NodeVisitor):
    """Collects ``names`` everywhere but in the body of the class ``skip``."""

    def __init__(self, skip):
        self.skip = skip
        self.names = set()

    def visit_ClassDef(self, node):
        if node.name != self.skip:
            self.generic_visit(node)


class AttributeReads(OutsideClass):
    """Names of every attribute read."""

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.names.add(node.attr)
        self.generic_visit(node)


class NamesSet(OutsideClass):
    """Names given a value: every keyword argument of a call and every
    attribute assigned to.

    A keyword that forwards an attribute of its own name
    (``f(x=self.config.x)``) passes a value on without choosing one, so it
    does not count.
    """

    def visit_keyword(self, node):
        forwarded = (
            isinstance(node.value, ast.Attribute) and node.value.attr == node.arg
        )
        if node.arg is not None and not forwarded:
            self.names.add(node.arg)
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Store):
            self.names.add(node.attr)
        self.generic_visit(node)


def attributes_read_outside(config_class):
    reads = AttributeReads(skip=config_class.__name__)
    for tree in source_trees():
        reads.visit(tree)
    return reads.names


@pytest.mark.parametrize("config_class", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_read_outside_its_class(config_class):
    read = attributes_read_outside(config_class)
    dead = {f.name for f in dataclasses.fields(config_class) if f.name not in read}
    kept_for_bench = UNREAD_FOR_BENCH.get(config_class.__name__, set())
    assert_shrink_only(
        dead, kept_for_bench, "UNREAD_FOR_BENCH", config_class, "nothing reads"
    )
    set_by_bench = fields_set_outside(config_class, ("bench",))
    assert kept_for_bench <= set_by_bench, (
        f"bench/ no longer sets {sorted(kept_for_bench - set_by_bench)}: delete "
        f"the field and its UNREAD_FOR_BENCH[{config_class.__name__!r}] entry"
    )


def fields_set_outside(config_class, roots):
    """Fields of ``config_class`` given a value somewhere under ``roots``."""
    sets = NamesSet(skip=config_class.__name__)
    for tree in setter_trees(roots):
        sets.visit(tree)
    return {f.name for f in dataclasses.fields(config_class) if f.name in sets.names}


def assert_shrink_only(found, allowed, name, config_class, advice):
    assert found <= allowed, (
        f"{config_class.__name__} fields {advice}: {sorted(found - allowed)}"
    )
    assert allowed <= found, (
        f"{name}[{config_class.__name__!r}] may only shrink; drop "
        f"{sorted(allowed - found)}"
    )


@pytest.mark.parametrize("config_class", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_set_outside_its_class(config_class):
    every = {f.name for f in dataclasses.fields(config_class)}
    never_set = every - fields_set_outside(config_class, SETTER_ROOTS)
    assert_shrink_only(
        never_set,
        NEVER_SET[config_class.__name__],
        "NEVER_SET",
        config_class,
        "nothing sets (make them constants)",
    )


@pytest.mark.parametrize("config_class", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_set_by_a_caller_outside_tests(config_class):
    tests_only = fields_set_outside(config_class, SETTER_ROOTS) - fields_set_outside(
        config_class, CALLER_ROOTS
    )
    assert_shrink_only(
        tests_only,
        TESTS_ONLY[config_class.__name__],
        "TESTS_ONLY",
        config_class,
        "only tests and examples set (give them a caller or make them constants)",
    )


def names_set_in(source):
    sets = NamesSet(skip="Config")
    sets.visit(ast.parse(source))
    return sets.names


def test_forwarded_keyword_is_not_counted_as_set():
    assert names_set_in("f(window=self.config.window, limit=config.limit)") == set()


def test_keyword_with_a_chosen_value_is_counted_as_set():
    source = "f(window=64, limit=config.cap, size=self.config.window, rate=rate)"
    assert names_set_in(source) == {"window", "limit", "size", "rate"}


def test_attribute_assignment_is_counted_as_set():
    assert names_set_in("config.window = 64\nself.limit = self.limit") == {
        "window",
        "limit",
    }


def test_names_set_inside_the_config_class_are_skipped():
    source = "class Config:\n    def f(self):\n        self.window = 1\ng(limit=2)"
    assert names_set_in(source) == {"limit"}
