"""Dead-knob guard: every config field is read, and set, outside its class.

A field that nothing reads is an option that selects nothing.  The scan is
by attribute name over the AST of every module under ``src/`` (the defining
class body excluded, so ``__post_init__`` validation does not count as a
use); a name shared with another class's attribute passes, which errs on the
side of not failing.

A field that nothing *sets* -- no keyword argument, no attribute assignment
anywhere in ``src/``, ``tests/``, ``bench/``, ``benchmarks/`` or ``examples/``
-- only ever has its default: a constant with a config field's upkeep.  The
fields in that state when the check was written are listed in ``NEVER_SET``,
which may only shrink: a new never-set field fails, and so does an entry that
is set by now or no longer exists.
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
SETTER_ROOTS = ["src", "tests", "bench", "benchmarks", "examples"]

#: Fields nothing sets, by class.  Shrink-only: give a field a second value
#: somewhere (and drop it here) or turn it into a constant (and drop it here).
NEVER_SET = {
    "DbConfig": {
        "page_size_rows",
        "sort_heap_pages",
        "opt_seq_page_cost",
        "opt_rand_page_cost",
        "opt_cpu_row_cost",
        "opt_transfer_rate",
        "opt_sort_row_cost",
        "opt_hash_build_row_cost",
        "opt_hash_probe_row_cost",
        "run_seq_page_cost",
        "run_rand_page_cost",
        "run_cpu_row_cost",
        "run_sort_row_cost",
        "run_hash_build_row_cost",
        "run_hash_probe_row_cost",
        "run_spill_page_cost",
        "noise_level",
    },
    "ServiceConfig": {
        "learning_queue_limit",
        "guard_probation_wins",
        "online_workload_name",
        "trace_store_capacity",
        "slow_query_log_capacity",
    },
    "ShardedServiceConfig": {"restart_crashed_workers", "start_method"},
    # Read by ``bench/layers.py`` to size its own ``Db2Batch``.
    "LearningConfig": {"runs_per_plan"},
    "MatchingConfig": set(),
    "ExperimentSettings": {"improvement_threshold"},
}


@functools.lru_cache(maxsize=None)
def source_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")]


@functools.lru_cache(maxsize=None)
def setter_trees():
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for root in SETTER_ROOTS
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
    attribute assigned to."""

    def visit_keyword(self, node):
        if node.arg is not None:
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
    dead = [f.name for f in dataclasses.fields(config_class) if f.name not in read]
    assert not dead, f"{config_class.__name__} fields nothing reads: {dead}"


@pytest.mark.parametrize("config_class", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_set_outside_its_class(config_class):
    sets = NamesSet(skip=config_class.__name__)
    for tree in setter_trees():
        sets.visit(tree)
    never_set = {
        f.name for f in dataclasses.fields(config_class) if f.name not in sets.names
    }
    allowed = NEVER_SET[config_class.__name__]
    assert never_set <= allowed, (
        f"{config_class.__name__} fields nothing sets (make them constants): "
        f"{sorted(never_set - allowed)}"
    )
    assert allowed <= never_set, (
        f"NEVER_SET[{config_class.__name__!r}] may only shrink; drop "
        f"{sorted(allowed - never_set)}"
    )
