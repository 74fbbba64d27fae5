"""Dead-knob guard: every config field is read somewhere outside its class.

A field that nothing reads is an option that selects nothing.  The scan is
by attribute name over the AST of every module under ``src/`` (the defining
class body excluded, so ``__post_init__`` validation does not count as a
use); a name shared with another class's attribute passes, which errs on the
side of not failing.
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
SRC = Path(__file__).resolve().parents[2] / "src"


@functools.lru_cache(maxsize=None)
def source_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.rglob("*.py")]


class AttributeReads(ast.NodeVisitor):
    """Names of every attribute read outside the class named ``skip``."""

    def __init__(self, skip):
        self.skip = skip
        self.names = set()

    def visit_ClassDef(self, node):
        if node.name != self.skip:
            self.generic_visit(node)

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
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
