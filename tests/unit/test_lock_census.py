"""Lock census: every ``threading.Lock`` / ``RLock`` in ``src/`` is listed.

A ``GaloService`` starts no thread, so a lock earns its place only through a
class that callers really use from several threads (the threaded tests and
the race soak pin those).  The scan walks the AST of every module under
``src/`` for a reference to ``threading.Lock`` or ``threading.RLock`` -- a
call or a ``default_factory`` alike -- and names each site by its module and
the attribute it is assigned to, qualified by the enclosing class.

``LOCK_SITES`` is shrink-only, like the field lists of
``test_config_fields.py``: a new site fails, and so does an entry whose lock
is gone (drop it from the set).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: (module, site) of every lock constructed in ``src/``.  Shrink-only.
LOCK_SITES = {
    ("repro.cache", "LruCache._lock"),
    ("repro.core.knowledge_base", "KnowledgeBase._stats_lock"),
    ("repro.core.knowledge_base", "KnowledgeBase._write_lock"),
    ("repro.engine.database", "Database._memo_lock"),
    ("repro.obs.histogram", "Histogram._lock"),
    ("repro.obs.histogram", "StageTimings._lock"),
    ("repro.obs.store", "TraceStore._lock"),
    ("repro.service.metrics", "ServiceMetrics._lock"),
}

LOCK_FACTORIES = {"Lock", "RLock"}


def _is_lock_factory(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr in LOCK_FACTORIES
        and isinstance(node.value, ast.Name)
        and node.value.id == "threading"
    ) or (isinstance(node, ast.Name) and node.id in LOCK_FACTORIES)


def _target_name(target):
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return "<target>"


class LockSites(ast.NodeVisitor):
    """Collects ``(class.)attribute`` names of every lock construction."""

    def __init__(self):
        self.sites = []
        self._classes = []
        self._targets = []

    def visit_ClassDef(self, node):
        self._classes.append(node.name)
        self.generic_visit(node)
        self._classes.pop()

    def _visit_assignment(self, targets, node):
        self._targets.append(_target_name(targets[0]))
        self.generic_visit(node)
        self._targets.pop()

    def visit_Assign(self, node):
        self._visit_assignment(node.targets, node)

    def visit_AnnAssign(self, node):
        self._visit_assignment([node.target], node)

    def _record(self, node):
        if _is_lock_factory(node):
            target = self._targets[-1] if self._targets else "<expr>"
            self.sites.append(".".join(self._classes[-1:] + [target]))

    def visit_Attribute(self, node):
        self._record(node)
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._record(node)


def sites_in(source):
    visitor = LockSites()
    visitor.visit(ast.parse(source))
    return visitor.sites


def census():
    found = set()
    for path in SRC.rglob("*.py"):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for site in sites_in(path.read_text(encoding="utf-8")):
            found.add((module, site))
    return found


def test_lock_sites_match_the_census():
    found = census()
    assert found <= LOCK_SITES, f"new lock sites: {sorted(found - LOCK_SITES)}"
    assert LOCK_SITES <= found, (
        f"LOCK_SITES may only shrink; drop {sorted(LOCK_SITES - found)}"
    )


def test_attribute_lock_is_named_by_its_class():
    source = (
        "import threading\n"
        "class Cache:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.RLock()\n"
    )
    assert sites_in(source) == ["Cache._lock"]


def test_default_factory_and_bare_names_count():
    source = (
        "from threading import Lock\n"
        "import threading\n"
        "class Box:\n"
        "    guard: object = field(default_factory=threading.Lock)\n"
        "_GLOBAL = Lock()\n"
    )
    assert sites_in(source) == ["Box.guard", "_GLOBAL"]


def test_other_threading_names_do_not_count():
    source = "import threading\nlocal = threading.local()\nthreading.Thread()\n"
    assert sites_in(source) == []
