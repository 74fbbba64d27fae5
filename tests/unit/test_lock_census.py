"""Lock census and thread guard: one thread owns the engine.

A ``GaloService`` serves every request and runs its learner on the
event-loop thread, and no module under ``src/`` starts a thread or an
executor (:func:`test_no_module_under_src_starts_a_thread`), so no class
needs a lock.  The census walks the AST of every module under ``src/`` for
a reference to ``threading.Lock`` or ``threading.RLock`` -- a call or a
``default_factory`` alike -- and names each site by its module and the
attribute it is assigned to, qualified by the enclosing class.

``LOCK_SITES`` is shrink-only, like the field lists of
``test_config_fields.py``, and empty: a lock, or a thread, comes back only
with a change that decides to bring it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: (module, site) of every lock constructed in ``src/``.  Shrink-only.
LOCK_SITES = set()

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


def census(scan=None):
    found = set()
    for path in SRC.rglob("*.py"):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for site in (scan or sites_in)(path.read_text(encoding="utf-8")):
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


#: What starts a thread: the classes (``threading.Thread`` / ``Timer``, the
#: ``concurrent.futures`` executors, ``_thread.start_new_thread``) and the
#: asyncio calls that hand work to a pool thread.
THREAD_STARTERS = {
    "Thread",
    "Timer",
    "ThreadPoolExecutor",
    "ProcessPoolExecutor",
    "start_new_thread",
    "run_in_executor",
    "to_thread",
}


def thread_starts_in(source):
    """Names of every thread starter ``source`` refers to, in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in THREAD_STARTERS:
            found.append((node.lineno, node.col_offset, node.attr))
        elif isinstance(node, ast.Name) and node.id in THREAD_STARTERS:
            found.append((node.lineno, node.col_offset, node.id))
        elif isinstance(node, ast.ImportFrom):
            found.extend(
                (node.lineno, node.col_offset, alias.name)
                for alias in node.names
                if alias.name in THREAD_STARTERS
            )
    return [name for _, _, name in sorted(found)]


def test_no_module_under_src_starts_a_thread():
    """Shrink-only, like ``test_no_module_under_src_imports_multiprocessing``."""
    assert census(thread_starts_in) == set()


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import threading\nthreading.Thread(target=f).start()\n", ["Thread"]),
        ("from threading import Timer\nTimer(1, f)\n", ["Timer", "Timer"]),
        (
            "from concurrent.futures import ThreadPoolExecutor as Pool\nPool(2)\n",
            ["ThreadPoolExecutor"],
        ),
        ("import concurrent.futures\nconcurrent.futures.ProcessPoolExecutor()\n",
         ["ProcessPoolExecutor"]),
        ("await loop.run_in_executor(None, f)\n", ["run_in_executor"]),
        ("await asyncio.to_thread(f)\n", ["to_thread"]),
        ("import _thread\n_thread.start_new_thread(f, ())\n", ["start_new_thread"]),
    ],
    ids=["thread", "timer", "thread-pool", "process-pool", "run-in-executor",
         "to-thread", "start-new-thread"],
)
def test_every_thread_starter_is_found(source, expected):
    assert thread_starts_in(source) == expected


def test_thread_local_state_and_introspection_are_not_thread_starts():
    source = (
        "import threading\n"
        "local = threading.local()\n"
        "name = threading.current_thread().name\n"
        "threads = threading.enumerate()\n"
    )
    assert thread_starts_in(source) == []
