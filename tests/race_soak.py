"""A pytest plugin that runs tests many times with threads switching constantly.

    PYTHONPATH=src python -m pytest -q -p tests.race_soak --soak-runs 200 \\
        "tests/unit/test_prepared_statements.py::TestConcurrentMutation" \\
        "tests/unit/test_readonly_plans.py::TestSharedMaster" \\
        "tests/unit/test_readonly_plans.py::TestSharedOutcome" \\
        "tests/unit/test_readonly_plans.py::TestSharedRowsUnderLoad" \\
        "tests/unit/test_prepared_statements.py::TestLoadRacingOutcomeStore" \\
        "tests/unit/test_kb_checkpoint_version.py::TestReloadSoak" \\
        "tests/integration/test_steering_guard_service.py::TestDifferentialIdentity"

Each collected test is parametrized ``--soak-runs`` times (``[0]`` ..
``[N-1]``), and every run starts with ``sys.setswitchinterval(1e-6)``: the
interpreter may then hand the GIL to another thread between almost any two
bytecodes, so a race in state two threads share -- a prepared master, the
execution memo and the plan outcomes it keeps, a knowledge-base generation,
a checkpoint directory -- fails a run instead of one build in a hundred.
``TestLoadRacingOutcomeStore`` pins the named interleaving "load racing an
outcome store": an execution pinned before a data load stores its outcome
after the memo's reset, and the next request must execute.
``TestDifferentialIdentity`` serves on the loop thread while the interpreter
switches constantly: its exact prepared hit / miss / replay counters must not
depend on scheduling.
Without ``--soak-runs`` the plugin changes nothing.
"""

import sys

import pytest

SWITCH_INTERVAL_S = 1e-6


def pytest_addoption(parser):
    parser.addoption(
        "--soak-runs",
        type=int,
        default=0,
        help="run every collected test this many times with a 1 us switch interval",
    )


def _soak_runs(config) -> int:
    return config.getoption("soak_runs")


def pytest_generate_tests(metafunc):
    runs = _soak_runs(metafunc.config)
    if runs > 0:
        metafunc.fixturenames.append("soak_run")
        metafunc.parametrize("soak_run", range(runs), indirect=True)


@pytest.fixture()
def soak_run(request):
    """The run's number; the switch interval is tiny for the test's length."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    yield request.param
    sys.setswitchinterval(previous)
