"""Tier-1 smoke test of the benchmark: ``--smoke`` sizes, in process.

Checks the contract between the code and BENCHMARK.json, not performance:
every declared metric is emitted once with a finite value, nothing undeclared
is emitted, verify passes, and the metrics that must repeat do repeat.
"""

from __future__ import annotations

import math
import re

import pytest

from bench import report
from bench.config import SMOKE, WORKLOADS, load_declaration

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declaration():
    return load_declaration()


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """Two untraced runs and one traced run of one workload, same seed."""
    workload = request.param
    return {
        "untraced": [report.measure(workload, 42, SMOKE, trace=False) for _ in range(2)],
        "traced": report.measure(workload, 42, SMOKE, trace=True),
    }


def test_declaration_is_well_formed(declaration):
    assert set(declaration) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [entry["name"] for entry in declaration["workloads"]] == list(WORKLOADS)
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in declaration[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for kind in ("end_to_end", "per_layer"):
        for entry in declaration[kind]:
            assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    assert all(0 < entry["bound"] <= 0.25 for entry in declaration["end_to_end"])
    assert "setup_s" in {entry["name"] for entry in declaration["end_to_end"]}


def test_every_declared_metric_is_emitted_once(declaration, runs):
    # ``measure`` itself raises on an undeclared or a missing name; this
    # checks what it hands to the contract line.
    for record, kind in ((runs["untraced"][0], "end_to_end"), (runs["traced"], "per_layer")):
        line = report.contract_line(record)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        declared = {entry["name"]: entry["unit"] for entry in declaration[kind]}
        assert set(line["metrics"]) == set(declared)
        for name, metric in line["metrics"].items():
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"])
        assert line["attempted"] >= 1


def test_verify_passes(runs):
    for record in (*runs["untraced"], runs["traced"]):
        assert record["correct"] and record["failed"] == 0, record.get("verify")
    assert all(record["verify"]["checked"] > 0 for record in runs["untraced"])


def test_exact_metrics_repeat(runs):
    first, second = runs["untraced"]
    assert first["requests_sha256"] == second["requests_sha256"]
    for name in report.EXACT_END_TO_END:
        assert first["end_to_end"][name]["value"] == second["end_to_end"][name]["value"], name
