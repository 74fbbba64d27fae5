"""Run records: measuring one run, running them all, rendering and diffing."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

from bench.config import (
    REPO_ROOT,
    Sizes,
    declared_metrics,
    load_declaration,
    scratch_directory,
)

#: End-to-end metrics that are counts or simulated times: equal inputs give
#: equal values, so two runs of one commit must agree on them exactly.
EXACT_END_TO_END = ("sim_runtime_ratio", "steered_share", "kb_templates")

#: Per-layer counters taken single-threaded in the path round: also exact.
EXACT_PER_LAYER = (
    "engine.database.explain_cache_hit_ratio",
    "engine.executor.memo_hit_ratio",
    "engine.executor.memo_byte_evictions",
    "engine.executor.memo_resets",
    "engine.executor.rows_returned",
    "engine.executor.logical_reads",
    "engine.executor.bufferpool_hit_ratio",
    "core.matching.sparql_cache_hit_ratio",
    "core.knowledge_base.templates",
    "core.knowledge_base.candidates_per_segment",
    "core.knowledge_base.index_skip_ratio",
    "core.knowledge_base.match_yield",
    "core.knowledge_base.evicted_templates",
    "core.learning.subqueries_analyzed",
    "core.learning.templates_per_subquery",
)


def host_spin_ms() -> float:
    """A fixed pure-Python loop, timed: a noisy host shows in the record."""
    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return (time.perf_counter() - started) * 1000.0


def provenance() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "git_sha": git_sha,
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
        "nproc": os.cpu_count(),
        "load_average": list(os.getloadavg()),
    }


def measure(workload: str, seed: int, sizes: Sizes, trace: bool) -> Dict:
    """One run of one workload in one mode, as a full record.

    Emitted metric names must be exactly the ones BENCHMARK.json declares
    for the mode; each gets its declared unit.
    """
    # Imported here so ``diff`` works on a machine that cannot import repro.
    from bench.layers import run_traced
    from bench.workloads import run_untraced

    kind = "per_layer" if trace else "end_to_end"
    spin_before = host_spin_ms()
    record = run_traced(workload, seed, sizes) if trace else run_untraced(workload, seed, sizes)
    units = {entry["name"]: entry["unit"] for entry in declared_metrics(kind)}
    emitted = record[kind]
    if set(emitted) != set(units):
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(set(emitted) - set(units))}, "
            f"missing {sorted(set(units) - set(emitted))}"
        )
    for name, entry in emitted.items():
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"{workload}: {name} is {entry['value']}")
        entry["unit"] = units[name]
    record.update(
        workload=workload,
        seed=seed,
        trace=trace,
        sizes=dataclasses.asdict(sizes),
        correct=record["failed"] == 0,
        provenance=provenance(),
        host_spin_ms={"before": spin_before, "after": host_spin_ms()},
    )
    return record


def contract_line(record: Dict) -> Dict:
    """The one JSON object BENCHMARK.json's contract asks for."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in record[kind].items()
        },
    }


def render_record(record: Dict) -> str:
    """Every metric of a record by name, with its unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    lines = [
        f"{record['workload']}  seed={record['seed']}  "
        f"{'traced' if record['trace'] else 'untraced'}  "
        f"attempted={record['attempted']} failed={record['failed']}  "
        f"host_spin_ms={record['host_spin_ms']['before']:.1f}/{record['host_spin_ms']['after']:.1f}"
    ]
    for name, entry in record[kind].items():
        spread = ""
        if "min" in entry:
            spread = f"  (rounds {entry['min']:.4g} .. {entry['max']:.4g})"
        lines.append(f"  {name:<48} {entry['value']:>14.6g} {entry['unit']}{spread}")
    p99 = [round_["latency_p99_ms"] for round_ in record.get("rounds", ()) if "latency_p99_ms" in round_]
    if p99:
        lines.append(f"  (p99 per round, not a metric: {', '.join(f'{v:.4g}' for v in p99)} ms)")
    for mismatch in record.get("verify", {}).get("mismatches", []):
        lines.append(f"  VERIFY MISMATCH: {mismatch}")
    return "\n".join(lines)


def run_all(workloads: Sequence[str], options: Sequence[str]) -> Dict:
    """Every workload, untraced then traced, each in a fresh process.

    A fresh process per run keeps ``peak_rss_mb`` the workload's own and
    lets nothing one workload cached reach the next.  ``options`` are the
    measuring flags (seed, seconds, ...) handed to each process.
    """
    document: Dict = {
        "options": list(options),
        "provenance": provenance(),
        "workloads": {},
    }
    with scratch_directory() as directory:
        detail = directory / "detail.json"
        for workload in workloads:
            runs = {}
            for mode, trace in (("untraced", 0), ("traced", 1)):
                command = [
                    sys.executable, "-m", "bench", "--workload", workload,
                    "--trace", str(trace), "--detail", str(detail), *options,
                ]
                completed = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
                if not detail.exists():
                    raise RuntimeError(
                        f"{workload} ({mode}) produced no record:\n{completed.stderr}"
                    )
                runs[mode] = json.loads(detail.read_text())
                detail.unlink()
                print(render_record(runs[mode]), flush=True)
            document["workloads"][workload] = runs
    return document


def all_correct(document: Dict) -> bool:
    return all(
        run["correct"] for runs in document["workloads"].values() for run in runs.values()
    )


# -- diff -----------------------------------------------------------------------


def _worse_by(before: float, after: float, better: str) -> float:
    """Signed share of ``before`` by which ``after`` is worse (negative = better)."""
    if before == 0:
        return 0.0 if after == 0 else math.inf
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def _verdict(before: Dict, after: Dict, better: str, bound: float) -> Tuple[str, float]:
    worse = _worse_by(before["value"], after["value"], better)
    if abs(worse) <= bound:
        return "unchanged", worse
    low_b, high_b = before.get("min", before["value"]), before.get("max", before["value"])
    low_a, high_a = after.get("min", after["value"]), after.get("max", after["value"])
    spread = max(
        (high_b - low_b) / abs(before["value"]) if before["value"] else 0.0,
        (high_a - low_a) / abs(after["value"]) if after["value"] else 0.0,
    )
    overlap = low_a <= high_b and low_b <= high_a
    if spread > bound and overlap:
        return "unresolved", worse
    return ("regressed" if worse > 0 else "improved"), worse


def render_diff(before: Dict, after: Dict, same_code: bool = False) -> Tuple[str, bool]:
    """Compare two ``run`` documents; returns ``(text, failed)``.

    One row per (workload, end-to-end metric): both medians with their round
    min..max, the bound, a verdict.  Then per-layer deltas, largest relative
    change first.  Every ratio is printed with its base.  ``failed`` is a
    regression -- or, with ``same_code`` (``aa``), any disagreement: a moved
    bounded metric or a differing exact one.
    """
    declaration = load_declaration()
    lines: List[str] = []
    failed = False
    lines.append(
        f"{'workload':<15} {'metric':<18} {'before':>12} {'after':>12} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    )
    for workload, runs_before in before["workloads"].items():
        runs_after = after["workloads"].get(workload)
        if runs_after is None:
            continue
        e2e_before = runs_before["untraced"]["end_to_end"]
        e2e_after = runs_after["untraced"]["end_to_end"]
        for entry in declaration["end_to_end"]:
            name, better, bound = entry["name"], entry["better"], entry["bound"]
            b, a = e2e_before[name], e2e_after[name]
            verdict, worse = _verdict(b, a, better, bound)
            if same_code and name in EXACT_END_TO_END and a["value"] != b["value"]:
                verdict = "differs (exact)"
            if verdict == "regressed" or (same_code and verdict != "unchanged"):
                failed = True

            ranges = ""
            if "min" in b:
                ranges = (
                    f"  [{b['min']:.4g}..{b['max']:.4g}] -> [{a['min']:.4g}..{a['max']:.4g}]"
                )
            lines.append(
                f"{workload:<15} {name:<18} {b['value']:>12.5g} {a['value']:>12.5g} "
                f"{worse * 100:>+8.1f}% {bound * 100:>5.0f}%  {verdict} "
                f"(of {b['value']:.5g} {entry['unit']}){ranges}"
            )
    lines.append("")
    lines.append("per-layer deltas (after - before, as a share of before), largest first:")
    deltas = []
    for workload, runs_before in before["workloads"].items():
        runs_after = after["workloads"].get(workload)
        if runs_after is None:
            continue
        layer_before = runs_before["traced"]["per_layer"]
        layer_after = runs_after["traced"]["per_layer"]
        for name, b in layer_before.items():
            a = layer_after.get(name)
            if a is None:
                continue
            if same_code and name in EXACT_PER_LAYER and a["value"] != b["value"]:
                failed = True
                lines.append(
                    f"  EXACT COUNTER DIFFERS {workload} {name}: {b['value']} -> {a['value']}"
                )
            if b["value"] == a["value"]:
                continue
            share = (a["value"] - b["value"]) / abs(b["value"]) if b["value"] else math.inf
            deltas.append((abs(share), workload, name, b, a, share))
    deltas.sort(key=lambda item: (-item[0], item[1], item[2]))
    for _, workload, name, b, a, share in deltas:
        lines.append(
            f"  {workload:<15} {name:<46} {b['value']:>12.5g} -> {a['value']:>12.5g} "
            f"{b['unit']:<6} {share * 100:>+8.1f}% of {b['value']:.5g}"
        )
    return "\n".join(lines), failed
