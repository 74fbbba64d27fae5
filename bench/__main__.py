"""Command line of the benchmark.

``python3 -m bench --workload W --seed N --seconds S --trace 0|1`` is the
contract BENCHMARK.json names: one workload, one mode, one JSON line last.
``python -m bench run|diff|aa`` are the commands for people (see README.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

# The checkout's own sources, so the command needs no PYTHONPATH; the
# benchmark's directory is importable because ``-m`` puts the cwd first.
_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT / "src"), str(_ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from bench import report  # noqa: E402
from bench.config import (  # noqa: E402
    PINNED,
    PINNED_SECONDS,
    POPULATION_SEED,
    SMOKE,
    WORKLOADS,
)


def _measure_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=PINNED_SECONDS)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tier-1 smoke test)")
    parser.add_argument(
        "--population-seed", type=int, default=POPULATION_SEED,
        help="seed of the database, the workload queries and the statement pool",
    )


def _sizes(args):
    sizes = (SMOKE if args.smoke else PINNED).for_seconds(args.seconds)
    return replace(sizes, population_seed=args.population_seed)


def _measure_options(args) -> list:
    """The measuring flags of ``args``, to hand to each workload's own process."""
    options = [
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--population-seed", str(args.population_seed),
    ]
    return options + ["--smoke"] if args.smoke else options


def single_run(argv) -> int:
    """The contract: run one workload in one mode, print the result line."""
    parser = argparse.ArgumentParser(prog="python3 -m bench")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="also write the full run record to this file")
    _measure_arguments(parser)
    args = parser.parse_args(argv)
    sizes = _sizes(args)
    record = report.measure(args.workload, args.seed, sizes, bool(args.trace))
    if args.detail:
        Path(args.detail).write_text(json.dumps(record, indent=2, sort_keys=True))
    print(report.render_record(record))
    print(json.dumps(report.contract_line(record)))
    return 0 if record["correct"] else 1


def main(argv) -> int:
    if not argv or argv[0] not in ("run", "diff", "aa"):
        return single_run(argv)
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "aa"):
        command = commands.add_parser(name)
        command.add_argument("--workload", action="append", choices=WORKLOADS)
        command.add_argument("--out", help="write the JSON document here")
        _measure_arguments(command)
    diff = commands.add_parser("diff")
    diff.add_argument("before")
    diff.add_argument("after")
    args = parser.parse_args(argv)
    if args.command == "diff":
        before = json.loads(Path(args.before).read_text())
        after = json.loads(Path(args.after).read_text())
        text, regressed = report.render_diff(before, after)
        print(text)
        return 1 if regressed else 0
    workloads = args.workload or list(WORKLOADS)
    options = _measure_options(args)
    first = report.run_all(workloads, options)
    if args.command == "run":
        document, exit_code = first, 0 if report.all_correct(first) else 1
    else:
        second = report.run_all(workloads, options)
        text, disagree = report.render_diff(first, second, same_code=True)
        print(text)
        document = {"first": first, "second": second}
        correct = report.all_correct(first) and report.all_correct(second)
        exit_code = 1 if disagree or not correct else 0
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True))
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
