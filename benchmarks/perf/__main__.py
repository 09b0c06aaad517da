"""Command line of the perf benchmark (``python -m benchmarks.perf``)."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from . import SRC, ledger
from .hostclock import HostClock
from .schema import (
    CONTRACT_END_TO_END,
    CONTRACT_PER_LAYER,
    END_TO_END,
    METRICS,
    PER_LAYER,
)
from .stats import median
from .tracing import Tracer, install_layers

USAGE_ERROR = 2


def _print_values(
    workload: str, values: dict[str, tuple[float, int]]
) -> None:
    for name, (value, n) in values.items():
        print(
            f"{workload:<16} {name:<40} {value:>16.6f} "
            f"{METRICS[name].unit:<6} n={n}"
        )


def _run_one(args: argparse.Namespace) -> int:
    """One workload in this process; last stdout line is the result."""
    from .workloads import WORKLOADS  # imports the program under test

    traced = bool(args.trace)
    with tempfile.TemporaryDirectory(
        prefix=".perf-", dir=os.getcwd()
    ) as scratch, Tracer() as tracer, HostClock() as host:
        if traced:
            install_layers(tracer)
        result = WORKLOADS[args.workload].run(
            args.seed, args.seconds, tracer if traced else None,
            Path(scratch), host,
        )
    result.values["host_speed"] = (
        host.speed(host.laps[0][0], host.laps[-1][0]), len(host.laps)
    )
    catalogue = PER_LAYER if traced else END_TO_END
    values = {
        m.name: result.values[m.name]
        for m in catalogue
        if m.name in result.values
    }
    _print_values(args.workload, values)
    for problem in result.problems:
        print(f"{args.workload}: WRONG: {problem}")
    if args.out:
        ledger.write(
            args.out,
            ledger.make_records(args.workload, args.seed, traced, values),
        )
    contract = CONTRACT_PER_LAYER if traced else CONTRACT_END_TO_END
    print(json.dumps({
        "correct": not result.problems,
        "attempted": max(1, result.attempted),
        "failed": result.failed,
        "metrics": {
            name: {
                "value": values.get(name, (0.0, 0))[0],
                "unit": METRICS[name].unit,
            }
            for name in contract
        },
    }))
    return 1 if result.problems else 0


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in fresh child processes: untraced, then traced."""
    from .workloads import WORKLOADS

    records: list[dict] = []
    wrong: list[str] = []
    with tempfile.TemporaryDirectory(
        prefix=".perf-", dir=os.getcwd()
    ) as scratch:
        out = Path(scratch) / "child.json"
        for workload in WORKLOADS:
            passes = [(args.seed + i, 0) for i in range(args.runs)]
            passes.append((args.seed, 1))
            rates: dict[int, list[float]] = {0: [], 1: []}
            for seed, trace in passes:
                done = subprocess.run(
                    [
                        sys.executable, "-m", "benchmarks.perf",
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(trace), "--out", str(out),
                    ],
                    cwd=ledger.ROOT,
                )
                if done.returncode != 0:
                    wrong.append(f"{workload} seed={seed} trace={trace}")
                if not out.exists():
                    continue
                child = ledger.load(out)
                out.unlink()
                records += child
                rates[trace] += [
                    r["value"] for r in child
                    if r["metric"]
                    in ("work_per_ref_s", "obs.traced_work_per_ref_s")
                ]
            if rates[0] and rates[1]:
                overhead = {
                    "obs.trace_overhead_ratio": (
                        rates[1][0] / median(rates[0]), len(rates[0])
                    )
                }
                _print_values(workload, overhead)
                sys.stdout.flush()  # keep order with the children's lines
                records += ledger.make_records(
                    workload, args.seed, True, overhead
                )
    if args.out:
        ledger.write(args.out, records)
    for entry in wrong:
        print(f"WRONG OUTPUT: {entry}")
    return 1 if wrong else 0


def _compare(args: argparse.Namespace) -> int:
    rows = ledger.compare(ledger.load(args.base), ledger.load(args.change))
    print(ledger.render_compare(rows))
    return 1 if any(row["status"] == "regressed" for row in rows) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not (SRC / "repro").is_dir():
        print(f"benchmarks.perf: no program to measure at {SRC}",
              file=sys.stderr)
        return USAGE_ERROR
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="benchmarks.perf compare")
        parser.add_argument("base")
        parser.add_argument("change")
        return _compare(parser.parse_args(argv[1:]))
    from .workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__
    )
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS),
        help="run this one workload in-process (default: all, each in "
        "a fresh child, untraced then traced)",
    )
    parser.add_argument("--seed", type=int, default=1, help="load seed")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--runs", type=int, default=1,
        help="untraced runs per workload, on consecutive seeds",
    )
    parser.add_argument("--out", help="write the ledger records here")
    args = parser.parse_args(argv)
    return _run_one(args) if args.workload else _run_all(args)


if __name__ == "__main__":
    sys.exit(main())
