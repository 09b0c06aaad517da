"""The ledger: one flat record per measured value, and its diff.

A ledger file is ``{"schema": ..., "records": [...]}``; every record
names the commit and host it was measured on, so two files from
different machines are never compared by accident without it showing.
"""

from __future__ import annotations

import functools
import json
import os
import platform
import socket
import subprocess
from pathlib import Path
from typing import Any, Iterable

from .schema import METRICS
from .stats import median, spread

__all__ = [
    "SCHEMA",
    "compare",
    "host_fingerprint",
    "load",
    "make_records",
    "render_compare",
    "write",
]

SCHEMA = "benchmarks.perf/1"
ROOT = Path(__file__).resolve().parents[2]

Record = dict[str, Any]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


@functools.cache
def host_fingerprint() -> dict[str, Any]:
    """What a number depends on besides the code: cores, CPU, runtimes."""
    import numpy

    try:
        loopback = socket.gethostbyname("localhost")
    except OSError:
        loopback = "unresolved"
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loopback": loopback,
    }


@functools.cache
def current_commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def make_records(
    workload: str,
    seed: int,
    traced: bool,
    values: dict[str, tuple[float, int]],
) -> list[Record]:
    commit = current_commit()
    host = host_fingerprint()
    return [
        {
            "commit": commit,
            "host": host,
            "workload": workload,
            "seed": seed,
            "traced": traced,
            "layer": METRICS[name].layer,
            "metric": name,
            "unit": METRICS[name].unit,
            "value": value,
            "n": n,
        }
        for name, (value, n) in values.items()
    ]


def write(path: str | Path, records: Iterable[Record]) -> None:
    """One record per line, so a ledger diffs line by line in git."""
    lines = ",\n".join(
        "  " + json.dumps(record, sort_keys=True) for record in records
    )
    Path(path).write_text(
        f'{{"schema": "{SCHEMA}", "records": [\n{lines}\n]}}\n',
        encoding="utf-8",
    )


def load(path: str | Path) -> list[Record]:
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if document.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} ledger")
    return document["records"]


# ----------------------------------------------------------------------
def _series(records: Iterable[Record]) -> dict[tuple[str, str], list[float]]:
    series: dict[tuple[str, str], list[float]] = {}
    for record in records:
        if record["layer"] == "end_to_end":
            key = (record["workload"], record["metric"])
            series.setdefault(key, []).append(float(record["value"]))
    return series


def compare(
    base: Iterable[Record], change: Iterable[Record]
) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric) present on both sides.

    ``regressed``: the change's median is worse than the base's by more
    than the metric's bound.  ``unresolved``: either side's run-to-run
    spread is wider than the bound, so the medians cannot tell — unless
    every run of the change beats every run of the base.
    """
    base_series, change_series = _series(base), _series(change)
    rows = []
    for key in sorted(base_series.keys() & change_series.keys()):
        workload, name = key
        metric = METRICS[name]
        if not (metric.bound or metric.abs_bound):
            continue  # context (host_speed), not a judged metric
        a, b = base_series[key], change_series[key]
        a_mid, b_mid = median(a), median(b)
        allowed = metric.allowed(a_mid)
        # Orient both sides so that larger is worse.
        sign = 1.0 if metric.better == "lower" else -1.0
        noisy = max(spread(a), spread(b)) * abs(a_mid) > allowed
        clear_win = max(sign * v for v in b) < min(sign * v for v in a)
        if noisy and not clear_win:
            status = "unresolved"
        elif sign * (b_mid - a_mid) > allowed:
            status = "regressed"
        else:
            status = "ok"
        rows.append({
            "workload": workload,
            "metric": name,
            "unit": metric.unit,
            "base": a_mid,
            "base_runs": len(a),
            "change": b_mid,
            "change_runs": len(b),
            "ratio": b_mid / a_mid if a_mid else float("inf"),
            "allowed": allowed,
            "status": status,
        })
    return rows


def render_compare(rows: list[dict[str, Any]]) -> str:
    header = (
        f"{'workload':<16} {'metric':<24} {'base':>12} {'change':>12} "
        f"{'change/base':>11} {'allowed':>10} {'unit':<6} status"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['workload']:<16} {row['metric']:<24} "
            f"{row['base']:>12.4f} {row['change']:>12.4f} "
            f"{row['ratio']:>11.4f} {row['allowed']:>10.4f} "
            f"{row['unit']:<6} {row['status']}"
            f" (n={row['base_runs']}/{row['change_runs']})"
        )
    return "\n".join(lines)
