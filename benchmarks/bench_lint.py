"""reprolint whole-tree latency benchmark.

The static-analysis gate only stays in the default developer loop (and
in CI on every push) while a full ``--project`` run over ``src/repro``
is interactive-fast.  This benchmark times the complete 22-rule run —
all file rules plus the P1-P14 whole-program passes, which parse every
module, build the import, call-graph, concurrency, and numeric-domain
indices — and fails if the min-of-repeats wall time crosses
``TIME_LIMIT_S``.  The per-stage timing breakdown (index builds vs.
each P-pass) from the fastest run is written alongside the totals.

Writes ``BENCH_lint.json`` (override with ``BENCH_LINT_JSON``) for CI
artifact upload.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.devtools import lint_project

TIME_LIMIT_S = 30.0
REPEATS = 3

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def test_whole_tree_project_lint_is_interactive(benchmark, show):
    # warm-up: imports, bytecode caches
    report = lint_project([SRC])
    assert report.ok, "benchmark expects a clean tree"

    samples = []
    best_timings: dict[str, float] = {}
    best = float("inf")
    for _ in range(REPEATS):
        begun = time.perf_counter()
        report = lint_project([SRC])
        elapsed = time.perf_counter() - begun
        samples.append(elapsed)
        if elapsed < best:
            best = elapsed
            best_timings = dict(report.timings)

    # One extra pass through pytest-benchmark for its table.
    benchmark.pedantic(
        lint_project,
        args=([SRC],),
        rounds=1,
        iterations=1,
    )

    rule_count = len(report.rules) + len(report.project_rules)
    assert rule_count == 22
    assert best <= TIME_LIMIT_S, (
        f"whole-tree lint took {best:.2f} s "
        f"(limit {TIME_LIMIT_S} s) — the gate is no longer interactive"
    )
    # The breakdown must cover both shared indices and every P-pass.
    assert "program_index" in best_timings
    assert "numeric_index" in best_timings
    pass_keys = [k for k in best_timings if k.startswith("pass_")]
    assert len(pass_keys) == len(report.project_rules)

    payload = {
        "files_checked": report.files_checked,
        "rules_active": rule_count,
        "repeats": REPEATS,
        "wall_time_s": {
            "best": round(best, 4),
            "samples": [round(s, 4) for s in samples],
        },
        "stage_breakdown_s": {
            key: round(value, 4)
            for key, value in sorted(best_timings.items())
        },
        "limit_s": TIME_LIMIT_S,
    }
    out_path = os.environ.get("BENCH_LINT_JSON", "BENCH_lint.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    slowest = sorted(
        (k for k in best_timings if k.startswith("pass_")),
        key=lambda k: -best_timings[k],
    )[:3]
    show(
        "reprolint whole-tree latency "
        f"(min of {REPEATS})\n"
        f"  files:  {report.files_checked}\n"
        f"  rules:  {rule_count}\n"
        f"  best:   {best:.2f} s (limit {TIME_LIMIT_S:.0f} s)\n"
        f"  index:  program {best_timings['program_index']:.2f} s, "
        f"numeric {best_timings['numeric_index']:.2f} s\n"
        + "".join(
            f"  {key}: {best_timings[key]:.2f} s\n" for key in slowest
        )
        + f"  written: {out_path}"
    )
