"""CLI entry point: ``python -m repro.experiments <experiment> [options]``.

Runs one (or all) of the paper's experiments and prints its table.  The
full paper-fidelity grids can take minutes; ``--quick`` trims repetitions
and grid density to something interactive while keeping every qualitative
claim checkable.  ``--chart`` appends an ASCII rendition of the figure's
curves where the experiment has any.  ``--jobs N`` fans the simulation
grids (fig8/fig9/fig10/ablations) out over N worker processes through
:func:`repro.sim.sweep.run_scenario_grid` — the numbers are identical
for any N; the remaining experiments are closed-form, a single cell
(headline) or already fast, and run serially.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from . import fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig12
from . import ablations, headline

__all__ = ["main", "EXPERIMENTS"]


def _run_fig3(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    rows = fig3.run_fig3()
    return fig3.render_fig3(rows), rows


def _run_fig4(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    rows = fig4.run_fig4()
    return fig4.render_fig4(rows), rows


def _run_fig5(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    counts = (30, 45, 60) if quick else fig5.FIG5_CLIENTS
    replicas = (4,) if quick else fig5.FIG5_REPLICA_COUNTS
    rows = fig5.run_fig5(counts, replicas)
    return fig5.render_fig5(rows), rows


def _run_fig6(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    rows = fig6.run_fig6()
    return fig6.render_fig6(rows), rows


def _run_fig7(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    repeats = 10 if quick else fig7.FIG7_REPEATS
    rows = fig7.run_fig7(repeats=repeats)
    return fig7.render_fig7(rows), rows


def _run_fig8(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    if quick:
        rows = fig8.run_fig8(
            bot_counts=(10_000, 30_000, 50_000, 100_000),
            repetitions=3,
            jobs=jobs,
        )
    else:
        rows = fig8.run_fig8(repetitions=30, jobs=jobs)
    output = fig8.render_fig8(rows)
    if chart:
        output += "\n\n" + fig8.chart_fig8(rows)
    return output, rows


def _run_fig9(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    if quick:
        rows = fig9.run_fig9(
            replica_counts=(900, 1200, 1600, 2000),
            repetitions=3,
            jobs=jobs,
        )
    else:
        rows = fig9.run_fig9(repetitions=30, jobs=jobs)
    output = fig9.render_fig9(rows)
    if chart:
        output += "\n\n" + fig9.chart_fig9(rows)
    return output, rows


def _run_fig10(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    reps = 3 if quick else 30
    curves = fig10.run_fig10(repetitions=reps, jobs=jobs)
    output = fig10.render_fig10(curves)
    if chart:
        output += "\n\n" + fig10.chart_fig10(curves)
    return output, curves


def _run_fig12(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    reps = 5 if quick else fig12.FIG12_REPEATS
    rows = fig12.run_fig12(repetitions=reps)
    output = fig12.render_fig12(rows)
    if chart:
        output += "\n\n" + fig12.chart_fig12(rows)
    return output, rows


def _run_headline(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    reps = 3 if quick else 10
    result = headline.run_headline(repetitions=reps)
    return headline.render_headline(result), result


def _run_ablations(quick: bool, chart: bool, jobs: int) -> tuple[str, object]:
    results = ablations.run_ablations(
        repetitions=3 if quick else 10, jobs=jobs
    )
    return ablations.render_ablations(results), results


EXPERIMENTS: dict[str, Callable[[bool, bool, int], tuple[str, object]]] = {
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig12": _run_fig12,
    "headline": _run_headline,
    "ablations": _run_ablations,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation of 'Catch Me if You Can: A "
            "Cloud-Enabled DDoS Defense' (DSN 2014)"
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which paper figure/claim to reproduce",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="trim repetitions/grids for an interactive run",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="append ASCII charts of the figure's curves",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the results as JSON to PATH",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the simulation grids (fig8/fig9/fig10/"
            "ablations); results are identical for any N"
        ),
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    names = list(EXPERIMENTS) if args.experiment == "all" else [
        args.experiment
    ]
    collected: dict[str, object] = {}
    for name in names:
        start = time.perf_counter()
        output, data = EXPERIMENTS[name](args.quick, args.chart, args.jobs)
        elapsed = time.perf_counter() - start
        collected[name] = data
        print(output)
        print(f"\n[{name} finished in {elapsed:.1f} s]\n")
    if args.json:
        from .export import dump_json

        dump_json(collected, args.json)
        print(f"[results written to {args.json}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
