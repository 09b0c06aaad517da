"""``repro-lint`` — command-line entry point for reprolint.

Usage::

    repro-lint src/repro                  # file rules, text report
    repro-lint --project src/repro        # + whole-program rules P1-P14
    repro-lint --project --changed src/repro   # only files changed vs HEAD
    repro-lint --changed=main src/repro   # ... or vs any git ref
    repro-lint --graph docs/import-graph.dot src/repro  # export graph
    repro-lint --format json src/repro    # machine-readable output
    repro-lint --format sarif src/repro   # GitHub code-scanning upload
    repro-lint --select R1,P3 src/repro   # subset across both scopes
    repro-lint --list-rules               # rule catalogue with rationales

Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .registry import all_project_rules, all_rules
from .reporters import render_json, render_sarif, render_text
from .runner import (
    find_package_root,
    default_consumer_roots,
    lint_paths,
    lint_project,
)

def _split_ids(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain-aware static analysis for the repro codebase: "
            "determinism, log-space numerics, API invariants, and "
            "whole-program contracts (import layering, RNG provenance, "
            "determinism dataflow)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro if it "
        "exists, else the current directory)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text); sarif emits SARIF 2.1.0 "
        "for GitHub code scanning",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule IDs to run exclusively (e.g. R1,P3)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="also run the whole-program rules (P1-P14) over the tree",
    )
    parser.add_argument(
        "--changed",
        metavar="REF",
        nargs="?",
        const="HEAD",
        help="lint only files changed vs. the given git ref (default "
        "HEAD) plus untracked files; in project scope the whole tree is "
        "still indexed, but only changed files are reported on",
    )
    parser.add_argument(
        "--graph",
        metavar="FILE",
        help="export the module import graph (implies --project; "
        "Graphviz dot, or JSON when FILE ends in .json; '-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _changed_files(ref: str) -> set[Path] | None:
    """Python files changed vs. ``ref`` plus untracked ones, resolved.

    Returns ``None`` when git is unavailable or the ref does not
    resolve — the caller turns that into a usage error rather than
    silently linting nothing.
    """
    import subprocess

    commands = (
        ["git", "diff", "--name-only", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    changed: set[Path] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        for line in proc.stdout.splitlines():
            name = line.strip()
            if name.endswith(".py"):
                changed.add(Path(name).resolve())
    return changed


def _export_graph(destination: str, paths: list[Path]) -> int:
    import json as _json

    from .program.context import ProgramContext
    from .program.graph import render_dot, render_graph_json

    package_root = find_package_root(paths)
    if package_root is None:
        print(
            "repro-lint: --graph needs a package directory", file=sys.stderr
        )
        return 2
    program = ProgramContext.build(
        package_root, consumer_roots=default_consumer_roots(package_root)
    )
    if destination.endswith(".json"):
        rendered = _json.dumps(
            render_graph_json(program), indent=2, sort_keys=True
        )
    else:
        rendered = render_dot(program)
    if destination == "-":
        print(rendered)
    else:
        Path(destination).write_text(
            rendered if rendered.endswith("\n") else rendered + "\n",
            encoding="utf-8",
        )
        print(f"repro-lint: import graph written to {destination}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule_obj in all_rules():
            print(f"{rule_obj.rule_id}  {rule_obj.name}")
            print(f"    {rule_obj.rationale}")
        for rule_obj in all_project_rules():
            print(f"{rule_obj.rule_id}  {rule_obj.name}  [project]")
            print(f"    {rule_obj.rationale}")
        return 0

    if options.changed and Path(options.changed).is_dir():
        # argparse's optional-argument greediness: `--changed src/repro`
        # binds the path meant as a positional.  Catch it early.
        parser.error(
            f"--changed got a directory ({options.changed}); use "
            "--changed=REF, or put --changed after the paths"
        )

    paths = [Path(p) for p in options.paths]
    if not paths:
        default = Path("src/repro")
        paths = [default if default.is_dir() else Path(".")]
    missing = [p for p in paths if not p.exists()]
    if missing:
        parser.error(
            "no such file or directory: "
            + ", ".join(str(p) for p in missing)
        )

    project_mode = bool(options.project or options.graph)
    select = _split_ids(options.select) if options.select else None
    ignore = _split_ids(options.ignore) if options.ignore else None

    only_files: set[Path] | None = None
    if options.changed:
        only_files = _changed_files(options.changed)
        if only_files is None:
            parser.error(
                f"--changed could not diff against {options.changed!r} "
                "(not a git repository, or unknown ref)"
            )

    if options.graph:
        status = _export_graph(options.graph, paths)
        if status != 0 or not options.project:
            return status

    try:
        if project_mode:
            report = lint_project(
                paths, select=select, ignore=ignore, only_files=only_files
            )
        else:
            report = lint_paths(
                paths, select=select, ignore=ignore, only_files=only_files
            )
    except KeyError as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))

    if options.format == "json":
        print(render_json(report))
    elif options.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
