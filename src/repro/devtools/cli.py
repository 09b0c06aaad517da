"""``repro-lint`` — command-line entry point for reprolint.

Usage::

    repro-lint src/repro                  # every registered rule, text report
    repro-lint path/to/loose_file.py      # no package: file rules only
    repro-lint --graph docs/import-graph.dot src/repro  # export graph
    repro-lint --format json src/repro    # machine-readable output
    repro-lint --format sarif src/repro   # GitHub code-scanning upload
    repro-lint --select R1,P3 src/repro   # a subset of the rules
    repro-lint --list-rules               # rule catalogue with rationales

A package directory (or a directory holding exactly one package) gets
the file rules and the whole-program P-series rules; files outside any
package get the file rules.  ``--graph`` only exports the import graph.

Exit codes: 0 clean, 1 violations found, 2 usage error (also a
selection that leaves no rule to run, or a graph that could not be
written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .registry import all_rules
from .reporters import render_json, render_sarif, render_text
from .runner import (
    NoRulesToRun,
    default_consumer_roots,
    find_package_root,
    lint,
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
        "--graph",
        metavar="FILE",
        help="only export the module import graph of the package "
        "(Graphviz dot, or JSON when FILE ends in .json; '-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


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
        try:
            Path(destination).write_text(
                rendered if rendered.endswith("\n") else rendered + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            print(
                f"repro-lint: cannot write {destination}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
        print(f"repro-lint: import graph written to {destination}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule_obj in all_rules():
            scope = "  [project]" if rule_obj.scope == "project" else ""
            print(f"{rule_obj.rule_id}  {rule_obj.name}{scope}")
            print(f"    {rule_obj.rationale}")
        return 0

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

    if options.graph:
        return _export_graph(options.graph, paths)

    select = None if options.select is None else _split_ids(options.select)
    ignore = _split_ids(options.ignore) if options.ignore else None
    try:
        report = lint(paths, select=select, ignore=ignore)
    except KeyError as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    except NoRulesToRun as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    if options.format == "json":
        print(render_json(report))
    elif options.format == "sarif":
        print(render_sarif(report))
    else:
        print(render_text(report))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
