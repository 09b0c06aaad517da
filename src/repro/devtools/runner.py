"""File discovery and rule execution for reprolint.

Two execution scopes share one report shape:

- **file scope** — every rule runs independently over each parsed file
  (:func:`lint_paths` with ``project=False``);
- **project scope** — the tree is additionally indexed into one
  :class:`~repro.devtools.program.context.ProgramContext` and the
  P-series whole-program rules run over it, with per-file suppression
  comments honoured at the violation's location.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .context import FileContext
from .registry import ProjectRule, Rule, resolve_rule_sets, resolve_rules
from .violations import Violation

#: directory names never worth linting
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "build", "dist"}
)

#: sibling directories scanned as *evidence of use* in project scope
#: (rule P5); they are never linted themselves.
_CONSUMER_DIR_NAMES = ("tests", "examples", "benchmarks")

#: passes sharing the numeric dataflow index (see program/numflow.py)
_NUMERIC_RULE_IDS = frozenset({"P11", "P12", "P13", "P14"})


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    rules: tuple[Rule, ...] = ()
    project_rules: tuple[ProjectRule, ...] = ()
    #: wall-clock seconds per stage (``file_rules``, ``program_index``,
    #: ``numeric_index``, ``pass_<ID>``) — populated in project scope
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files to lint, sorted."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(
                part in _SKIP_DIRS or part.endswith(".egg-info")
                for part in candidate.parts
            ):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_file(path: Path, rules: Sequence[Rule]) -> list[Violation]:
    """Run ``rules`` over one file, honouring suppression comments.

    A file that fails to parse yields a single synthetic ``PARSE``
    violation instead of crashing the whole run: the linter must keep
    working mid-refactor, when some files are transiently broken.
    """
    try:
        ctx = FileContext.from_path(path)
    except (SyntaxError, UnicodeDecodeError) as exc:
        line = getattr(exc, "lineno", 1) or 1
        return [
            Violation.at("PARSE", path, line, 0, f"could not parse: {exc}")
        ]
    found: list[Violation] = []
    for rule_obj in rules:
        for line, col, message in rule_obj.run(ctx):
            if ctx.suppressions.is_suppressed(rule_obj.rule_id, line):
                continue
            found.append(
                Violation.at(rule_obj.rule_id, path, line, col, message)
            )
    return found


def _resolve_only(
    only_files: Iterable[Path | str] | None,
) -> set[Path] | None:
    if only_files is None:
        return None
    return {Path(p).resolve() for p in only_files}


def lint_paths(
    paths: Iterable[Path | str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    only_files: Iterable[Path | str] | None = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with the active rule set.

    ``only_files`` restricts the run to the named files (the
    ``--changed`` incremental mode); files under ``paths`` but outside
    the set are neither parsed nor counted.
    """
    rules = resolve_rules(select=select, ignore=ignore)
    report = LintReport(rules=rules)
    wanted = _resolve_only(only_files)
    for path in iter_python_files(Path(p) for p in paths):
        if wanted is not None and path.resolve() not in wanted:
            continue
        report.files_checked += 1
        report.violations.extend(lint_file(path, rules))
    report.violations.sort()
    return report


# ----------------------------------------------------------------------
# project scope
# ----------------------------------------------------------------------
def find_package_root(paths: Sequence[Path]) -> Path | None:
    """The package directory the project analysis should index.

    The first given directory that is itself a package (contains an
    ``__init__.py``) wins; a directory *containing* exactly one package
    (the ``src/repro`` layout given ``src``) is also accepted.
    """
    for path in paths:
        if not path.is_dir():
            continue
        if (path / "__init__.py").exists():
            return path
        packages = sorted(
            child
            for child in path.iterdir()
            if child.is_dir() and (child / "__init__.py").exists()
        )
        if len(packages) == 1:
            return packages[0]
    return None


def default_consumer_roots(package_root: Path) -> tuple[Path, ...]:
    """tests/examples/benchmarks directories near the package root."""
    anchors = [package_root.parent, package_root.parent.parent]
    roots: list[Path] = []
    for anchor in anchors:
        for name in _CONSUMER_DIR_NAMES:
            candidate = anchor / name
            if candidate.is_dir() and candidate not in roots:
                roots.append(candidate)
    return tuple(roots)


def lint_project(
    paths: Iterable[Path | str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    only_files: Iterable[Path | str] | None = None,
) -> LintReport:
    """File rules plus the P-series whole-program rules over one tree.

    With ``only_files`` (the ``--changed`` incremental mode) the file
    rules run over just those files and project-rule violations outside
    them are dropped, but the *index* still covers the whole tree —
    whole-program facts (layering, call graphs, numeric domains) are
    only correct when built from everything.
    """
    from .program.context import ProgramContext

    path_list = [Path(p) for p in paths]
    file_rules, project_rules = resolve_rule_sets(
        select=select, ignore=ignore
    )
    report = LintReport(rules=file_rules, project_rules=project_rules)
    wanted = _resolve_only(only_files)
    started = time.perf_counter()
    for path in iter_python_files(path_list):
        if wanted is not None and path.resolve() not in wanted:
            continue
        report.files_checked += 1
        report.violations.extend(lint_file(path, file_rules))
    report.timings["file_rules"] = time.perf_counter() - started

    package_root = find_package_root(path_list)
    if package_root is None:
        report.violations.append(
            Violation.at(
                "PROJECT",
                path_list[0] if path_list else Path("."),
                1,
                0,
                "project scope needs a package directory (one containing "
                "__init__.py); none found in the given paths",
            )
        )
        report.violations.sort()
        return report

    started = time.perf_counter()
    program = ProgramContext.build(
        package_root,
        consumer_roots=default_consumer_roots(package_root),
    )
    report.timings["program_index"] = time.perf_counter() - started

    if any(r.rule_id in _NUMERIC_RULE_IDS for r in project_rules):
        # Pre-warm the shared numeric dataflow index so each numeric
        # pass's timing measures the pass itself, not the build.
        from .program.numflow import get_numeric_index

        started = time.perf_counter()
        get_numeric_index(program)
        report.timings["numeric_index"] = time.perf_counter() - started

    for rule_obj in project_rules:
        started = time.perf_counter()
        for v_path, line, col, message in rule_obj.run(program):
            if wanted is not None and Path(v_path).resolve() not in wanted:
                continue
            info = program.module_at(Path(v_path))
            if info is not None and info.ctx.suppressions.is_suppressed(
                rule_obj.rule_id, line
            ):
                continue
            report.violations.append(
                Violation.at(rule_obj.rule_id, v_path, line, col, message)
            )
        report.timings[f"pass_{rule_obj.rule_id}"] = (
            time.perf_counter() - started
        )

    report.violations.sort()
    return report
