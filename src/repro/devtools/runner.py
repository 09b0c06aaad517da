"""One lint run: the input decides which rules apply.

When the given paths name a package (a directory with an
``__init__.py``, or a directory holding exactly one), the run indexes
that tree once into a
:class:`~repro.devtools.program.context.ProgramContext`.  The file
rules then walk the :class:`FileContext` each module was parsed into,
and the whole-program rules run over the same index.  Loose files with
no package get the file rules only.  Either way every file is parsed
once, and suppression comments are honoured at each violation's site.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from .context import FileContext, iter_python_files
from .registry import Rule, resolve_rules
from .violations import Violation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .program.context import ProgramContext

#: sibling directories scanned as *evidence of use* by the project
#: rules (P5); they are never linted themselves.
_CONSUMER_DIR_NAMES = ("tests", "examples", "benchmarks")
#: the rules that read those consumer modules: a run without one of
#: them does not parse the consumer directories at all
_CONSUMER_RULES = frozenset({"P5"})


class NoRulesToRun(ValueError):
    """The selection leaves no rule to run on the given paths."""


@dataclass
class LintReport:
    """Outcome of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    #: the rules that ran: file rules, then project rules, by ID
    rules: tuple[Rule, ...] = ()
    #: wall-clock seconds per stage (``program_index``, ``file_rules``,
    #: ``call_graph``, ``pass_<ID>``)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def lint_file(ctx: FileContext, rules: Sequence[Rule]) -> list[Violation]:
    """Run the file ``rules`` over one parsed file, honouring
    suppression comments."""
    found: list[Violation] = []
    for rule_obj in rules:
        for line, col, message in rule_obj.check(ctx):
            if ctx.suppressions.is_suppressed(rule_obj.rule_id, line):
                continue
            found.append(
                Violation.at(rule_obj.rule_id, ctx.path, line, col, message)
            )
    return found


def _parse_violation(
    path: Path, exc: SyntaxError | UnicodeDecodeError
) -> Violation:
    """The synthetic ``PARSE`` violation of a file that does not parse:
    the linter must keep working mid-refactor, when some files are
    transiently broken."""
    line = getattr(exc, "lineno", 1) or 1
    return Violation.at("PARSE", path, line, 0, f"could not parse: {exc}")


def find_package_root(paths: Sequence[Path]) -> Path | None:
    """The package directory the whole-program rules should index.

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


def lint(
    paths: Iterable[Path | str],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintReport:
    """Lint every Python file under ``paths`` with the active rules.

    Raises ``KeyError`` for an unknown rule ID and :class:`NoRulesToRun`
    when no rule is left to run, so a run that checks nothing never
    reports clean.
    """
    from .program.context import ProgramContext

    path_list = [Path(p) for p in paths]
    rules = resolve_rules(select=select, ignore=ignore)
    package_root = find_package_root(path_list)
    if package_root is None:
        rules = tuple(r for r in rules if r.scope == "file")
    if not rules:
        raise NoRulesToRun(
            "no rule left to run: the selection is empty, or names only "
            "project rules and no package directory was given"
        )
    program: ProgramContext | None = None
    report = LintReport(rules=rules)
    if package_root is not None and any(
        r.scope == "project" for r in rules
    ):
        started = time.perf_counter()
        program = ProgramContext.build(
            package_root,
            consumer_roots=(
                default_consumer_roots(package_root)
                if any(r.rule_id in _CONSUMER_RULES for r in rules)
                else ()
            ),
        )
        report.timings["program_index"] = time.perf_counter() - started

    file_rules = [r for r in rules if r.scope == "file"]
    started = time.perf_counter()
    for path in iter_python_files(path_list):
        report.files_checked += 1
        try:
            ctx = _file_context(path, program)
        except (SyntaxError, UnicodeDecodeError) as exc:
            report.violations.append(_parse_violation(path, exc))
            continue
        report.violations.extend(lint_file(ctx, file_rules))
    report.timings["file_rules"] = time.perf_counter() - started

    if program is not None:
        _run_project_rules(
            program, [r for r in rules if r.scope == "project"], report
        )
    report.violations.sort()
    return report


def _file_context(
    path: Path, program: "ProgramContext | None"
) -> FileContext:
    """The parsed file: the program index's copy when it holds one (or
    its recorded parse failure, re-raised), else a fresh parse."""
    if program is not None:
        info = program.module_at(path)
        if info is not None:
            return info.ctx
        failure = program.parse_failures.get(path.resolve())
        if failure is not None:
            raise failure
    return FileContext.from_path(path)


def _run_project_rules(
    program: "ProgramContext", rules: Sequence[Rule], report: LintReport
) -> None:
    from .program.callgraph import get_call_graph

    # Pre-warm the shared call graph so each pass's timing measures the
    # pass itself, not the build.
    started = time.perf_counter()
    get_call_graph(program)
    report.timings["call_graph"] = time.perf_counter() - started

    for rule_obj in rules:
        started = time.perf_counter()
        for v_path, line, col, message in rule_obj.check(program):
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
