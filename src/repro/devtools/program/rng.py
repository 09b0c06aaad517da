"""Rule P2: interprocedural RNG provenance.

The per-file rule R1 catches a literal ``default_rng()`` with no
arguments, but the dangerous leaks are the ones R1 cannot see from one
file:

- a helper ``def make_rng(seed=None): return default_rng(seed)`` called
  without a seed — every call site looks innocent, yet
  ``default_rng(None)`` is entropy-seeded;
- the same omission laundered through several layers of calls;
- a dataclass field ``rng: Generator = field(default_factory=
  default_rng)`` — a bare function *reference*, no call for R1 to flag,
  constructing an entropy-seeded generator at every instantiation.

This pass tracks ``numpy.random.Generator`` construction sites through
the approximate call graph: each function gets a summary (does it
unconditionally construct an unseeded generator? does it *forward* a
seed parameter into a construction?), summaries propagate caller-ward to
a fixpoint, and any unseeded construction path whose entry sits in a
reproducibility-critical layer (``sim``/``cloudsim``, plus ``service``
— the live defense promises seed-for-seed reproducible shuffle
sequences even though wall-clock time drives its scheduling) is
reported with the call chain that reaches the construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .callgraph import CallGraph, FunctionInfo, get_call_graph, short_name
from .context import ProgramContext

__all__ = ["analyze_rng", "RngFinding"]

#: layers whose stochastic paths must stay bit-for-bit reproducible.
#: ``service`` is stochastic-deterministic: its *timing* is wall-clock
#: but its *decisions* (shuffle permutations, client jitter) must come
#: from seeded generators.  ``trust`` joins for the same reason: its
#: per-client heal-jitter draws derive from the configured seed.
_REPORT_LAYERS = frozenset({"sim", "cloudsim", "service", "trust"})
_NUMPY_HEADS = frozenset({"np", "numpy"})


@dataclass(frozen=True)
class RngFinding:
    """One unseeded-construction path."""

    path: Path
    line: int
    col: int
    message: str


@dataclass
class _Summary:
    """Per-function RNG behaviour."""

    #: (line, col, chain) of unconditional unseeded constructions that
    #: execute whenever the function runs.
    unconditional: list[tuple[int, int, str]] = field(default_factory=list)
    #: param name -> chain: passing None (or omitting, when the default
    #: is None) for this param yields an unseeded construction.
    forwards: dict[str, str] = field(default_factory=dict)


def _is_default_rng(
    node: ast.AST, rng_aliases: frozenset[str]
) -> bool:
    """Is this expression a reference to ``numpy.random.default_rng``?"""
    if isinstance(node, ast.Name):
        return node.id in rng_aliases
    if isinstance(node, ast.Attribute) and node.attr == "default_rng":
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in _NUMPY_HEADS
        ):
            return True
    return False


def analyze_rng(
    program: ProgramContext, graph: CallGraph | None = None
) -> list[RngFinding]:
    """Run the provenance analysis; see the module docstring."""
    graph = graph if graph is not None else get_call_graph(program)
    # local names bound to ``default_rng`` by a from-import
    aliases_by_module = {
        module: frozenset(
            local
            for local, binding in imports.items()
            if binding == ("numpy.random", "default_rng")
        )
        for module, imports in graph.imports.items()
    }

    # Pass 1 — direct summaries from each function body.
    summaries: dict[str, _Summary] = {}
    for qualname, fn in graph.functions.items():
        summaries[qualname] = _direct_summary(
            fn, aliases_by_module.get(fn.module, frozenset())
        )

    # Pass 2 — propagate through call sites to a fixpoint.  A call that
    # reaches an unseeded construction makes the *caller* summary grow,
    # so reprocess callers until nothing changes.
    changed = True
    guard = 0
    while changed and guard <= len(graph.functions) + 1:
        changed = False
        guard += 1
        for qualname, fn in graph.functions.items():
            summary = summaries[qualname]
            for site in graph.calls_in(qualname):
                for target in site.targets:
                    callee_fn = graph.function(target)
                    callee = summaries.get(target)
                    if callee is None or callee_fn is None:
                        continue
                    if callee.unconditional:
                        chain = callee.unconditional[0][2]
                        if _add_unconditional(
                            summary,
                            site.node_line,
                            site.node_col,
                            f"{short_name(target)} -> {chain}",
                        ):
                            changed = True
                    for param, chain in callee.forwards.items():
                        outcome = _argument_for(
                            callee_fn, site.call, param
                        )
                        if outcome == "unseeded":
                            if _add_unconditional(
                                summary,
                                site.node_line,
                                site.node_col,
                                f"{short_name(target)}({param}=None) -> "
                                f"{chain}",
                            ):
                                changed = True
                        elif isinstance(outcome, str) and outcome.startswith(
                            "forward:"
                        ):
                            own_param = outcome.split(":", 1)[1]
                            new_chain = (
                                f"{short_name(target)}({param}=...) -> {chain}"
                            )
                            if own_param not in summary.forwards:
                                summary.forwards[own_param] = new_chain
                                changed = True

    # Pass 3 — report entries in the simulator layers.
    findings: list[RngFinding] = []
    for qualname, fn in sorted(graph.functions.items()):
        info = program.modules.get(fn.module)
        if (
            info is None
            or info.layer not in _REPORT_LAYERS
            or info.ctx.is_test_file
        ):
            continue
        for line, col, chain in summaries[qualname].unconditional:
            if chain == "default_rng()":
                continue  # the literal no-arg call is R1's report
            findings.append(
                RngFinding(
                    path=info.ctx.path,
                    line=line,
                    col=col,
                    message=(
                        "unseeded numpy Generator reachable from "
                        f"`{short_name(qualname)}` (path: {chain}); thread a "
                        "seed or spawn from the session generator"
                    ),
                )
            )
    findings.extend(_field_factory_findings(program, aliases_by_module))
    return sorted(
        findings, key=lambda f: (str(f.path), f.line, f.col, f.message)
    )


def _direct_summary(
    fn: FunctionInfo, rng_aliases: frozenset[str]
) -> _Summary:
    summary = _Summary()
    params = set(fn.positional_params()) | {
        a.arg for a in fn.node.args.kwonlyargs
    }
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Call):
            continue
        if not _is_default_rng(node.func, rng_aliases):
            continue
        seed = _first_argument(node)
        if seed is _OMITTED:
            # Literal `default_rng()` — R1's territory; P2 still needs
            # the summary so *callers* of this function get flagged.
            summary.unconditional.append(
                (node.lineno, node.col_offset, "default_rng()")
            )
        elif isinstance(seed, ast.Constant) and seed.value is None:
            summary.unconditional.append(
                (node.lineno, node.col_offset, "default_rng(None)")
            )
        elif isinstance(seed, ast.Name) and seed.id in params:
            summary.forwards.setdefault(
                seed.id, f"default_rng({seed.id})"
            )
        # anything else (int literal, SeedSequence, attribute, spawn
        # child) counts as explicit provenance.
    return summary


class _Omitted:
    pass


_OMITTED = _Omitted()


def _first_argument(call: ast.Call) -> ast.AST | _Omitted:
    if call.args:
        first = call.args[0]
        return _OMITTED if isinstance(first, ast.Starred) else first
    for kw in call.keywords:
        if kw.arg == "seed":
            return kw.value
    return _OMITTED


def _argument_for(
    callee: FunctionInfo, call: ast.Call, param: str
) -> str | None:
    """How does ``call`` bind ``param`` of ``callee``?

    Returns ``"unseeded"`` when the binding is None (explicitly, or by
    omission with a None default), ``"forward:<name>"`` when the caller
    passes one of *its own* bare names (possibly its own parameter), and
    ``None`` when the binding carries explicit provenance.
    """
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        kw.arg is None for kw in call.keywords
    ):
        return None  # *args/**kwargs: give up, assume provenance
    value: ast.AST | None = None
    positional = callee.positional_params()
    if param in positional:
        index = positional.index(param)
        if index < len(call.args):
            value = call.args[index]
    if value is None:
        for kw in call.keywords:
            if kw.arg == param:
                value = kw.value
                break
    if value is None:
        default = callee.param_default(param)
        if default is False or default is None:
            return None  # no such param / required param: out of scope
        if isinstance(default, ast.Constant) and default.value is None:
            return "unseeded"
        return None
    if isinstance(value, ast.Constant) and value.value is None:
        return "unseeded"
    if isinstance(value, ast.Name):
        return f"forward:{value.id}"
    return None


def _add_unconditional(
    summary: _Summary, line: int, col: int, chain: str
) -> bool:
    entry = (line, col, chain)
    for existing in summary.unconditional:
        if existing[0] == line and existing[1] == col:
            return False  # one report per site; keep the first chain
    summary.unconditional.append(entry)
    return True


def _field_factory_findings(
    program: ProgramContext,
    aliases_by_module: dict[str, frozenset[str]],
) -> Iterator[RngFinding]:
    """Bare ``default_rng`` references as dataclass default factories."""
    for info in program.project_modules():
        if info.ctx.is_test_file or info.layer == "experiments":
            continue
        aliases = aliases_by_module.get(info.name, frozenset())
        for node in ast.walk(info.ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "default_factory":
                    continue
                if isinstance(kw.value, ast.Call):
                    continue  # a call is R1's problem, not a reference
                if _is_default_rng(kw.value, aliases):
                    yield RngFinding(
                        path=info.ctx.path,
                        line=kw.value.lineno,
                        col=kw.value.col_offset,
                        message=(
                            "default_factory=default_rng constructs an "
                            "entropy-seeded Generator at every "
                            "instantiation; default to None and seed "
                            "explicitly in __post_init__"
                        ),
                    )


@project_rule(
    "P2",
    "rng-provenance",
    "Every numpy Generator in sim/cloudsim must descend from an "
    "explicitly seeded construction (paper Figures 3-12 are Monte-Carlo "
    "estimates); a seed parameter that defaults to None and is omitted "
    "somewhere up the call chain silently reintroduces entropy seeding "
    "that per-file linting cannot see.",
)
def check_rng_provenance(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    for finding in analyze_rng(program):
        yield finding.path, finding.line, finding.col, finding.message
