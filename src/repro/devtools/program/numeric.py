"""Rule P13: numeric-stability anti-patterns.

The estimator/planner core computes every probability in log-space and
exponentiates last (:mod:`repro.core.combinatorics`).  This pass flags
the expression shapes that have a strictly more stable form:
``log(1-x)`` -> ``log1p``, ``log(sum(exp))`` -> ``logsumexp``, raw
lgamma differences outside the combinatorics module, and unguarded
division by a possibly-zero count.  Escape hatch:
``# reprolint: disable=P13`` with a reviewer-worthy reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .callgraph import FunctionInfo, call_name, get_call_graph, short_name
from .context import ProgramContext

__all__ = []

#: modules exempt from the lgamma-difference check: the one place the
#: raw ``lgamma`` algebra is supposed to live (and be tested).
_LGAMMA_HOME_MARKER = "combinatorics"

_EXP_NAMES = frozenset({"exp", "expm1"})
_LGAMMA_NAMES = frozenset({"lgamma", "gammaln"})
_SUM_NAMES = frozenset({"sum"})

#: receivers under which ``log`` is the natural logarithm (a
#: ``logger.log`` call is not).
_NUMERIC_RECEIVERS = frozenset({"math", "np", "numpy"})


def _receiver_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return None


def _is_trusted_log(node: ast.AST) -> bool:
    """A ``log(...)`` call, bare or under a math/numpy receiver."""
    return (
        isinstance(node, ast.Call)
        and call_name(node) == "log"
        and (
            isinstance(node.func, ast.Name)
            or _receiver_name(node.func) in _NUMERIC_RECEIVERS
        )
    )


def _is_exp_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) in _EXP_NAMES


def _is_lgamma_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) in _LGAMMA_NAMES


def _is_sum_call(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and call_name(node) in _SUM_NAMES


def _sum_operand(call: ast.Call) -> ast.AST | None:
    """What a ``sum(x)`` / ``np.sum(x)`` / ``x.sum()`` call aggregates."""
    if call.args:
        return call.args[0]
    if isinstance(call.func, ast.Attribute):
        return call.func.value
    return None


# ----------------------------------------------------------------------
# P13 — numeric-stability anti-patterns
# ----------------------------------------------------------------------
@project_rule(
    "P13",
    "numeric-stability",
    "Expression shapes with a strictly more stable equivalent: "
    "log(1 - x) cancels near x=0 (use log1p(-x), or log1mexp for "
    "x=exp(t)); log(sum(exp(...))) overflows where logsumexp does "
    "not; a difference of near-equal lgamma terms cancels "
    "catastrophically outside the tested combinatorics helpers; and "
    "dividing by an unguarded len()/.size count raises (or NaNs) on "
    "empty input.",
)
def check_numeric_stability(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    graph = get_call_graph(program)
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        info = program.modules.get(fn.module)
        if info is None or info.ctx.is_test_file:
            continue
        lgamma_exempt = _LGAMMA_HOME_MARKER in fn.module
        guards: list[str] | None = None
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                hit = _stability_call_hit(node, fn)
                if hit is not None:
                    yield (info.ctx.path, node.lineno, node.col_offset, hit)
            elif isinstance(node, ast.BinOp):
                if (
                    not lgamma_exempt
                    and isinstance(node.op, ast.Sub)
                    and _is_lgamma_call(node.left)
                    and _is_lgamma_call(node.right)
                ):
                    yield (
                        info.ctx.path,
                        node.lineno,
                        node.col_offset,
                        "difference of lgamma terms in "
                        f"`{short_name(fn.qualname)}` — near-equal "
                        "arguments cancel catastrophically; use "
                        "repro.core.combinatorics.log_binomial (the "
                        "tested home of the lgamma algebra)",
                    )
                elif isinstance(node.op, ast.Div):
                    operand = _count_denominator(node.right)
                    if operand is None:
                        continue
                    if guards is None:
                        guards = _guard_texts(fn.node)
                    if any(operand in guard for guard in guards):
                        continue
                    yield (
                        info.ctx.path,
                        node.lineno,
                        node.col_offset,
                        f"division by `{ast.unparse(node.right)}` with "
                        "no emptiness guard in "
                        f"`{short_name(fn.qualname)}` — a zero count "
                        "raises ZeroDivisionError (or yields NaN "
                        "under numpy); guard the empty case first",
                    )


def _stability_call_hit(node: ast.Call, fn: FunctionInfo) -> str | None:
    name = call_name(node)
    if _is_trusted_log(node) and len(node.args) == 1:
        arg = node.args[0]
        if (
            isinstance(arg, ast.BinOp)
            and isinstance(arg.op, ast.Sub)
            and isinstance(arg.left, ast.Constant)
            and arg.left.value in (1, 1.0)
        ):
            if any(_is_exp_call(sub) for sub in ast.walk(arg.right)):
                return (
                    f"log(1 - exp(...)) in `{short_name(fn.qualname)}` — "
                    "cancels for exp(...) near 1 and near 0; use "
                    "repro.core.combinatorics.log1mexp"
                )
            return (
                f"log(1 - x) in `{short_name(fn.qualname)}` cancels for "
                "small x — use log1p(-x)"
            )
        if _is_sum_call(arg):
            operand = _sum_operand(arg)
            if operand is not None and any(
                _is_exp_call(sub) for sub in ast.walk(operand)
            ):
                return (
                    f"log(sum(exp(...))) in `{short_name(fn.qualname)}` "
                    "overflows for large logs — use "
                    "repro.core.combinatorics.logsumexp"
                )
    elif name == "log1p" and len(node.args) == 1:
        arg = node.args[0]
        if (
            isinstance(arg, ast.UnaryOp)
            and isinstance(arg.op, ast.USub)
            and _is_exp_call(arg.operand)
        ):
            return (
                f"log1p(-exp(x)) in `{short_name(fn.qualname)}` loses "
                "precision for x near 0 — use "
                "repro.core.combinatorics.log1mexp(x)"
            )
    return None


def _count_denominator(node: ast.AST) -> str | None:
    """The guarded-entity text when ``node`` is a count denominator."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
    ):
        return ast.unparse(node.args[0])
    if isinstance(node, ast.Attribute) and node.attr == "size":
        return ast.unparse(node.value)
    return None


def _guard_texts(fn_node: ast.AST) -> list[str]:
    """Unparsed test expressions that may guard a division."""
    texts: list[str] = []
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.If, ast.While, ast.Assert, ast.IfExp)):
            texts.append(ast.unparse(node.test))
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                texts.extend(ast.unparse(cond) for cond in comp.ifs)
    return texts
