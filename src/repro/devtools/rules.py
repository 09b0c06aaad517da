"""The built-in reprolint file rules (R1, R3).

Each rule enforces an invariant the paper's math or the project's
reproducibility contract depends on; the rationale strings below (and
``docs/static-analysis.md``) tie each one back to the relevant paper
section.  Rules are pure AST walks over the shared
:class:`~repro.devtools.context.FileContext` — no imports of the code
under analysis, so linting can never execute library side effects.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .context import FileContext, dotted_parts
from .registry import rule

Hits = Iterator[tuple[int, int, str]]

#: numpy.random attributes that are part of the seeded-Generator API and
#: therefore fine to reference; everything else on ``np.random`` is the
#: legacy global-state interface.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

_NUMPY_ALIASES = frozenset({"np", "numpy"})

#: math-module functions whose result is float-typed — used by R3 to
#: recognise float expressions without whole-program type inference.
_MATH_FLOAT_FUNCS = frozenset(
    {
        "exp",
        "expm1",
        "exp2",
        "log",
        "log1p",
        "log2",
        "log10",
        "sqrt",
        "pow",
        "lgamma",
        "gamma",
        "erf",
        "erfc",
        "fabs",
        "fsum",
        "hypot",
        "fmod",
        "copysign",
        "ldexp",
        "nextafter",
    }
)

_FLOAT_CONSTANT_ATTRS = frozenset({"inf", "nan", "e", "pi", "tau", "euler_gamma"})


@rule(
    "R1",
    "no-unseeded-rng",
    "Unseeded or global RNG state silently breaks the bit-for-bit "
    "reproducibility of Figures 3-12; every stochastic path must thread "
    "an explicitly seeded numpy.random.Generator.",
)
def check_no_unseeded_rng(ctx: FileContext) -> Hits:
    if ctx.is_test_file:
        # Test fixtures may build ad-hoc generators (conftest seeds them
        # anyway); the rule polices library code.
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield (
                        node.lineno,
                        node.col_offset,
                        "stdlib `random` has hidden global state; use a "
                        "seeded numpy.random.Generator instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield (
                    node.lineno,
                    node.col_offset,
                    "import from stdlib `random`; use a seeded "
                    "numpy.random.Generator instead",
                )
            elif node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _NP_RANDOM_ALLOWED:
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"`numpy.random.{alias.name}` is the legacy "
                            "global-state API; use a seeded Generator",
                        )
        elif isinstance(node, ast.Call):
            parts = dotted_parts(node.func)
            if parts is None:
                continue
            if (
                len(parts) == 3
                and parts[0] in _NUMPY_ALIASES
                and parts[1] == "random"
            ):
                attr = parts[2]
                if attr == "seed":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "np.random.seed() mutates hidden global state; "
                        "pass a seeded Generator instead",
                    )
                elif attr not in _NP_RANDOM_ALLOWED:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"legacy global sampler np.random.{attr}(); draw "
                        "from a seeded Generator instead",
                    )
            if parts[-1] == "default_rng" and not node.args and not node.keywords:
                yield (
                    node.lineno,
                    node.col_offset,
                    "default_rng() without a seed is entropy-seeded and "
                    "unreproducible; pass an int seed, SeedSequence, or "
                    "parent Generator",
                )


@rule(
    "R3",
    "no-float-equality",
    "Probabilities come out of exp/lgamma pipelines where == comparison "
    "is numerically meaningless; the only sound exact comparisons are "
    "the 0.0/1.0 sentinels produced by exp(-inf) and the m == 0 branch, "
    "and those must be marked `# exact-sentinel: <why>`.",
)
def check_no_float_equality(ctx: FileContext) -> Hits:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            floaty = next(
                (x for x in (left, right) if _is_float_expr(x)), None
            )
            if floaty is None:
                continue
            if _is_sentinel_literal(floaty) and ctx.suppressions.has_sentinel(
                floaty.lineno
            ):
                continue
            wording = (
                "float equality against sentinel "
                f"{ast.unparse(floaty)} needs an `# exact-sentinel: "
                "<why>` marker"
                if _is_sentinel_literal(floaty)
                else "==/!= on a float-typed expression; use math.isclose,"
                " an epsilon, or math.isinf/isnan"
            )
            yield floaty.lineno, floaty.col_offset, wording


def _is_float_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_float_expr(node.operand)
    if isinstance(node, ast.Call):
        parts = dotted_parts(node.func) or []
        return parts == ["float"] or (
            len(parts) == 2
            and parts[0] == "math"
            and parts[1] in _MATH_FLOAT_FUNCS
        )
    if isinstance(node, ast.Attribute):
        parts = dotted_parts(node) or []
        return (
            len(parts) == 2
            and parts[0] in (_NUMPY_ALIASES | {"math"})
            and parts[1] in _FLOAT_CONSTANT_ATTRS
        )
    return False


def _is_sentinel_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value in (0.0, 1.0)
    )
