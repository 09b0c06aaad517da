"""Rule P14: vectorization readiness of the numeric core.

Plan + estimate for ``N = 10^6`` clients in sub-second time requires
the accumulation loops in the estimator/planner core (the Algorithm 1
DP in ``dp.py``, the (max,+) convolution in ``dp_fast.py``, the
occupancy/Poisson-binomial sweeps in ``estimator.py``) to be numpy
array ops.  This pass reports every scalar for-loop in ``core/`` that
accumulates into a float/probability array, with its enclosing
function, iteration expression (the loop-trip-count provenance), and
nest depth.  ``core/`` holds none, so a finding is a new scalar hot
loop.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .callgraph import short_name
from .context import ProgramContext
from .numflow import Domain, get_numeric_index

__all__ = []

#: the layer whose loops feed the ROADMAP vectorization item.
_CORE_LAYERS = frozenset({"core"})

def _stored_array_names(loop: ast.For) -> Iterator[str]:
    """Names of arrays written element-wise inside ``loop``'s body."""
    for node in ast.walk(loop):
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                yield target.value.id


def _qualifies(loop: ast.For, domain_of) -> bool:
    """A scalar accumulation loop: element-wise stores into an array
    whose inferred element domain is float."""
    return any(
        domain_of(ast.Name(id=name, ctx=ast.Load())) is Domain.FLOAT
        for name in _stored_array_names(loop)
    )


def _nest_depth(loop: ast.For) -> int:
    """1 + the deepest chain of nested for-loops inside ``loop``."""
    return 1 + _subtree_depth(loop)


def _subtree_depth(node: ast.AST) -> int:
    best = 0
    for child in ast.iter_child_nodes(node):
        depth = _subtree_depth(child)
        if isinstance(child, ast.For):
            depth += 1
        best = max(best, depth)
    return best


@project_rule(
    "P14",
    "vectorization-readiness",
    "Scalar Python accumulation loops over per-client/per-replica "
    "probability arrays cap the numeric core at thousands of clients; "
    "the ROADMAP scale item needs numpy array ops for N in the "
    "millions.  core/ holds none: vectorize a flagged loop rather "
    "than excusing it.",
)
def check_vectorization_readiness(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    index = get_numeric_index(program)
    for qualname in sorted(index.graph.functions):
        fn = index.graph.functions[qualname]
        info = program.modules.get(fn.module)
        if (
            info is None
            or info.layer not in _CORE_LAYERS
            or info.ctx.is_test_file
        ):
            continue
        evaluator = index.evaluator(fn)
        loops = [
            node for node in ast.walk(fn.node) if isinstance(node, ast.For)
        ]
        qualifying = [
            loop for loop in loops if _qualifies(loop, evaluator.domain_of)
        ]
        covered: set[int] = set()
        for loop in qualifying:
            for sub in ast.walk(loop):
                if isinstance(sub, ast.For) and sub is not loop:
                    covered.add(id(sub))
        for loop in qualifying:
            if id(loop) in covered:
                continue
            yield (
                info.ctx.path,
                loop.lineno,
                loop.col_offset,
                "scalar accumulation loop over a float/probability "
                f"array in `{short_name(fn.qualname)}` (for-loop over "
                f"`{ast.unparse(loop.iter)}`, nest depth "
                f"{_nest_depth(loop)}) — vectorize with numpy array "
                "ops per the ROADMAP estimator/planner scale item",
            )
