"""Rule P3: determinism dataflow across the simulator.

Shuffle outcomes (paper Eq. 1 / Algorithm 1) are reproducible only if
DES event order never depends on hash order.  ``set`` iteration order
varies with ``PYTHONHASHSEED``; ``dict`` views are insertion-ordered,
which is deterministic per run but *history*-coupled — two refactors
that build the same mapping in different orders produce different event
interleavings and different RNG consumption.  The pass therefore builds
the program call graph, marks every function from which a DES
``schedule()``/``schedule_at()`` call or heap push is reachable
("event-affecting"), and flags iteration over sets and unsorted dict
views inside event-affecting functions (or functions event-affecting
code calls) in the simulator layers.  Iterations whose loop body draws
from an RNG are flagged regardless, since draw order is part of the
reproducibility contract.  The ``service`` layer is out of scope: its
event order follows real sockets and the wall clock, and only its RNG
discipline is checked, by P2.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .asyncflow import (
    annotation_container,
    container_attr_kinds,
    value_container,
)
from .callgraph import CallGraph, get_call_graph, short_name
from .context import ProgramContext

__all__ = ["event_affecting_functions"]

#: layers the determinism pass governs.
_SIM_LAYERS = frozenset({"sim", "cloudsim"})

#: attribute names that put a callback on the DES event queue or a heap.
_SCHEDULING_ATTRS = frozenset(
    {"schedule", "schedule_at", "heappush", "heapify", "heappushpop"}
)
_SCHEDULING_NAMES = frozenset({"heappush", "heapify", "heappushpop"})

#: Generator draw methods: consuming randomness inside an unordered
#: loop makes the stream depend on iteration order.
_RNG_DRAWS = frozenset(
    {
        "shuffle",
        "permutation",
        "choice",
        "integers",
        "random",
        "uniform",
        "normal",
        "exponential",
        "poisson",
        "binomial",
        "geometric",
        "standard_normal",
    }
)

_DICT_VIEWS = frozenset({"keys", "values", "items"})
#: wrappers that preserve the order of what they wrap — look through.
_ORDER_PRESERVING = frozenset(
    {"list", "tuple", "enumerate", "reversed", "iter"}
)


def event_affecting_functions(graph: CallGraph) -> set[str]:
    """Functions from which an event-queue mutation is reachable."""
    seeds: set[str] = set()
    for qualname, fn in graph.functions.items():
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and _is_scheduling_call(node):
                seeds.add(qualname)
                break
    return graph.transitive_callers(seeds)


def _is_scheduling_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in _SCHEDULING_ATTRS
    if isinstance(func, ast.Name):
        return func.id in _SCHEDULING_NAMES
    return False


# ----------------------------------------------------------------------
# local container kinds
# ----------------------------------------------------------------------
def _local_kinds(fn_node: ast.AST) -> dict[str, str]:
    """Local/param name -> container kind inside one function."""
    kinds: dict[str, str] = {}
    if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn_node.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            kind = annotation_container(arg.annotation)
            if kind is not None:
                kinds[arg.arg] = kind
    for node in ast.walk(fn_node):
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            kind = annotation_container(node.annotation)
            if kind is not None:
                kinds[node.target.id] = kind
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = value_container(node.value)
            if kind is not None:
                kinds[target.id] = kind
    return kinds


# ----------------------------------------------------------------------
# iterable classification
# ----------------------------------------------------------------------
def _classify_iterable(
    node: ast.AST,
    local_kinds: dict[str, str],
    attr_kinds: dict[str, str],
) -> str | None:
    """"set" / "dict-view" when iterating ``node`` is order-unstable."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "sorted":
                return None
            if func.id in ("set", "frozenset"):
                return "set"
            if func.id in _ORDER_PRESERVING and node.args:
                return _classify_iterable(
                    node.args[0], local_kinds, attr_kinds
                )
            return None
        if isinstance(func, ast.Attribute) and func.attr in _DICT_VIEWS:
            return "dict-view"
        return None
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Name):
        kind = local_kinds.get(node.id)
        return {"set": "set", "dict": "dict-view"}.get(kind or "")
    if isinstance(node, ast.Attribute):
        kind = attr_kinds.get(node.attr)
        return {"set": "set", "dict": "dict-view"}.get(kind or "")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        left = _classify_iterable(node.left, local_kinds, attr_kinds)
        right = _classify_iterable(node.right, local_kinds, attr_kinds)
        if "set" in (left, right):
            return "set"
    return None


def _iterations(
    fn_node: ast.AST,
) -> Iterator[tuple[ast.AST, ast.AST | None]]:
    """(iterable expression, loop body container) pairs in a function.

    Comprehension generators yield ``None`` for the body: their element
    expressions cannot schedule, but their *order* still matters when
    the result feeds event scheduling, which the enclosing-function
    check covers.
    """
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, node
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for generator in node.generators:
                yield generator.iter, None


def _draws_rng(body: ast.AST | None) -> bool:
    if body is None:
        return False
    for node in ast.walk(body):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _RNG_DRAWS
        ):
            return True
    return False


@project_rule(
    "P3",
    "unordered-iteration",
    "DES event order and RNG draw order are part of the reproducibility "
    "contract (PYTHONHASHSEED must not change campaign metrics); "
    "iterating a set, or an unsorted dict view, on any path that feeds "
    "schedule()/heap pushes or consumes randomness makes event order "
    "hash- or history-dependent — iterate sorted(...) instead.",
)
def check_unordered_iteration(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    graph = get_call_graph(program)
    affecting = event_affecting_functions(graph)
    called_by_affecting = {
        target
        for qualname in affecting
        for site in graph.calls_in(qualname)
        for target in site.targets
    }
    kinds_by_module: dict[str, dict[str, str]] = {}
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        info = program.modules.get(fn.module)
        if (
            info is None
            or info.layer not in _SIM_LAYERS
            or info.ctx.is_test_file
        ):
            continue
        relevant = (
            qualname in affecting or qualname in called_by_affecting
        )
        if fn.module not in kinds_by_module:
            kinds_by_module[fn.module] = container_attr_kinds(info.ctx.tree)
        attr_kinds = kinds_by_module[fn.module]
        local_kinds = _local_kinds(fn.node)
        for iterable, body in _iterations(fn.node):
            kind = _classify_iterable(iterable, local_kinds, attr_kinds)
            if kind is None:
                continue
            if not relevant and not _draws_rng(body):
                continue
            reason = (
                "event order becomes PYTHONHASHSEED-dependent"
                if kind == "set"
                else "event order becomes insertion-history-dependent"
            )
            yield (
                info.ctx.path,
                iterable.lineno,
                iterable.col_offset,
                f"iteration over a {kind} in event-affecting "
                f"`{short_name(qualname)}`: {reason}; iterate "
                "sorted(...) for a canonical order",
            )
