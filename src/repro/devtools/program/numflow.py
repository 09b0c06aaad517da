"""Numeric value-domain dataflow behind the vectorization pass (P14).

P14 asks one question of every array a ``core`` loop stores into: does
it hold floats?  The type system cannot say — a log-probability, a
probability and a replica count may all sit in one ``np.ndarray`` — so
this module infers it from *provenance*: a four-point lattice, per-
function flow-insensitive environments, and interprocedural return
summaries iterated to a fixpoint over the
:class:`~repro.devtools.program.callgraph.CallGraph`.

The lattice (:class:`Domain`):

- ``FLOAT`` — float payload: born from ``lgamma``/``log``/``exp``/
  ``logsumexp``/..., float literals, true division, ``np.clip`` and
  float array constructors (``zeros``, ``ones``, ``empty``, ...);
- ``COUNT`` — integer cardinalities (``len``, ``int``, ``np.arange``);
- ``NEUTRAL`` — ``±inf``/``nan`` sentinels, which belong to every
  domain and therefore join as the identity;
- ``UNKNOWN`` — no provenance (parameters, attributes, foreign calls).

Inference deliberately over-approximates in the direction that asks for
a justification comment rather than the direction that hides a bug,
matching the other shared indices (:mod:`asyncflow`).
"""

from __future__ import annotations

import ast
import enum
import weakref
from dataclasses import dataclass, field

from .callgraph import CallGraph, FunctionInfo, call_name, get_call_graph
from .context import ProgramContext

__all__ = [
    "Domain",
    "NumericIndex",
    "get_numeric_index",
    "is_trusted_log",
]

#: fixpoint cap for the interprocedural summary iteration.  Summaries
#: can only move up a finite lattice, so convergence is guaranteed; the
#: cap bounds pathological call cycles.
_MAX_SUMMARY_PASSES = 5

#: float-producing call names.  ``log`` is only trusted under a
#: math/numpy receiver or bare (a ``logger.log`` must not poison the
#: analysis); the rest are distinctive enough to accept from any
#: receiver.
_FLOAT_CALLS = frozenset(
    {
        "lgamma",
        "gammaln",
        "log1p",
        "log2",
        "log10",
        "logaddexp",
        "logsumexp",
        "log1mexp",
        "xlogy",
        "exp",
        "expm1",
        "zeros",
        "ones",
        "zeros_like",
        "ones_like",
        "empty",
        "empty_like",
        "full_like",
    }
)
_NUMERIC_RECEIVERS = frozenset({"math", "np", "numpy"})

#: names whose value is an integer cardinality.
_COUNT_CALLS = frozenset({"len", "int", "round", "arange", "ord", "range"})

#: calls transparent to the element domain of their first argument.
_TRANSPARENT_CALLS = frozenset(
    {"asarray", "array", "abs", "fabs", "float", "copy", "ascontiguousarray"}
)


class Domain(enum.Enum):
    """One point of the numeric value-domain lattice."""

    NEUTRAL = "neutral"
    COUNT = "count"
    FLOAT = "float"
    UNKNOWN = "unknown"


def join(a: Domain, b: Domain) -> Domain:
    """Least upper bound of two domains.

    ``NEUTRAL`` (±inf/nan sentinels) is the identity, ``UNKNOWN``
    absorbs, and a count that is sometimes a float is just a float.
    """
    if a is b:
        return a
    if a is Domain.NEUTRAL:
        return b
    if b is Domain.NEUTRAL:
        return a
    if Domain.UNKNOWN in (a, b):
        return Domain.UNKNOWN
    return Domain.FLOAT


def join_all(domains: list[Domain]) -> Domain:
    result = Domain.NEUTRAL
    for domain in domains:
        result = join(result, domain)
    return result


@dataclass
class NumericIndex:
    """Program-wide numeric dataflow facts, built once per lint run."""

    graph: CallGraph
    #: qualname -> inferred domain of the function's return value
    summaries: dict[str, Domain] = field(default_factory=dict)
    #: qualname -> (local name -> inferred domain)
    envs: dict[str, dict[str, Domain]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def env_of(self, qualname: str) -> dict[str, Domain]:
        return self.envs.get(qualname, {})

    def summary_of(self, qualname: str) -> Domain:
        return self.summaries.get(qualname, Domain.UNKNOWN)

    def evaluator(self, fn: FunctionInfo) -> "Evaluator":
        """A node-level domain evaluator bound to ``fn``'s environment."""
        return Evaluator(self, fn, self.env_of(fn.qualname))


_CACHE: "weakref.WeakKeyDictionary[ProgramContext, NumericIndex]" = (
    weakref.WeakKeyDictionary()
)


def get_numeric_index(program: ProgramContext) -> NumericIndex:
    """The (cached) numeric dataflow index for ``program``."""
    index = _CACHE.get(program)
    if index is None:
        index = _build_index(program)
        _CACHE[program] = index
    return index


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _build_index(program: ProgramContext) -> NumericIndex:
    graph = get_call_graph(program)
    index = NumericIndex(graph=graph)
    for _ in range(_MAX_SUMMARY_PASSES):
        changed = False
        for fn in graph.functions.values():
            env = _build_env(index, fn)
            index.envs[fn.qualname] = env
            summary = _return_summary(index, fn, env)
            if index.summaries.get(fn.qualname) is not summary:
                index.summaries[fn.qualname] = summary
                changed = True
        if not changed:
            break
    return index


def _build_env(index: NumericIndex, fn: FunctionInfo) -> dict[str, Domain]:
    """Flow-insensitive name -> domain map for one function body.

    Every assignment *joins* into the name's domain (no kills), and the
    statement walk runs twice so uses textually before their defining
    assignment still see it — the cheap approximation that matches the
    over-report-rather-than-miss posture of the other indices.
    """
    env: dict[str, Domain] = {}
    evaluator = Evaluator(index, fn, env)
    for _ in range(2):
        for node in _source_order_walk(fn.node):
            _absorb_statement(node, env, evaluator)
    return env


def _source_order_walk(node: ast.AST) -> "ast.AST":
    """Depth-first preorder walk — unlike ``ast.walk`` (breadth-first),
    statements are visited in source order, so a self-referential
    rebinding (``logs = np.where(mask, -np.inf, logs)``) sees the
    domain its earlier textual binding established instead of reading
    the name unbound."""
    for child in ast.iter_child_nodes(node):
        yield child
        yield from _source_order_walk(child)


def _absorb_statement(
    node: ast.AST, env: dict[str, Domain], evaluator: "Evaluator"
) -> None:
    if isinstance(node, ast.Assign):
        value = evaluator.domain_of(node.value)
        for target in node.targets:
            _bind_target(target, value, env)
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        _bind_target(node.target, evaluator.domain_of(node.value), env)
    elif isinstance(node, ast.AugAssign):
        if isinstance(node.target, ast.Name):
            current = env.get(node.target.id, Domain.NEUTRAL)
            value = _binop_domain(
                type(node.op), current, evaluator.domain_of(node.value)
            )
            env[node.target.id] = join(current, value)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        # Iterating an array/sequence yields its element domain.
        _bind_target(node.target, evaluator.domain_of(node.iter), env)
    elif isinstance(node, ast.NamedExpr) and isinstance(
        node.target, ast.Name
    ):
        env[node.target.id] = join(
            env.get(node.target.id, Domain.NEUTRAL),
            evaluator.domain_of(node.value),
        )


def _bind_target(
    target: ast.AST, value: Domain, env: dict[str, Domain]
) -> None:
    if isinstance(target, ast.Name):
        env[target.id] = join(env.get(target.id, Domain.NEUTRAL), value)
    elif isinstance(target, ast.Subscript) and isinstance(
        target.value, ast.Name
    ):
        # Storing into a slice refines the array's element domain.
        name = target.value.id
        env[name] = join(env.get(name, Domain.NEUTRAL), value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind_target(element, Domain.UNKNOWN, env)


def _return_summary(
    index: NumericIndex, fn: FunctionInfo, env: dict[str, Domain]
) -> Domain:
    evaluator = Evaluator(index, fn, env)
    returned: list[Domain] = []
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Return) and node.value is not None:
            returned.append(evaluator.domain_of(node.value))
    if not returned:
        return Domain.UNKNOWN
    return join_all(returned)


# ----------------------------------------------------------------------
# node evaluation
# ----------------------------------------------------------------------
def _binop_domain(op: type, left: Domain, right: Domain) -> Domain:
    """Result domain of ``left <op> right``."""
    if Domain.NEUTRAL in (left, right):
        return right if left is Domain.NEUTRAL else left
    if op is ast.Div:
        # True division always yields a float, whatever the operands.
        return Domain.FLOAT
    if Domain.UNKNOWN in (left, right):
        return Domain.UNKNOWN
    if op in (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.Mod):
        return join(left, right)  # a count only when both sides are
    if op in (ast.Pow, ast.MatMult):
        return Domain.FLOAT
    return Domain.UNKNOWN


def _receiver_name(func: ast.AST) -> str | None:
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return None


def is_trusted_log(node: ast.AST) -> bool:
    """A ``log(...)`` call, bare or under a math/numpy receiver."""
    return (
        isinstance(node, ast.Call)
        and call_name(node) == "log"
        and (
            isinstance(node.func, ast.Name)
            or _receiver_name(node.func) in _NUMERIC_RECEIVERS
        )
    )


def _is_inf_literal(node: ast.AST) -> bool:
    """``float("inf")``/``float("-inf")``/``float("nan")`` sentinels."""
    if not (isinstance(node, ast.Call) and call_name(node) == "float"):
        return False
    if len(node.args) != 1:
        return False
    arg = node.args[0]
    return isinstance(arg, ast.Constant) and isinstance(
        arg.value, str
    ) and arg.value.lstrip("+-") in ("inf", "infinity", "nan")


class Evaluator:
    """Domain evaluation of expression nodes within one function."""

    def __init__(
        self,
        index: NumericIndex,
        fn: FunctionInfo,
        env: dict[str, Domain],
    ) -> None:
        self.index = index
        self.env = env
        self._sites = {
            (site.node_line, site.node_col): site
            for site in index.graph.calls_in(fn.qualname)
        }

    # ------------------------------------------------------------------
    def domain_of(self, node: ast.AST) -> Domain:
        if isinstance(node, ast.Constant):
            return self._constant(node)
        if isinstance(node, ast.Name):
            return self.env.get(node.id, Domain.UNKNOWN)
        if isinstance(node, ast.UnaryOp):
            return self.domain_of(node.operand)
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.BinOp):
            return _binop_domain(
                type(node.op),
                self.domain_of(node.left),
                self.domain_of(node.right),
            )
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.IfExp):
            return join(
                self.domain_of(node.body), self.domain_of(node.orelse)
            )
        if isinstance(node, ast.Subscript):
            # An element inherits the array's element domain.
            return self.domain_of(node.value)
        if isinstance(node, ast.Compare):
            return Domain.COUNT  # booleans behave as 0/1 counts
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            return join_all([self.domain_of(e) for e in node.elts])
        if isinstance(node, ast.ListComp):
            return self.domain_of(node.elt)
        if isinstance(node, ast.GeneratorExp):
            return self.domain_of(node.elt)
        if isinstance(node, ast.Starred):
            return self.domain_of(node.value)
        return Domain.UNKNOWN

    # ------------------------------------------------------------------
    def _constant(self, node: ast.Constant) -> Domain:
        value = node.value
        if isinstance(value, bool):
            return Domain.COUNT
        if isinstance(value, int):
            return Domain.COUNT
        if isinstance(value, float):
            if value != value or value in (
                float("inf"),
                float("-inf"),
            ):
                return Domain.NEUTRAL
            return Domain.FLOAT
        return Domain.UNKNOWN

    def _attribute(self, node: ast.Attribute) -> Domain:
        if node.attr in ("inf", "nan", "e", "pi"):
            receiver = _receiver_name(node)
            if receiver in _NUMERIC_RECEIVERS:
                if node.attr in ("inf", "nan"):
                    return Domain.NEUTRAL
                return Domain.FLOAT
        if node.attr in ("size", "shape", "ndim"):
            return Domain.COUNT
        return Domain.UNKNOWN

    # ------------------------------------------------------------------
    def _call(self, node: ast.Call) -> Domain:
        name = call_name(node)
        if name is None:
            return Domain.UNKNOWN
        if _is_inf_literal(node):
            return Domain.NEUTRAL
        if name in _FLOAT_CALLS:
            return Domain.FLOAT
        if is_trusted_log(node):
            return Domain.FLOAT
        if name == "clip" and len(node.args) >= 3:
            return Domain.FLOAT
        if name in ("min", "max") and len(node.args) == 2:
            # min(1.0, p) / max(0.0, p) keep a float a float.
            bound = (1, 1.0) if name == "min" else (0, 0.0)
            for limit, other in (
                (node.args[0], node.args[1]),
                (node.args[1], node.args[0]),
            ):
                if (
                    isinstance(limit, ast.Constant)
                    and limit.value in bound
                    and self.domain_of(other) is Domain.FLOAT
                ):
                    return Domain.FLOAT
            return Domain.UNKNOWN
        if name in _COUNT_CALLS:
            return Domain.COUNT
        if name == "full" and len(node.args) >= 2:
            return self.domain_of(node.args[1])
        if name == "where" and len(node.args) == 3:
            return join(
                self.domain_of(node.args[1]), self.domain_of(node.args[2])
            )
        if name in ("sum", "prod", "dot", "cumsum"):
            target = node.args[0] if node.args else (
                node.func.value
                if isinstance(node.func, ast.Attribute)
                else None
            )
            if target is not None and self.domain_of(target) is (
                Domain.COUNT
            ):
                return Domain.COUNT
            return Domain.FLOAT
        if name in _TRANSPARENT_CALLS:
            target: ast.AST | None
            if node.args:
                target = node.args[0]
            elif isinstance(node.func, ast.Attribute):
                target = node.func.value
            else:
                target = None
            if target is not None:
                inner = self.domain_of(target)
                if name == "float" and inner is Domain.COUNT:
                    return Domain.FLOAT
                return inner
            return Domain.UNKNOWN
        # interprocedural: resolved project call -> its return summary
        site = self._sites.get((node.lineno, node.col_offset))
        if site is not None and site.targets:
            return join_all(
                [self.index.summary_of(t) for t in site.targets]
            )
        return Domain.UNKNOWN
