"""Approximate whole-program call graph for the P-series passes.

Python resists exact static call resolution, so this graph is a
deliberate over-approximation tuned for the two analyses that share it:

- bare-name calls resolve through the module's import map (following
  ``__init__`` re-exports a bounded number of hops), then module-level
  definitions;
- ``self.method()`` resolves inside the enclosing class;
- other attribute calls fall back to *every* project function or method
  with that name.

Over-approximation is the safe direction for both clients: the
determinism pass (P3) wants "could this function's iteration order ever
reach the event queue?" and the RNG pass (P2) wants "could this call
chain ever construct an entropy-seeded Generator?" — missing an edge
hides a bug, while a spurious edge at worst asks for a justification
comment.
"""

from __future__ import annotations

import ast
import weakref
from dataclasses import dataclass, field
from typing import Iterator

from ..context import dotted_parts
from .context import ModuleInfo, ProgramContext

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "build_call_graph",
    "call_name",
    "get_call_graph",
    "short_name",
]

_MAX_REEXPORT_HOPS = 5


@dataclass
class FunctionInfo:
    """One function or method definition in the program."""

    qualname: str  # "repro.cloudsim.coordinator.Coordinator._sweep"
    module: str
    cls: str | None
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_method: bool

    def param_default(self, param: str) -> ast.AST | None | bool:
        """Default node for ``param``: the AST node, ``None`` when the
        parameter is required, ``False`` when no such parameter exists."""
        args = self.node.args
        positional = list(args.posonlyargs) + list(args.args)
        defaults = list(args.defaults)
        # defaults align with the tail of the positional list
        pad: list[ast.AST | None] = [None] * (
            len(positional) - len(defaults)
        )
        for arg, default in zip(positional, pad + defaults):
            if arg.arg == param:
                return default
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if arg.arg == param:
                return kw_default
        return False

    def positional_params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in list(args.posonlyargs) + list(args.args)]
        if self.is_method and names:
            names = names[1:]  # receiver
        return names


@dataclass(frozen=True)
class CallSite:
    """One resolved call: who calls whom, from where."""

    caller: str  # qualname of the enclosing function ("<module>" at top)
    node_line: int
    node_col: int
    targets: tuple[str, ...]  # candidate callee qualnames
    call: ast.Call = field(compare=False, hash=False)


class CallGraph:
    """Function index plus resolved call edges."""

    def __init__(self, program: ProgramContext) -> None:
        self.program = program
        self.functions: dict[str, FunctionInfo] = {}
        self.by_name: dict[str, list[str]] = {}
        self.class_methods: dict[tuple[str, str], dict[str, str]] = {}
        self.module_defs: dict[str, dict[str, str]] = {}
        #: module -> its import map (local name -> (module target,
        #: original name or None for a module binding))
        self.imports: dict[str, dict[str, tuple[str, str | None]]] = {}
        self.calls: dict[str, list[CallSite]] = {}
        self.callers: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def calls_in(self, qualname: str) -> list[CallSite]:
        return self.calls.get(qualname, [])

    def callers_of(self, qualname: str) -> set[str]:
        return self.callers.get(qualname, set())

    def transitive_callers(self, seeds: set[str]) -> set[str]:
        """``seeds`` plus every function that can reach one of them."""
        reached = set(seeds)
        frontier = list(seeds)
        while frontier:
            current = frontier.pop()
            for caller in self.callers_of(current):
                if caller not in reached:
                    reached.add(caller)
                    frontier.append(caller)
        return reached


_CACHE: "weakref.WeakKeyDictionary[ProgramContext, CallGraph]" = (
    weakref.WeakKeyDictionary()
)


def get_call_graph(program: ProgramContext) -> CallGraph:
    """The (cached) call graph for ``program``.

    Every pass shares one graph per lint run; none of them mutates it.
    """
    graph = _CACHE.get(program)
    if graph is None:
        graph = build_call_graph(program)
        _CACHE[program] = graph
    return graph


def short_name(qualname: str) -> str:
    """``Class.method`` (or ``module.function``) for report messages."""
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname


def call_name(call: ast.Call) -> str | None:
    """The called name: ``f`` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


def build_call_graph(program: ProgramContext) -> CallGraph:
    graph = CallGraph(program)
    for info in program.project_modules():
        _index_module(graph, info)
    for info in program.project_modules():
        _resolve_module_calls(graph, info)
    return graph


# ----------------------------------------------------------------------
# indexing
# ----------------------------------------------------------------------
def _index_module(graph: CallGraph, info: ModuleInfo) -> None:
    defs: dict[str, str] = {}
    for node in info.ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{info.name}.{node.name}"
            fn = FunctionInfo(
                qualname=qualname,
                module=info.name,
                cls=None,
                name=node.name,
                node=node,
                is_method=False,
            )
            graph.functions[qualname] = fn
            graph.by_name.setdefault(node.name, []).append(qualname)
            defs[node.name] = qualname
        elif isinstance(node, ast.ClassDef):
            defs[node.name] = f"{info.name}.{node.name}"
            methods: dict[str, str] = {}
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qualname = f"{info.name}.{node.name}.{item.name}"
                    is_static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    fn = FunctionInfo(
                        qualname=qualname,
                        module=info.name,
                        cls=node.name,
                        name=item.name,
                        node=item,
                        is_method=not is_static,
                    )
                    graph.functions[qualname] = fn
                    graph.by_name.setdefault(item.name, []).append(qualname)
                    methods[item.name] = qualname
            graph.class_methods[(info.name, node.name)] = methods
    graph.module_defs[info.name] = defs


def _import_map(info: ModuleInfo) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module target, original name or None for modules)."""
    mapping: dict[str, tuple[str, str | None]] = {}
    for record in info.imports:
        if record.names:
            for local, original in record.bindings():
                mapping[local] = (record.target, original)
        elif record.module_alias is not None:
            # ``import a.b`` binds ``a`` (to package a); ``import a.b as
            # x`` binds x straight to a.b.
            target = record.target
            if record.module_alias == record.target.split(".", 1)[0]:
                target = record.module_alias
            mapping.setdefault(record.module_alias, (target, None))
    return mapping


def _resolve_export(
    graph: CallGraph, module: str, name: str, hops: int = 0
) -> str | None:
    """Resolve ``from module import name`` to a defined qualname.

    Follows ``__init__`` re-exports (``from .greedy import greedy_sizes``)
    up to a bounded depth, and falls back to the submodule
    ``module.name`` when that is what the import actually binds.
    """
    if hops > _MAX_REEXPORT_HOPS:
        return None
    defs = graph.module_defs.get(module)
    if defs and name in defs:
        return defs[name]
    submodule = f"{module}.{name}"
    if submodule in graph.program.modules:
        return submodule
    info = graph.program.modules.get(module)
    if info is not None:
        for record in info.imports:
            if name in record.names:
                resolved = _resolve_export(
                    graph, record.target, name, hops + 1
                )
                if resolved is not None:
                    return resolved
    return None


# ----------------------------------------------------------------------
# call resolution
# ----------------------------------------------------------------------
def _resolve_module_calls(graph: CallGraph, info: ModuleInfo) -> None:
    imports = graph.imports[info.name] = _import_map(info)

    def record(caller: str, call: ast.Call, targets: tuple[str, ...]) -> None:
        site = CallSite(
            caller=caller,
            node_line=call.lineno,
            node_col=call.col_offset,
            targets=targets,
            call=call,
        )
        graph.calls.setdefault(caller, []).append(site)
        for target in targets:
            graph.callers.setdefault(target, set()).add(caller)

    for fn_qualname, fn_node, cls_name in _function_scopes(info):
        for call in _calls_in_body(fn_node):
            targets = _resolve_call(
                graph, info, imports, call, cls_name
            )
            record(fn_qualname, call, tuple(sorted(targets)))


def _function_scopes(
    info: ModuleInfo,
) -> Iterator[tuple[str, ast.AST, str | None]]:
    """Each function scope plus a synthetic ``<module>`` scope."""
    yield f"{info.name}.<module>", _ModuleScope(info.ctx.tree), None
    for node in info.ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{info.name}.{node.name}", node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield (
                        f"{info.name}.{node.name}.{item.name}",
                        item,
                        node.name,
                    )


class _ModuleScope:
    """Module top-level statements, minus function/class bodies."""

    def __init__(self, tree: ast.Module) -> None:
        self.body = [
            node
            for node in tree.body
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]


def _calls_in_body(scope: ast.AST | _ModuleScope) -> Iterator[ast.Call]:
    if isinstance(scope, _ModuleScope):
        for stmt in scope.body:
            yield from (
                n for n in ast.walk(stmt) if isinstance(n, ast.Call)
            )
        return
    # Skip nested function definitions: they get their own scope only if
    # top-level; nested closures stay attributed to the enclosing
    # function, which is what reachability wants.
    yield from (n for n in ast.walk(scope) if isinstance(n, ast.Call))


def _resolve_call(
    graph: CallGraph,
    info: ModuleInfo,
    imports: dict[str, tuple[str, str | None]],
    call: ast.Call,
    cls_name: str | None,
) -> set[str]:
    func = call.func
    targets: set[str] = set()
    if isinstance(func, ast.Name):
        name = func.id
        if name in imports:
            module, original = imports[name]
            if original is not None:
                resolved = _resolve_export(graph, module, original)
                if resolved is not None:
                    targets |= _expand_class(graph, resolved)
        elif name in graph.module_defs.get(info.name, {}):
            targets |= _expand_class(
                graph, graph.module_defs[info.name][name]
            )
    elif isinstance(func, ast.Attribute):
        # self.method() inside a class
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and cls_name is not None
        ):
            methods = graph.class_methods.get((info.name, cls_name), {})
            if func.attr in methods:
                return {methods[func.attr]}
        # module-alias dotted call: mod.func() / pkg.sub.func()
        dotted = dotted_parts(func)
        if dotted is not None:
            head, *rest = dotted
            if head in imports and imports[head][1] is None:
                module = imports[head][0]
                if rest:
                    *middle, last = rest
                    target_mod = ".".join([module, *middle])
                    resolved = _resolve_export(graph, target_mod, last)
                    if resolved is not None:
                        return _expand_class(graph, resolved)
        # fallback: every project function/method with this bare name
        for qualname in graph.by_name.get(func.attr, []):
            targets |= _expand_class(graph, qualname)
    return targets


def _expand_class(graph: CallGraph, qualname: str) -> set[str]:
    """A call to a class is a call to its constructor chain."""
    if qualname in graph.functions:
        return {qualname}
    # qualname may be "module.Class": route to __init__/__post_init__.
    module, _, cls = qualname.rpartition(".")
    methods = graph.class_methods.get((module, cls))
    if methods:
        chain = {
            methods[name]
            for name in ("__init__", "__post_init__")
            if name in methods
        }
        if chain:
            return chain
    return set()
