"""Rule P10: per-request handler paths stay O(1) and allocation-free.

The REQ/OK hot path is the service's only per-packet code: every
request a replica serves walks it, and the PR 5 observability work
already established the discipline — metric handles are bound once at
construction (``self._count = registry.counter(...).labels_handle()``)
and the request path touches only pre-bound handles and O(1) lookups.
A get-or-create registry lookup per request re-pays dict hashing and
label canonicalization on every packet, and an O(N) scan over a
binding/whitelist container turns each request into work proportional
to fleet size — precisely the cost curve that breaks the ROADMAP's
100×–1000× scaling item.

Scope is the forward closure of the **server-handler task roots** (the
per-connection callbacks registered with ``asyncio.start_server``, and
the ``data_received`` family of a protocol class served through
``loop.create_server``), minus reporting surfaces
(``snapshot``/``to_dict``, which run on the operator's cadence, not per
request).  Inside that closure the pass flags registry get-or-create
calls and O(N) iteration/aggregation over container attributes.  Taking
an O(N) *copy* (``list(self.x)``) to return is fine — it is the
per-request *scan* that compounds.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .asyncflow import container_attr_kinds, find_task_roots, reachable_from
from .callgraph import build_call_graph
from .context import ProgramContext

__all__ = []

#: layers whose handler closures the pass polices.
_HOT_LAYERS = frozenset({"service"})

#: get-or-create registry factory methods (PR 5): must not run per
#: request — bind the handle once in the constructor instead.
_REGISTRY_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: container views whose iteration is as O(N) as the container itself.
_VIEW_METHODS = frozenset({"values", "items", "keys"})

#: O(N) aggregators over a container argument.
_AGGREGATORS = frozenset({"sorted", "min", "max", "sum", "any", "all"})

#: functions excluded from the closure: operator-cadence reporting, not
#: per-request work (documented exemption).
_REPORTING_NAMES = frozenset({"snapshot", "to_dict"})

#: constructors run once per object, not once per request — binding a
#: metric handle there is exactly the discipline this rule demands.
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


def _receiver_chain(node: ast.AST) -> list[str]:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts


def _registry_factory_call(call: ast.Call) -> str | None:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in _REGISTRY_FACTORIES:
        return None
    chain = _receiver_chain(func.value)
    if any("registry" in part.lower() for part in chain):
        return func.attr
    return None


def _scanned_attr(node: ast.AST, kinds: dict[str, str]) -> str | None:
    """The container attribute ``node`` iterates, if any.

    Matches ``self.x`` directly and ``self.x.values()/.items()/.keys()``
    views; plain ``list(self.x)`` copies are deliberately not matched.
    """
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in _VIEW_METHODS:
            node = node.func.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in kinds
    ):
        return node.attr
    return None


def _scan_sites(
    fn_node: ast.AST, kinds: dict[str, str]
) -> Iterator[tuple[ast.AST, str, str]]:
    """(node, attr, how) for each O(N) scan in one function body."""
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            attr = _scanned_attr(node.iter, kinds)
            if attr is not None:
                yield node.iter, attr, "a for-loop over"
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for comp in node.generators:
                attr = _scanned_attr(comp.iter, kinds)
                if attr is not None:
                    yield comp.iter, attr, "a comprehension over"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _AGGREGATORS and node.args:
                attr = _scanned_attr(node.args[0], kinds)
                if attr is not None:
                    yield (
                        node,
                        attr,
                        f"`{node.func.id}()` over",
                    )


@project_rule(
    "P10",
    "hot-path-discipline",
    "Per-request handler code runs once per packet: a get-or-create "
    "metric lookup re-pays registry hashing every request (bind the "
    "handle once at construction, per PR 5), and an O(N) scan over a "
    "binding/whitelist container makes request cost grow with fleet "
    "size — keep the REQ/OK path to pre-bound handles and O(1) "
    "lookups.",
)
def check_hot_path(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    graph = build_call_graph(program)
    handler_roots = {
        root.qualname
        for root in find_task_roots(graph)
        if root.kind == "server-handler"
    }
    if not handler_roots:
        return
    closure = reachable_from(
        graph,
        handler_roots,
        skip_names=_REPORTING_NAMES | _CONSTRUCTORS,
    )
    kinds_by_module: dict[str, dict[str, str]] = {}
    for qualname in sorted(closure):
        fn = graph.functions.get(qualname)
        if fn is None or _layer(fn.module) not in _HOT_LAYERS:
            continue
        if fn.name in _REPORTING_NAMES or fn.name in _CONSTRUCTORS:
            continue
        info = program.modules.get(fn.module)
        if info is None or info.ctx.is_test_file or info.is_consumer:
            continue
        if fn.module not in kinds_by_module:
            kinds_by_module[fn.module] = container_attr_kinds(
                info.ctx.tree
            )
        kinds = kinds_by_module[fn.module]
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            factory = _registry_factory_call(node)
            if factory is not None:
                yield (
                    info.ctx.path,
                    node.lineno,
                    node.col_offset,
                    f"get-or-create `registry.{factory}(...)` in "
                    f"`{_short(qualname)}`, which is on the per-request "
                    "handler path: bind the handle once in the "
                    "constructor and use the pre-bound attribute here",
                )
        for site, attr, how in _scan_sites(fn.node, kinds):
            yield (
                info.ctx.path,
                site.lineno,
                site.col_offset,
                f"{how} container `self.{attr}` in "
                f"`{_short(qualname)}`, which is on the per-request "
                "handler path: request cost grows with fleet size — "
                "maintain an O(1) index updated at mutation time "
                "instead of scanning per request",
            )


def _layer(module: str) -> str | None:
    parts = module.split(".")
    return parts[1] if len(parts) >= 2 else None


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname
