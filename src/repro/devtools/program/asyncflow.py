"""Async dataflow plumbing shared by the concurrency passes (P9, P10).

Its container-kind inference (:func:`container_attr_kinds`,
:func:`annotation_container`, :func:`value_container`) also tells the
determinism pass (P3) which iterations are over sets and dicts.

Three cross-module indices over the :class:`~repro.devtools.program.
callgraph.CallGraph`, built once per run and consumed by the
concurrency-era project rules:

- **task roots** — where coroutines enter the event loop.  A root is a
  coroutine handed to ``asyncio.create_task``/``ensure_future``/
  ``gather``, the main coroutine of ``asyncio.run``/
  ``run_until_complete``, or a connection handler: the callback
  registered with ``asyncio.start_server`` (which the loop spawns as a
  fresh task per connection), or the transport callbacks
  (``data_received`` and friends) of the protocol class whose factory
  is handed to ``loop.create_server``.  Roots are the unit of
  concurrency: two functions reachable from *different* roots can
  interleave at every ``await``.
- **forward reachability** — the call-graph closure from a set of
  roots, following the same over-approximate edges the other P-passes
  use (missing an edge hides a bug; a spurious one at worst asks for a
  justification comment).
- **attribute writes** — every ``self.<attr>`` mutation site (plain /
  augmented / subscript assignment, and in-place mutator calls such as
  ``.add``/``.append``/``.update``), attributed to its enclosing
  function, with ``async with <...lock...>`` protection recorded so the
  race pass can honour lock discipline.  Constructor writes
  (``__init__``/``__post_init__``) are excluded: an object under
  construction is not yet shared between tasks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import CallGraph, FunctionInfo, call_name

__all__ = [
    "AttrWrite",
    "CONSTRUCTORS",
    "TaskRoot",
    "annotation_container",
    "collect_attr_writes",
    "container_attr_kinds",
    "find_task_roots",
    "reachable_from",
    "value_container",
]

#: calls that schedule their coroutine argument as a concurrent task.
_SPAWNERS = frozenset({"create_task", "ensure_future"})
#: calls whose coroutine argument becomes the loop's main task.
_MAIN_RUNNERS = frozenset({"run", "run_until_complete"})
#: calls taking a *reference* to a per-connection handler coroutine.
_SERVER_CALLS = frozenset({"start_server", "start_unix_server"})
#: calls taking a protocol *factory*: a class, or ``lambda: Cls(...)``.
_PROTOCOL_SERVER_CALLS = frozenset({"create_server", "create_unix_server"})
#: the methods of a protocol class the loop calls per connection event.
_PROTOCOL_CALLBACKS = (
    "connection_made",
    "data_received",
    "eof_received",
    "connection_lost",
)
#: gather-style calls: every coroutine argument runs concurrently.
_GATHERERS = frozenset({"gather"})

#: in-place mutator methods counted as attribute writes.
_MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: object-constructing initialisers: their writes happen before the
#: object is shared (P9), and they run once per object, not once per
#: request (P10).
CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})

_SET_NAMES = frozenset({"set", "frozenset", "Set", "FrozenSet"})
_DICT_NAMES = frozenset(
    {"dict", "Dict", "defaultdict", "DefaultDict", "OrderedDict", "Mapping"}
)
_LIST_NAMES = frozenset(
    {"list", "List", "deque", "Deque", "Sequence", "MutableSequence"}
)


@dataclass(frozen=True)
class TaskRoot:
    """One function the event loop runs as (or inside) its own task."""

    qualname: str
    kind: str  # "task" | "main" | "server-handler"
    spawned_in: str  # qualname of the function doing the spawning
    line: int


@dataclass(frozen=True)
class AttrWrite:
    """One ``self.<attr>`` mutation site."""

    module: str
    cls: str
    attr: str
    qualname: str  # enclosing function
    line: int
    col: int
    locked: bool  # inside ``[async] with <...lock...>:``


# ----------------------------------------------------------------------
# task-root discovery
# ----------------------------------------------------------------------
def find_task_roots(graph: CallGraph) -> list[TaskRoot]:
    """Every discovered entry point of a concurrent task, sorted."""
    roots: list[TaskRoot] = []
    for caller, sites in graph.calls.items():
        caller_fn = graph.functions.get(caller)
        inner = {
            (site.node_line, site.node_col): site for site in sites
        }
        for site in sites:
            name = call_name(site.call)
            if name is None:
                continue
            if name in _SPAWNERS or name in _MAIN_RUNNERS:
                args = site.call.args
                if args and isinstance(args[0], ast.Call):
                    kind = "task" if name in _SPAWNERS else "main"
                    for target in _inner_targets(inner, args[0]):
                        roots.append(TaskRoot(
                            qualname=target,
                            kind=kind,
                            spawned_in=caller,
                            line=site.node_line,
                        ))
            elif name in _GATHERERS:
                for arg in site.call.args:
                    if isinstance(arg, ast.Call):
                        for target in _inner_targets(inner, arg):
                            roots.append(TaskRoot(
                                qualname=target,
                                kind="task",
                                spawned_in=caller,
                                line=site.node_line,
                            ))
            elif (
                name in _SERVER_CALLS or name in _PROTOCOL_SERVER_CALLS
            ) and site.call.args:
                resolve = (
                    _reference_targets
                    if name in _SERVER_CALLS
                    else _protocol_targets
                )
                for target in resolve(graph, caller_fn, site.call.args[0]):
                    roots.append(TaskRoot(
                        qualname=target,
                        kind="server-handler",
                        spawned_in=caller,
                        line=site.node_line,
                    ))
    return sorted(
        set(roots), key=lambda r: (r.qualname, r.spawned_in, r.line)
    )


def _inner_targets(
    inner: dict[tuple[int, int], object], arg: ast.Call
) -> tuple[str, ...]:
    """Targets of a coroutine-producing call passed as an argument.

    The inner call was itself recorded as a call site of the same
    caller; look it up by position.
    """
    site = inner.get((arg.lineno, arg.col_offset))
    targets = getattr(site, "targets", ())
    return tuple(targets)


def _reference_targets(
    graph: CallGraph, caller_fn: FunctionInfo | None, node: ast.AST
) -> tuple[str, ...]:
    """Resolve a function *reference* (not a call) like ``self._handle``."""
    if isinstance(node, ast.Attribute):
        if (
            isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")
            and caller_fn is not None
            and caller_fn.cls is not None
        ):
            methods = graph.class_methods.get(
                (caller_fn.module, caller_fn.cls), {}
            )
            if node.attr in methods:
                return (methods[node.attr],)
        return tuple(sorted(graph.by_name.get(node.attr, [])))
    if isinstance(node, ast.Name):
        if caller_fn is not None:
            defs = graph.module_defs.get(caller_fn.module, {})
            if node.id in defs and defs[node.id] in graph.functions:
                return (defs[node.id],)
        return tuple(sorted(graph.by_name.get(node.id, [])))
    return ()


def _protocol_targets(
    graph: CallGraph, caller_fn: FunctionInfo | None, node: ast.AST
) -> tuple[str, ...]:
    """Transport callbacks of a protocol *factory*: ``Cls`` or
    ``lambda: Cls(...)``.

    The class resolves in the caller's module first, then — like every
    other edge of the graph — to any project class of that name.
    """
    if isinstance(node, ast.Lambda):
        node = node.body
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return ()
    owners = [key for key in graph.class_methods if key[1] == name]
    if caller_fn is not None and (caller_fn.module, name) in owners:
        owners = [(caller_fn.module, name)]
    return tuple(
        graph.class_methods[owner][callback]
        for owner in sorted(owners)
        for callback in _PROTOCOL_CALLBACKS
        if callback in graph.class_methods[owner]
    )


# ----------------------------------------------------------------------
# forward reachability
# ----------------------------------------------------------------------
def reachable_from(
    graph: CallGraph,
    seeds: set[str],
    skip_names: frozenset[str] = frozenset(),
    stop: frozenset[str] = frozenset(),
) -> set[str]:
    """``seeds`` plus every function a seed can call, transitively.

    ``skip_names`` prunes traversal: functions with those bare names
    are neither entered nor expanded (used to keep telemetry surfaces
    like ``snapshot`` off the hot-path closure).  ``stop`` prunes by
    qualname — the race pass passes the *other* task roots here, so a
    spawner's closure ends where the spawned coroutine's own task
    begins (the spawn edge would otherwise attribute every write inside
    a task to whoever created it).
    """
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        current = frontier.pop()
        for site in graph.calls_in(current):
            for target in site.targets:
                if target in reached or target in stop:
                    continue
                fn = graph.functions.get(target)
                if fn is not None and fn.name in skip_names:
                    continue
                reached.add(target)
                frontier.append(target)
    return reached


# ----------------------------------------------------------------------
# attribute writes
# ----------------------------------------------------------------------
def collect_attr_writes(graph: CallGraph) -> list[AttrWrite]:
    """Every post-construction ``self.<attr>`` mutation in the program."""
    writes: list[AttrWrite] = []
    for qualname, fn in graph.functions.items():
        if fn.cls is None or fn.name in CONSTRUCTORS:
            continue
        lock_ranges = _lock_ranges(fn.node)
        for node in ast.walk(fn.node):
            for attr, line, col in _write_targets(node):
                writes.append(AttrWrite(
                    module=fn.module,
                    cls=fn.cls,
                    attr=attr,
                    qualname=qualname,
                    line=line,
                    col=col,
                    locked=any(
                        lo <= line <= hi for lo, hi in lock_ranges
                    ),
                ))
    return writes


def _self_attr(node: ast.AST) -> str | None:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _write_targets(node: ast.AST) -> list[tuple[str, int, int]]:
    """(attr, line, col) for each self-attribute mutation in ``node``."""
    found: list[tuple[str, int, int]] = []
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            attr = _self_attr(target)
            if attr is None and isinstance(target, ast.Subscript):
                attr = _self_attr(target.value)
            if attr is not None:
                found.append((attr, target.lineno, target.col_offset))
    elif isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        if node.func.attr in _MUTATORS:
            attr = _self_attr(node.func.value)
            if attr is not None:
                found.append((attr, node.lineno, node.col_offset))
    return found


def _lock_ranges(fn_node: ast.AST) -> list[tuple[int, int]]:
    """Line spans of ``[async] with`` blocks over a lock-named object."""
    ranges: list[tuple[int, int]] = []
    for node in ast.walk(fn_node):
        if not isinstance(node, (ast.With, ast.AsyncWith)):
            continue
        if any(
            _mentions_lock(item.context_expr) for item in node.items
        ):
            end = getattr(node, "end_lineno", None) or node.lineno
            ranges.append((node.lineno, end))
    return ranges


def _mentions_lock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Name):
            name = sub.id
        if name is not None and "lock" in name.lower():
            return True
    return False


# ----------------------------------------------------------------------
# container-typed attributes
# ----------------------------------------------------------------------
def container_attr_kinds(tree: ast.Module) -> dict[str, str]:
    """attr name -> "set"/"dict"/"list" for one module's classes.

    Harvested from annotations (class-level or ``self.x: set[...]``)
    and from constructor-shaped assignments (``self.x = {}``,
    ``self.x = set()``, literals and comprehensions).
    """
    kinds: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            kind = annotation_container(node.annotation)
            target = node.target
            attr = _self_attr(target)
            if attr is None and isinstance(target, ast.Name):
                attr = target.id
            if kind is not None and attr is not None:
                kinds.setdefault(attr, kind)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            attr = _self_attr(node.targets[0])
            kind = value_container(node.value)
            if attr is not None and kind is not None:
                kinds.setdefault(attr, kind)
    return kinds


def annotation_container(annotation: ast.AST | None) -> str | None:
    """"set"/"dict"/"list" for a container type annotation, else None."""
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        node = node.value
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name in _SET_NAMES:
        return "set"
    if name in _DICT_NAMES:
        return "dict"
    if name in _LIST_NAMES:
        return "list"
    return None


def value_container(value: ast.AST) -> str | None:
    """"set"/"dict"/"list" for a container-building expression."""
    if isinstance(value, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(value, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(value, ast.Call):
        name = None
        if isinstance(value.func, ast.Name):
            name = value.func.id
        elif isinstance(value.func, ast.Attribute):
            name = value.func.attr
        if name in ("set", "frozenset"):
            return "set"
        if name in ("dict", "defaultdict", "OrderedDict"):
            return "dict"
        if name in ("list", "deque"):
            return "list"
    return None
