"""Rules P6/P7: event-loop discipline for the live service.

**P6** — the live defense loop (PR 4) shares one asyncio event loop
between the coordinator's detection sweeps, every replica's request
handlers, and the control channel.  Anything that blocks that loop —
``time.sleep``, synchronous socket/file I/O, ``subprocess``, or a
CPU-heavy ``repro.core`` planner/estimator — freezes *all* of them at
once: saturation windows go stale, detection lags, and the shuffle loop
the paper's convergence argument depends on stops keeping up with the
attack.  The pass computes a "can block" summary for every synchronous
function (direct offense, or a call chain reaching one) and flags
non-awaited calls inside ``async def`` bodies in the service layer that
reach a blocking summary.  Genuinely cheap calls are accepted with an
``# event-loop-safe: <reason>`` marker — the reason is mandatory.

**P7** — a coroutine call whose result is discarded never runs
(``RuntimeWarning: coroutine was never awaited`` at garbage-collection
time, long after the bug site), and a task spawned with
``asyncio.create_task`` whose handle is neither retained nor given a
done-callback swallows its exceptions silently — the detection loop
can die mid-scenario with no trace.  The pass flags both shapes at the
statement that discards the result.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .callgraph import CallGraph, CallSite, build_call_graph
from .context import ModuleInfo, ProgramContext

__all__ = ["blocking_summaries"]

#: layers whose async functions the blocking pass polices (the event
#: loop lives in the service layer; sim is synchronous).
_ASYNC_LAYERS = frozenset({"service"})

#: known CPU-heavy ``repro.core`` entry points: the ``core.api``
#: estimate/plan dispatchers, whole-grid precomputation, and the
#: multi-round trajectory.  Calling one on the event loop is legitimate
#: only with a written ``# event-loop-safe:`` justification (e.g.
#: bounded inputs).
_CPU_HEAVY_CORE = frozenset(
    {"estimate", "plan", "precompute", "shuffle_trajectory"}
)

#: ``socket`` module calls that perform blocking network I/O.
_SOCKET_BLOCKING = frozenset(
    {"socket", "create_connection", "getaddrinfo", "gethostbyname"}
)

#: attribute calls that read/write files regardless of receiver.
_FILE_IO_ATTRS = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)

#: generic container/protocol method names whose bare-name call-graph
#: fallback is overwhelmingly wrong (``window.get(...)`` is a dict, not
#: ``StorageBackend.get``).  Blocking propagation ignores non-``self``
#: attribute calls with these names; direct offenses (distinctly named,
#: e.g. ``read_text``) are still checked on every call.
_GENERIC_ATTRS = frozenset(
    {
        "add",
        "append",
        "cancel",
        "clear",
        "close",
        "copy",
        "count",
        "counts",
        "discard",
        "done",
        "extend",
        "get",
        "index",
        "insert",
        "items",
        "join",
        "keys",
        "pop",
        "popleft",
        "remove",
        "result",
        "set",
        "sort",
        "split",
        "strip",
        "sum",
        "update",
        "values",
    }
)


# ----------------------------------------------------------------------
# direct-offense detection
# ----------------------------------------------------------------------
def _module_maps(
    info: ModuleInfo,
) -> tuple[dict[str, str], dict[str, str]]:
    """(bare-name -> offense, local alias -> module) for one module."""
    bare: dict[str, str] = {}
    aliases: dict[str, str] = {}
    for record in info.imports:
        if record.names:
            if record.target == "time":
                for local, original in record.bindings():
                    if original == "sleep":
                        bare[local] = "time.sleep()"
        elif record.module_alias is not None:
            aliases[record.module_alias] = record.target
    return bare, aliases


def _direct_offense(
    call: ast.Call, bare: dict[str, str], aliases: dict[str, str]
) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id in bare:
            return f"blocking `{bare[func.id]}`"
        if func.id == "open":
            return "synchronous file I/O (`open()`)"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _FILE_IO_ATTRS:
        return f"synchronous file I/O (`.{func.attr}()`)"
    if isinstance(func.value, ast.Name):
        module = aliases.get(func.value.id, func.value.id)
        if module == "time" and func.attr == "sleep":
            return "blocking `time.sleep()`"
        if module == "subprocess":
            return f"blocking `subprocess.{func.attr}()`"
        if module == "socket" and func.attr in _SOCKET_BLOCKING:
            return f"blocking `socket.{func.attr}()`"
        if module == "os" and func.attr == "system":
            return "blocking `os.system()`"
    return None


def _heavy_core_target(site: CallSite) -> str | None:
    for target in site.targets:
        parts = target.split(".")
        if (
            len(parts) >= 2
            and parts[1] == "core"
            and parts[-1] in _CPU_HEAVY_CORE
        ):
            return target
    return None


def _confident_sites(
    graph: CallGraph, qualname: str
) -> Iterator[CallSite]:
    """Call sites whose resolved targets are worth propagating through.

    Non-``self`` attribute calls with generic container/protocol names
    resolve by bare-name fallback to unrelated project methods; those
    edges are dropped for blocking propagation.
    """
    for site in graph.calls_in(qualname):
        func = site.call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _GENERIC_ATTRS
            and not (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            )
        ):
            continue
        yield site


def blocking_summaries(
    graph: CallGraph, program: ProgramContext
) -> dict[str, str]:
    """qualname -> reason, for every *sync* function that can block.

    Seeded with direct offenses (sleep/subprocess/file I/O/heavy core
    calls), then propagated caller-ward through synchronous callers
    only: an async callee runs on its own turn of the loop and is
    checked at its own body.  Propagation follows only
    :func:`_confident_sites` edges.
    """
    maps = {
        name: _module_maps(info)
        for name, info in program.modules.items()
    }
    blocking: dict[str, str] = {}
    rev: dict[str, set[str]] = {}
    for qualname, fn in graph.functions.items():
        if isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        bare, aliases = maps.get(fn.module, ({}, {}))
        for site in graph.calls_in(qualname):
            desc = _direct_offense(site.call, bare, aliases)
            if desc is None:
                heavy = _heavy_core_target(site)
                if heavy is not None:
                    desc = f"CPU-heavy core call `{_short(heavy)}`"
            if desc is not None:
                blocking.setdefault(qualname, desc)
                break
        for site in _confident_sites(graph, qualname):
            for target in site.targets:
                rev.setdefault(target, set()).add(qualname)
    worklist = list(blocking)
    while worklist:
        current = worklist.pop()
        for caller in sorted(rev.get(current, ())):
            if caller in blocking:
                continue
            blocking[caller] = (
                f"{blocking[current]} via `{_short(current)}`"
            )
            worklist.append(caller)
    return blocking


@project_rule(
    "P6",
    "async-blocking",
    "The service shares one event loop between detection sweeps, "
    "request handlers and the control channel; a blocking call "
    "(time.sleep, sync I/O, subprocess, CPU-heavy core planner or "
    "estimator) inside an async def freezes all of them and stalls the "
    "shuffle loop the paper's convergence depends on — await an async "
    "equivalent, run_in_executor it, or justify with "
    "`# event-loop-safe: <reason>`.",
)
def check_async_blocking(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    graph = build_call_graph(program)
    blocking = blocking_summaries(graph, program)
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if not isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        if _layer(fn.module) not in _ASYNC_LAYERS:
            continue
        info = program.modules.get(fn.module)
        if info is None or info.ctx.is_test_file:
            continue
        bare, aliases = _module_maps(info)
        awaited = {
            id(node.value)
            for node in ast.walk(fn.node)
            if isinstance(node, ast.Await)
            and isinstance(node.value, ast.Call)
        }
        confident = {id(site) for site in _confident_sites(graph, qualname)}
        for site in graph.calls_in(qualname):
            call = site.call
            if id(call) in awaited:
                continue
            if info.ctx.suppressions.has_loop_safe(call.lineno):
                continue
            desc = _direct_offense(call, bare, aliases)
            if desc is None:
                heavy = _heavy_core_target(site)
                if heavy is not None:
                    desc = f"CPU-heavy core call `{_short(heavy)}`"
            if desc is None and id(site) in confident:
                desc = _blocking_callee(graph, site, blocking)
            if desc is not None:
                yield (
                    info.ctx.path,
                    call.lineno,
                    call.col_offset,
                    f"{desc} on the event loop in async "
                    f"`{_short(qualname)}`: stalls every task sharing "
                    "the loop; await an async equivalent, offload via "
                    "run_in_executor, or add "
                    "`# event-loop-safe: <reason>`",
                )


def _blocking_callee(
    graph: CallGraph, site: CallSite, blocking: dict[str, str]
) -> str | None:
    for target in site.targets:
        fn = graph.functions.get(target)
        if fn is None or isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        if target in blocking:
            return (
                f"call into `{_short(target)}`, which reaches "
                f"{blocking[target]},"
            )
    return None


# ----------------------------------------------------------------------
# P7: orphan coroutines and fire-and-forget tasks
# ----------------------------------------------------------------------
_SPAWN_NAMES = frozenset({"create_task", "ensure_future"})


def _is_spawn_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in _SPAWN_NAMES
    if isinstance(func, ast.Name):
        return func.id in _SPAWN_NAMES
    return False


@project_rule(
    "P7",
    "orphan-coroutine",
    "A coroutine call whose result is discarded never executes (the "
    "'never awaited' warning fires at GC time, far from the bug), and "
    "a create_task() handle that is neither retained nor given a "
    "done-callback swallows the task's exceptions silently — a crashed "
    "detection loop looks like a healthy quiet one.  Await the call, "
    "keep the handle, or attach an exception-reporting done-callback.",
)
def check_orphan_coroutines(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    graph = build_call_graph(program)
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        info = program.modules.get(fn.module)
        if info is None or info.ctx.is_test_file:
            continue
        sites = {
            (site.node_line, site.node_col): site
            for site in graph.calls_in(qualname)
        }
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            if _is_spawn_call(value):
                yield (
                    info.ctx.path,
                    value.lineno,
                    value.col_offset,
                    f"fire-and-forget task in `{_short(qualname)}`: the "
                    "create_task() handle is discarded, so the task's "
                    "exceptions vanish silently; retain the handle or "
                    "chain .add_done_callback(...) that reports them",
                )
                continue
            # create_task(...).add_done_callback(cb) keeps a reporter.
            if (
                isinstance(value.func, ast.Attribute)
                and value.func.attr == "add_done_callback"
            ):
                continue
            site = sites.get((value.lineno, value.col_offset))
            if site is None or not site.targets:
                continue
            callees = [
                graph.functions.get(target) for target in site.targets
            ]
            if all(
                callee is not None
                and isinstance(callee.node, ast.AsyncFunctionDef)
                for callee in callees
            ):
                yield (
                    info.ctx.path,
                    value.lineno,
                    value.col_offset,
                    f"coroutine `{_short(site.targets[0])}` called in "
                    f"`{_short(qualname)}` but never awaited: the "
                    "coroutine object is discarded and its body never "
                    "runs — await it or schedule it with create_task()",
                )


def _layer(module: str) -> str | None:
    parts = module.split(".")
    return parts[1] if len(parts) >= 2 else None


def _short(qualname: str) -> str:
    parts = qualname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 2 else qualname
