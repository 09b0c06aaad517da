"""Rule P6: event-loop discipline for the live service.

The live defense loop (PR 4) shares one asyncio event loop between the
coordinator's detection sweeps, every replica's request handlers, and
the control channel.  Anything that blocks that loop — ``time.sleep``,
synchronous socket/file I/O, ``subprocess``, or a CPU-heavy
``repro.core`` planner/estimator — freezes *all* of them at once:
saturation windows go stale, detection lags, and the shuffle loop the
paper's convergence argument depends on stops keeping up with the
attack.  The pass computes a "can block" summary for every synchronous
function (direct offense, or a call chain reaching one) and flags
non-awaited calls inside ``async def`` bodies in the service layer that
reach a blocking summary.  Genuinely cheap calls are accepted with an
``# event-loop-safe: <reason>`` marker — the reason is mandatory.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .callgraph import CallGraph, CallSite, get_call_graph, short_name
from .context import ProgramContext

__all__ = ["blocking_summaries"]

#: layers whose async functions the blocking pass polices (the event
#: loop lives in the service layer; sim is synchronous).
_ASYNC_LAYERS = frozenset({"service"})

#: known CPU-heavy ``repro.core`` entry points: the ``core.api``
#: ``estimate`` and ``plan`` calls, whole-grid precomputation, and the
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
def _direct_offense(
    call: ast.Call, imports: dict[str, tuple[str, str | None]]
) -> str | None:
    """What blocks in ``call`` itself, read through the module's
    import map (:attr:`CallGraph.imports`)."""
    func = call.func
    if isinstance(func, ast.Name):
        if imports.get(func.id) == ("time", "sleep"):
            return "blocking `time.sleep()`"
        if func.id == "open":
            return "synchronous file I/O (`open()`)"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr in _FILE_IO_ATTRS:
        return f"synchronous file I/O (`.{func.attr}()`)"
    if isinstance(func.value, ast.Name):
        binding = imports.get(func.value.id)
        module = (
            binding[0]
            if binding is not None and binding[1] is None
            else func.value.id
        )
        if module == "time" and func.attr == "sleep":
            return "blocking `time.sleep()`"
        if module == "subprocess":
            return f"blocking `subprocess.{func.attr}()`"
        if module == "socket" and func.attr in _SOCKET_BLOCKING:
            return f"blocking `socket.{func.attr}()`"
        if module == "os" and func.attr == "system":
            return "blocking `os.system()`"
    return None


def _site_offense(
    site: CallSite, imports: dict[str, tuple[str, str | None]]
) -> str | None:
    """A direct offense at ``site``, or a call into a CPU-heavy
    ``repro.core`` entry point."""
    desc = _direct_offense(site.call, imports)
    if desc is not None:
        return desc
    for target in site.targets:
        parts = target.split(".")
        if (
            len(parts) >= 2
            and parts[1] == "core"
            and parts[-1] in _CPU_HEAVY_CORE
        ):
            return f"CPU-heavy core call `{short_name(target)}`"
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


def blocking_summaries(graph: CallGraph) -> dict[str, str]:
    """qualname -> reason, for every *sync* function that can block.

    Seeded with direct offenses (sleep/subprocess/file I/O/heavy core
    calls), then propagated caller-ward through synchronous callers
    only: an async callee runs on its own turn of the loop and is
    checked at its own body.  Propagation follows only
    :func:`_confident_sites` edges.
    """
    blocking: dict[str, str] = {}
    rev: dict[str, set[str]] = {}
    for qualname, fn in graph.functions.items():
        if isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        imports = graph.imports[fn.module]
        for site in graph.calls_in(qualname):
            desc = _site_offense(site, imports)
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
                f"{blocking[current]} via `{short_name(current)}`"
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
    graph = get_call_graph(program)
    blocking = blocking_summaries(graph)
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        if not isinstance(fn.node, ast.AsyncFunctionDef):
            continue
        info = program.modules.get(fn.module)
        if (
            info is None
            or info.layer not in _ASYNC_LAYERS
            or info.ctx.is_test_file
        ):
            continue
        imports = graph.imports[fn.module]
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
            desc = _site_offense(site, imports)
            if desc is None and id(site) in confident:
                desc = _blocking_callee(graph, site, blocking)
            if desc is not None:
                yield (
                    info.ctx.path,
                    call.lineno,
                    call.col_offset,
                    f"{desc} on the event loop in async "
                    f"`{short_name(qualname)}`: stalls every task sharing "
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
                f"call into `{short_name(target)}`, which reaches "
                f"{blocking[target]},"
            )
    return None
