"""Rule P9: shared mutable state needs a lock or a single writer.

The live service runs many concurrent tasks on one event loop: the
detection sweep, a handler task per control-channel connection, the
protocol callbacks of every replica connection, the load generator's
per-client coroutines.  asyncio interleaves them at every ``await`` —
so a container attribute (assignment map, whitelist, connection set)
written from **two or more distinct task roots** can interleave
read-modify-write sequences and corrupt the defense state the shuffle
loop plans from.  The failure is probabilistic and load-dependent:
invisible in tests, live at scale — exactly what the 100× scaling item
must not re-introduce.

The pass combines the asyncflow indices: task roots × forward
reachability × attribute-write sites, restricted to *container-typed*
attributes (scalar flag/counter writes are atomic enough under the
single-threaded loop; containers are where multi-step mutations live).
A write under ``[async] with <...lock...>:`` counts as guarded; a
genuinely single-writer design is documented in place with
``# reprolint: disable=P9`` plus a justification.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .asyncflow import (
    collect_attr_writes,
    container_attr_kinds,
    find_task_roots,
    reachable_from,
)
from .callgraph import get_call_graph, short_name
from .context import ProgramContext

__all__ = []

#: layers whose instance state the race pass polices.
_RACE_LAYERS = frozenset({"service"})


@project_rule(
    "P9",
    "shared-state-race",
    "A container attribute written from two or more distinct async "
    "task roots can interleave read-modify-write sequences at any "
    "await and corrupt defense state (assignments, whitelists, "
    "connection sets) — guard the writes with one lock, or document "
    "single-writer ownership with `# reprolint: disable=P9` and a "
    "justification.",
)
def check_shared_state_races(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    graph = get_call_graph(program)
    roots = find_task_roots(graph)
    root_names = sorted({root.qualname for root in roots})
    if len(root_names) < 2:
        return
    # A spawner's closure ends where a spawned task's own root begins:
    # otherwise every write inside the detect loop would also be
    # attributed to the main coroutine that created the loop's task.
    all_roots = frozenset(root_names)
    closures = {
        name: reachable_from(
            graph, {name}, stop=frozenset(all_roots - {name})
        )
        for name in root_names
    }
    kinds_by_module: dict[str, dict[str, str]] = {}
    grouped: dict[tuple[str, str, str], list] = {}
    for write in collect_attr_writes(graph):
        info = program.modules.get(write.module)
        if (
            info is None
            or info.layer not in _RACE_LAYERS
            or info.ctx.is_test_file
        ):
            continue
        if write.module not in kinds_by_module:
            kinds_by_module[write.module] = container_attr_kinds(
                info.ctx.tree
            )
        if write.attr not in kinds_by_module[write.module]:
            continue
        grouped.setdefault(
            (write.module, write.cls, write.attr), []
        ).append(write)
    for (module, cls, attr), writes in sorted(grouped.items()):
        writers = {write.qualname for write in writes}
        hit_roots = sorted(
            name
            for name in root_names
            if writers & closures[name]
        )
        if len(hit_roots) < 2:
            continue
        if all(write.locked for write in writes):
            continue
        site = min(
            (w for w in writes if not w.locked),
            key=lambda w: (w.line, w.col),
        )
        info = program.modules[module]
        kind = kinds_by_module[module][attr]
        names = ", ".join(f"`{short_name(name)}`" for name in hit_roots)
        yield (
            info.ctx.path,
            site.line,
            site.col,
            f"{kind} attribute `{cls}.{attr}` is written from "
            f"{len(hit_roots)} distinct task roots ({names}) without a "
            "lock: interleaved read-modify-write at an await corrupts "
            "shared defense state — hold one asyncio.Lock around every "
            "write, or document single-writer ownership with "
            "`# reprolint: disable=P9` and why it is safe",
        )

