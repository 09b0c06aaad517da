"""Import-graph builder, layering contract (rule P1), and exporters.

The contract is the architecture in one table: ``obs`` is the shared
observability substrate and sits below everything — stdlib only, not
even numpy, so any layer may instrument itself without new coupling;
``core`` is the paper's math and may depend on nothing but the numeric
stack (plus ``obs`` and the ``trust`` leaf, whose log-prior feeds the
estimators); ``detect`` and ``trust`` are embeddable leaves on a
stdlib+numpy+obs budget; ``sim`` and ``analysis`` build on ``core``;
``cloudsim`` (the DES) may use ``core`` and ``sim``; ``service`` (the
live socket-level defense) builds on ``core`` for planning/estimation,
``sim`` for the shared QoS schema, and ``analysis`` for convergence
oracles, but never on the simulators — live and simulated runs must
stay independently runnable; ``experiments`` is the CLI surface and may
use anything; ``devtools`` analyzes the tree and must import none of it
(so linting can never execute library side effects).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..registry import project_rule
from .context import ProgramContext

__all__ = [
    "LAYER_CONTRACT",
    "CORE_EXTERNAL_ALLOWED",
    "DETECT_EXTERNAL_ALLOWED",
    "OBS_EXTERNAL_ALLOWED",
    "TRUST_EXTERNAL_ALLOWED",
    "ImportEdge",
    "import_edges",
    "render_dot",
    "render_graph_json",
]

#: layer -> other layers it may import from (same layer always allowed;
#: top-level modules such as ``repro/__init__.py`` are exempt).
LAYER_CONTRACT: dict[str, frozenset[str]] = {
    "obs": frozenset(),
    "detect": frozenset({"obs"}),
    "trust": frozenset({"obs"}),
    "core": frozenset({"obs", "trust"}),
    "sim": frozenset({"core", "obs"}),
    "analysis": frozenset({"core", "obs"}),
    "cloudsim": frozenset({"core", "sim", "detect", "trust", "obs"}),
    "service": frozenset(
        {"core", "sim", "analysis", "detect", "trust", "obs"}
    ),
    "experiments": frozenset(
        {"core", "sim", "analysis", "cloudsim", "service",
         "devtools", "detect", "trust", "obs"}
    ),
    "devtools": frozenset(),
}

#: the only non-stdlib packages ``core`` may touch: the paper's math is
#: numpy + stdlib ``math``, nothing heavier.
CORE_EXTERNAL_ALLOWED = frozenset({"numpy"})

#: ``detect`` (streaming sketches) is a leaf like core: stdlib + numpy
#: + obs, so both the live service and the simulators can embed it.
DETECT_EXTERNAL_ALLOWED = frozenset({"numpy"})

#: ``trust`` (per-client trust profiles + state backends) is a leaf on
#: the same budget: stdlib + numpy + obs, embeddable from the live
#: service, the simulators, and core's estimator prior alike.
TRUST_EXTERNAL_ALLOWED = frozenset({"numpy"})

#: ``obs`` must stay importable from *any* layer, including core, so it
#: may not pull in anything beyond the stdlib — not even numpy.
OBS_EXTERNAL_ALLOWED: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ImportEdge:
    """One resolved module-to-module import inside the package."""

    src: str  # importing module, e.g. "repro.cloudsim.coordinator"
    dst: str  # imported module, e.g. "repro.core.greedy"
    line: int
    col: int
    typing_only: bool

    @property
    def src_layer(self) -> str | None:
        return _layer_of(self.src)

    @property
    def dst_layer(self) -> str | None:
        return _layer_of(self.dst)


def _layer_of(name: str) -> str | None:
    parts = name.split(".")
    return parts[1] if len(parts) >= 2 else None


def import_edges(program: ProgramContext) -> list[ImportEdge]:
    """Every internal import edge, deduplicated and sorted.

    ``from repro.core import greedy_sizes`` is resolved to the submodule
    ``repro.core.greedy_sizes`` when one exists, else to the package —
    the edge should point at the real provider, not the facade, so the
    graph shows true coupling.
    """
    edges: set[ImportEdge] = set()
    for info in program.project_modules():
        for record in info.imports:
            if not program.is_internal(record.target):
                continue
            if record.names:
                for name in record.names:
                    submodule = f"{record.target}.{name}"
                    dst = (
                        submodule
                        if program.resolve_internal(submodule) is not None
                        else record.target
                    )
                    edges.add(
                        ImportEdge(
                            src=info.name,
                            dst=dst,
                            line=record.line,
                            col=record.col,
                            typing_only=record.typing_only,
                        )
                    )
            else:
                edges.add(
                    ImportEdge(
                        src=info.name,
                        dst=record.target,
                        line=record.line,
                        col=record.col,
                        typing_only=record.typing_only,
                    )
                )
    return sorted(edges, key=lambda e: (e.src, e.dst, e.line))


@project_rule(
    "P1",
    "import-layering",
    "The package layering contract (obs -> stdlib only; detect/trust "
    "-> stdlib/numpy/obs; core -> stdlib/numpy/obs/trust; sim/analysis "
    "-> core; cloudsim -> core+sim+detect+trust; "
    "service -> core+sim+analysis+detect+trust; "
    "experiments -> anything; "
    "devtools isolated; every non-devtools layer may use obs) "
    "keeps the paper's math independently testable and the linter "
    "side-effect free; an import against the grain couples layers the "
    "architecture keeps apart.",
)
def check_import_layering(
    program: ProgramContext,
) -> Iterator[tuple[Path, int, int, str]]:
    # Internal edges against the layer contract.
    for edge in import_edges(program):
        if edge.typing_only:
            continue
        src_layer, dst_layer = edge.src_layer, edge.dst_layer
        if src_layer is None or dst_layer is None:
            continue  # top-level facade modules are exempt
        if src_layer == dst_layer:
            continue
        allowed = LAYER_CONTRACT.get(src_layer)
        if allowed is not None and dst_layer not in allowed:
            info = program.modules[edge.src]
            yield (
                info.ctx.path,
                edge.line,
                edge.col,
                f"layering violation: `{src_layer}` may not import from "
                f"`{dst_layer}` (edge {edge.src} -> {edge.dst}); allowed: "
                f"{_describe_allowed(src_layer)}",
            )
    # External dependency budgets: core gets stdlib + numpy; obs is
    # stdlib-only so every layer (core included) can depend on it.
    budgets = {
        "core": (
            CORE_EXTERNAL_ALLOWED,
            "core/ may only depend on the stdlib and numpy, not "
            "`{top}` — keep the algorithmic layer lightweight",
        ),
        "detect": (
            DETECT_EXTERNAL_ALLOWED,
            "detect/ may only depend on the stdlib and numpy, not "
            "`{top}` — the sketches must embed anywhere",
        ),
        "trust": (
            TRUST_EXTERNAL_ALLOWED,
            "trust/ may only depend on the stdlib and numpy, not "
            "`{top}` — the trust ladder must embed anywhere",
        ),
        "obs": (
            OBS_EXTERNAL_ALLOWED,
            "obs/ must stay stdlib-only (it sits below every other "
            "layer), not `{top}`",
        ),
    }
    for info in program.project_modules():
        budget = budgets.get(info.layer or "")
        if budget is None:
            continue
        allowed_external, message = budget
        for record in info.imports:
            if record.typing_only or program.is_internal(record.target):
                continue
            top = record.target.split(".", 1)[0]
            if program.is_stdlib(top) or top in allowed_external:
                continue
            yield (
                info.ctx.path,
                record.line,
                record.col,
                message.format(top=top),
            )


def _describe_allowed(layer: str) -> str:
    allowed = LAYER_CONTRACT.get(layer, frozenset())
    if not allowed:
        return "nothing outside its own layer"
    return ", ".join(sorted(allowed))


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def render_dot(program: ProgramContext) -> str:
    """Graphviz dot of the module import graph, clustered by layer."""
    edges = [e for e in import_edges(program) if not e.typing_only]
    by_layer: dict[str, list[str]] = {}
    for info in program.project_modules():
        layer = info.layer or "<top>"
        by_layer.setdefault(layer, []).append(info.name)
    lines = [
        "digraph imports {",
        "  rankdir=LR;",
        '  node [shape=box, fontsize=10, fontname="Helvetica"];',
    ]
    for index, layer in enumerate(sorted(by_layer)):
        lines.append(f"  subgraph cluster_{index} {{")
        lines.append(f'    label="{layer}";')
        for name in sorted(by_layer[layer]):
            short = name.split(".", 1)[-1] if "." in name else name
            lines.append(f'    "{name}" [label="{short}"];')
        lines.append("  }")
    for edge in edges:
        lines.append(f'  "{edge.src}" -> "{edge.dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_graph_json(program: ProgramContext) -> dict:
    """JSON-serializable import graph (modules, edges, layer summary)."""
    edges = import_edges(program)
    layer_edges: dict[str, int] = {}
    for edge in edges:
        if edge.typing_only:
            continue
        src, dst = edge.src_layer or "<top>", edge.dst_layer or "<top>"
        if src != dst:
            key = f"{src} -> {dst}"
            layer_edges[key] = layer_edges.get(key, 0) + 1
    return {
        "modules": [
            {"name": info.name, "layer": info.layer}
            for info in program.project_modules()
        ],
        "edges": [
            {
                "src": edge.src,
                "dst": edge.dst,
                "line": edge.line,
                "typing_only": edge.typing_only,
            }
            for edge in edges
        ],
        "layer_edge_counts": dict(sorted(layer_edges.items())),
        "contract": {
            layer: sorted(allowed)
            for layer, allowed in sorted(LAYER_CONTRACT.items())
        },
    }
