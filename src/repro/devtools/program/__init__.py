"""repro.devtools.program — whole-program analysis for reprolint.

Per-file rules (R1-R8) police invariants visible inside one module, but
the reproducibility contract the paper's math depends on is
*cross-module*: the seeded ``numpy.random.Generator`` must flow from the
scenario configuration into every stochastic component, event order in
the DES must never depend on ``set``/``dict`` hash order, and package
layering must keep the algorithmic ``core`` free of simulator
dependencies.  This subpackage builds one :class:`ProgramContext` over
the whole tree — module index, import graph, approximate call graph —
and runs the thirteen project rules (P1-P14; P8 is retired and its
number is not reused) on it:

- **P1** ``import-layering`` — declared package layering contract over
  the import graph (``core`` -> stdlib/numpy only; ``sim``/``analysis``
  -> ``core``; ``cloudsim`` -> ``core``+``sim``; ``experiments`` ->
  anything; ``devtools`` isolated), with dot/JSON graph export.
- **P2** ``rng-provenance`` — interprocedural tracking of Generator
  construction: flags call paths through which ``sim``/``cloudsim`` can
  reach an entropy-seeded ``default_rng()`` (directly, via a
  seed-forwarding helper called without a seed, or via a dataclass
  ``default_factory``).
- **P3** ``unordered-iteration`` — iteration over ``set``s or unsorted
  ``dict`` views inside functions from which DES ``schedule()`` calls,
  heap pushes, or client admissions are reachable.
- **P4** ``no-wall-clock`` — wall-clock reads (``time.time``,
  ``datetime.now``, ...) inside the simulator layers.
- **P5** ``dead-export`` — ``__init__``/``__all__`` exports that no
  other module (including tests/examples) actually uses, plus exports
  that do not resolve at all.

The concurrency era (PRs 3-5) added an asyncio service and metric hot
paths; the second wave of passes polices those surfaces via the shared
:mod:`asyncflow` indices (task roots, forward reachability, attribute
writes):

- **P6** ``async-blocking`` — blocking calls (``time.sleep``, sync
  I/O, ``subprocess``, CPU-heavy ``repro.core`` entry points) reachable
  inside service-layer ``async def`` bodies, with the
  ``# event-loop-safe: <reason>`` justification marker.
- **P7** ``orphan-coroutine`` — coroutine calls never awaited and
  ``create_task()`` handles neither retained nor given a done-callback.
- **P9** ``shared-state-race`` — container attributes written from
  more than one distinct async task root without a lock or documented
  single-writer ownership.
- **P10** ``hot-path-discipline`` — per-request handler closures must
  use pre-bound metric handles and O(1) lookups (no get-or-create
  registry calls, no O(N) container scans per request).

The numeric era adds a value-domain dataflow index (:mod:`numflow`:
log-prob / linear-prob / count / float lattice inferred from
provenance, with interprocedural return summaries) and four passes over
it:

- **P11** ``log-domain-confusion`` — log-probabilities used on the
  linear scale: mixed arithmetic, ``sum()`` over logs, log-vs-linear
  comparisons, unclamped ``exp()`` of full-magnitude logs.
- **P12** ``probability-range-escape`` — exp-derived probabilities
  returned from ``core``/``sim``/``analysis`` without a clip or a
  ``# domain: linear <reason>`` validated-boundary annotation.
- **P13** ``numeric-stability`` — shapes with strictly better stable
  forms: ``log(1-x)`` -> ``log1p``, ``log(sum(exp))`` -> ``logsumexp``,
  lgamma differences outside the combinatorics module, unguarded
  division by possibly-zero counts.
- **P14** ``vectorization-readiness`` — scalar accumulation loops over
  float/probability arrays in ``core/`` (none remain; a new one is a
  finding).

See ``docs/static-analysis.md`` for the full catalogue and
``docs/import-graph.md`` for the rendered layering graph.
"""

from __future__ import annotations

from .context import ModuleInfo, ProgramContext
from .graph import LAYER_CONTRACT, ImportEdge, render_dot, render_graph_json

# Importing the pass modules registers every project rule.
from . import api as _api  # noqa: F401
from . import concurrency as _concurrency  # noqa: F401
from . import determinism as _determinism  # noqa: F401
from . import graph as _graph  # noqa: F401
from . import hotpath as _hotpath  # noqa: F401
from . import numeric as _numeric  # noqa: F401
from . import races as _races  # noqa: F401
from . import rng as _rng  # noqa: F401
from . import vectorize as _vectorize  # noqa: F401

__all__ = [
    "ImportEdge",
    "LAYER_CONTRACT",
    "ModuleInfo",
    "ProgramContext",
    "render_dot",
    "render_graph_json",
]
