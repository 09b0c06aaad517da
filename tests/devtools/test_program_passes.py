"""Unit tests for the whole-program passes (the P-series).

Each test materialises a minimal ``repro``-shaped package under
``tmp_path`` and runs :func:`repro.devtools.lint` with
``select`` isolating one pass, asserting the pass fires on the
violating shape and stays quiet on the idiomatic alternative.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.devtools import lint
from repro.devtools.program import ProgramContext, render_dot, render_graph_json
from repro.devtools.program.asyncflow import find_task_roots, reachable_from
from repro.devtools.program.callgraph import build_call_graph
from repro.devtools.runner import default_consumer_roots


def build_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (relative paths -> source) and return the root."""
    for rel, code in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code), encoding="utf-8")
    return tmp_path / "repro"


def hits(tree: Path, select: list[str]) -> list[str]:
    report = lint([tree], select=select)
    return [
        f"{v.rule_id} {Path(v.path).name}:{v.line}"
        for v in report.violations
    ]


PKG = {
    "repro/__init__.py": "",
    "repro/core/__init__.py": "",
    "repro/sim/__init__.py": "",
    "repro/cloudsim/__init__.py": "",
    "repro/experiments/__init__.py": "",
}


class TestP1ImportLayering:
    def test_core_importing_simulator_violates_contract(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/engine.py": "class Simulator:\n    pass\n",
                "repro/core/alg.py": (
                    "from repro.cloudsim.engine import Simulator\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 alg.py:1"]

    def test_core_external_budget_is_stdlib_plus_numpy(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/alg.py": (
                    "import math\nimport numpy as np\nimport scipy\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 alg.py:3"]

    def test_allowed_directions_are_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/alg.py": "def f() -> int:\n    return 1\n",
                "repro/sim/model.py": "from repro.core.alg import f\n",
                "repro/cloudsim/comp.py": (
                    "from repro.core.alg import f\n"
                    "from repro.sim.model import f as g\n"
                ),
                "repro/experiments/fig.py": (
                    "from repro.cloudsim.comp import f\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []

    def test_typing_only_imports_are_exempt(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/engine.py": "class Simulator:\n    pass\n",
                "repro/core/alg.py": (
                    "from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n"
                    "    from repro.cloudsim.engine import Simulator\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []

    def test_sim_reaching_into_cloudsim_violates(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/engine.py": "class Simulator:\n    pass\n",
                "repro/sim/model.py": (
                    "from repro.cloudsim.engine import Simulator\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 model.py:1"]

    def test_every_layer_may_import_obs(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/obs/__init__.py": "",
                "repro/obs/metrics.py": (
                    "class MetricsRegistry:\n    pass\n"
                ),
                "repro/core/alg.py": (
                    "from repro.obs.metrics import MetricsRegistry\n"
                ),
                "repro/sim/model.py": (
                    "from repro.obs.metrics import MetricsRegistry\n"
                ),
                "repro/cloudsim/comp.py": (
                    "from repro.obs.metrics import MetricsRegistry\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []

    def test_obs_importing_other_layers_violates(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/obs/__init__.py": "",
                "repro/core/alg.py": "def f() -> int:\n    return 1\n",
                "repro/obs/metrics.py": "from repro.core.alg import f\n",
            },
        )
        assert hits(tree, ["P1"]) == ["P1 metrics.py:1"]

    def test_obs_external_budget_is_stdlib_only(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/obs/__init__.py": "",
                "repro/obs/metrics.py": (
                    "import json\nimport math\nimport numpy\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 metrics.py:3"]

    def test_service_and_cloudsim_may_import_detect(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/detect/__init__.py": "",
                "repro/detect/sketch.py": (
                    "class CountMinSketch:\n    pass\n"
                ),
                "repro/service/__init__.py": "",
                "repro/service/tokens.py": (
                    "from repro.detect.sketch import CountMinSketch\n"
                ),
                "repro/cloudsim/replica.py": (
                    "from repro.detect.sketch import CountMinSketch\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []

    def test_detect_importing_service_violates(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/detect/__init__.py": "",
                "repro/service/__init__.py": "",
                "repro/service/tokens.py": (
                    "class TokenBucket:\n    pass\n"
                ),
                "repro/detect/sketch.py": (
                    "from repro.service.tokens import TokenBucket\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 sketch.py:1"]

    def test_detect_external_budget_is_stdlib_plus_numpy(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/detect/__init__.py": "",
                "repro/detect/sketch.py": (
                    "import hashlib\nimport numpy as np\nimport scipy\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 sketch.py:3"]

    def test_detect_may_import_obs(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/obs/__init__.py": "",
                "repro/obs/events.py": "class Event:\n    pass\n",
                "repro/detect/__init__.py": "",
                "repro/detect/report.py": (
                    "from repro.obs.events import Event\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []


class TestP1TrustLayer:
    """The trust layer is a leaf beside detect: obs-only imports in,
    core/cloudsim/service/experiments allowed to depend on it."""

    TRUST_PKG = PKG | {
        "repro/obs/__init__.py": "",
        "repro/obs/events.py": "class Event:\n    pass\n",
        "repro/trust/__init__.py": "",
    }

    def test_trust_may_import_obs_only(self, tmp_path):
        tree = build_tree(
            tmp_path,
            self.TRUST_PKG
            | {
                "repro/trust/manager.py": (
                    "from repro.obs.events import Event\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []

    def test_trust_importing_service_violates(self, tmp_path):
        tree = build_tree(
            tmp_path,
            self.TRUST_PKG
            | {
                "repro/service/__init__.py": "",
                "repro/service/tokens.py": (
                    "class TokenBucket:\n    pass\n"
                ),
                "repro/trust/manager.py": (
                    "from repro.service.tokens import TokenBucket\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 manager.py:1"]

    def test_consumers_may_import_trust(self, tmp_path):
        tree = build_tree(
            tmp_path,
            self.TRUST_PKG
            | {
                "repro/service/__init__.py": "",
                "repro/trust/prior.py": (
                    "def bot_count_log_prior(n):\n    return n\n"
                ),
                # core's dependency is the prior bridge to its
                # estimators; cloudsim/service embed the whole ladder.
                "repro/core/estimator.py": (
                    "from repro.trust.prior import bot_count_log_prior\n"
                ),
                "repro/cloudsim/replica.py": (
                    "from repro.trust.prior import bot_count_log_prior\n"
                ),
                "repro/service/backend.py": (
                    "from repro.trust.prior import bot_count_log_prior\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []

    def test_trust_external_budget_is_stdlib_plus_numpy(self, tmp_path):
        tree = build_tree(
            tmp_path,
            self.TRUST_PKG
            | {
                "repro/trust/profile.py": (
                    "import hashlib\nimport numpy as np\nimport scipy\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == ["P1 profile.py:3"]


class TestP2RngProvenance:
    def test_seed_forwarding_helper_called_without_seed(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/rngutil.py": """\
                import numpy as np

                def make_rng(seed=None):
                    return np.random.default_rng(seed)
                """,
                "repro/cloudsim/comp.py": """\
                from repro.core.rngutil import make_rng

                def build():
                    return make_rng()

                def seeded(seed: int):
                    return make_rng(seed)
                """,
            },
        )
        found = hits(tree, ["P2"])
        assert found == ["P2 comp.py:4"], found

    def test_leak_laundered_through_two_layers(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/rngutil.py": """\
                import numpy as np

                def make_rng(seed=None):
                    return np.random.default_rng(seed)

                def make_component_rng(seed=None):
                    return make_rng(seed)
                """,
                "repro/sim/model.py": """\
                from repro.core.rngutil import make_component_rng

                def scenario():
                    return make_component_rng()
                """,
            },
        )
        found = hits(tree, ["P2"])
        assert found == ["P2 model.py:4"], found

    def test_dataclass_default_factory_reference(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/state.py": """\
                from dataclasses import dataclass, field
                from numpy.random import default_rng

                @dataclass
                class State:
                    rng: object = field(default_factory=default_rng)
                """,
            },
        )
        found = hits(tree, ["P2"])
        assert len(found) == 1 and found[0].startswith("P2 state.py:6")

    def test_trust_layer_is_reproducibility_critical(self, tmp_path):
        """The trust layer's heal-jitter draws join P2's report set:
        an unseeded construction path entering via ``trust`` is
        flagged, while the seeded SeedSequence idiom stays clean."""
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/trust/__init__.py": "",
                "repro/trust/profile.py": """\
                import numpy as np

                def make_rng(seed=None):
                    return np.random.default_rng(seed)

                def jitter():
                    return make_rng().uniform(-1.0, 1.0)

                def seeded_jitter(seed: int, digest: int):
                    seq = np.random.SeedSequence([seed, digest])
                    return np.random.default_rng(seq).uniform(-1.0, 1.0)
                """,
            },
        )
        found = hits(tree, ["P2"])
        assert found == ["P2 profile.py:7"], found

    def test_literal_no_arg_call_is_left_to_r1(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": """\
                import numpy as np

                def build():
                    return np.random.default_rng()
                """,
            },
        )
        # P2 stays silent on the literal site (R1's report) ...
        assert hits(tree, ["P2"]) == []
        # ... and R1 does flag it.
        assert hits(tree, ["R1"]) == ["R1 comp.py:4"]

    def test_explicitly_seeded_paths_are_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/rngutil.py": """\
                import numpy as np

                def make_rng(seed=None):
                    return np.random.default_rng(seed)
                """,
                "repro/cloudsim/comp.py": """\
                from repro.core.rngutil import make_rng

                def build(seed: int):
                    return make_rng(seed)

                def scenario():
                    return build(1234)
                """,
            },
        )
        assert hits(tree, ["P2"]) == []


SCHED_PRELUDE = """\
class Comp:
    def __init__(self, sim):
        self.sim = sim
        self.peers: set[str] = set()
        self.table: dict[str, int] = {}

"""


class TestP3UnorderedIteration:
    def test_set_iteration_feeding_schedule(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": SCHED_PRELUDE
                + """\
    def kick(self):
        for peer in self.peers:
            self.sim.schedule(1.0, peer)
""",
            },
        )
        found = hits(tree, ["P3"])
        assert found == ["P3 comp.py:8"], found

    def test_dict_view_iteration_feeding_schedule(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": SCHED_PRELUDE
                + """\
    def kick(self):
        for name, delay in self.table.items():
            self.sim.schedule(delay, name)
""",
            },
        )
        found = hits(tree, ["P3"])
        assert found == ["P3 comp.py:8"], found

    def test_unannotated_set_attribute_feeding_schedule(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": """\
                class Comp:
                    def __init__(self, sim):
                        self.sim = sim
                        self.peers = set()

                    def kick(self):
                        for peer in self.peers:
                            self.sim.schedule(1.0, peer)
                """,
            },
        )
        found = hits(tree, ["P3"])
        assert found == ["P3 comp.py:7"], found

    def test_sorted_iteration_is_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": SCHED_PRELUDE
                + """\
    def kick(self):
        for peer in sorted(self.peers):
            self.sim.schedule(1.0, peer)
        for name, delay in sorted(self.table.items()):
            self.sim.schedule(delay, name)
""",
            },
        )
        assert hits(tree, ["P3"]) == []

    def test_set_iteration_without_event_effect_is_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": SCHED_PRELUDE
                + """\
    def census(self):
        return sum(1 for peer in self.peers if peer)
""",
            },
        )
        assert hits(tree, ["P3"]) == []

    def test_rng_draw_in_loop_is_flagged_even_without_schedule(
        self, tmp_path
    ):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/sim/model.py": """\
                def draw(rng, pool: set[str]):
                    out = []
                    for name in pool:
                        out.append((name, rng.integers(10)))
                    return out
                """,
            },
        )
        found = hits(tree, ["P3"])
        assert found == ["P3 model.py:3"], found

    def test_layer_scoping_ignores_core_and_experiments(self, tmp_path):
        code = SCHED_PRELUDE + """\
    def kick(self):
        for peer in self.peers:
            self.sim.schedule(1.0, peer)
"""
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/alg.py": code,
                "repro/experiments/fig.py": code,
            },
        )
        assert hits(tree, ["P3"]) == []


class TestP5DeadExports:
    def test_broken_and_dead_exports(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/sim/__init__.py": """\
                from .model import used, unused

                __all__ = ["used", "unused", "ghost"]
                """,
                "repro/sim/model.py": (
                    "def used():\n    pass\n\ndef unused():\n    pass\n"
                ),
                "repro/experiments/fig.py": "from repro.sim import used\n",
            },
        )
        found = hits(tree, ["P5"])
        assert "P5 __init__.py:3" in found  # ghost and unused both line 3
        report = lint([tree], select=["P5"])
        messages = sorted(v.message for v in report.violations)
        assert any("ghost" in m and "broken export" in m for m in messages)
        assert any("unused" in m and "no cross-module use" in m
                   for m in messages)
        assert not any("`used`" in m for m in messages)

    def test_dotted_from_import_counts_as_facade_use(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/sim/__init__.py": (
                    "from . import model\n\n__all__ = [\"model\"]\n"
                ),
                "repro/sim/model.py": "def run():\n    pass\n",
                "repro/experiments/fig.py": (
                    "from repro.sim.model import run\n"
                ),
            },
        )
        assert hits(tree, ["P5"]) == []


class TestProjectSuppressions:
    def test_inline_disable_silences_one_site(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": SCHED_PRELUDE
                + """\
    def kick(self):
        for peer in self.peers:  # reprolint: disable=P3
            self.sim.schedule(1.0, peer)

    def kick2(self):
        for peer in self.peers:
            self.sim.schedule(1.0, peer)
""",
            },
        )
        found = hits(tree, ["P3"])
        assert found == ["P3 comp.py:12"], found

    def test_file_disable_silences_whole_module(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/cloudsim/comp.py": (
                    "# reprolint: disable-file=P3\n" + SCHED_PRELUDE
                )
                + """\
    def kick(self):
        for peer in self.peers:
            self.sim.schedule(1.0, peer)
""",
            },
        )
        assert hits(tree, ["P3"]) == []

    def test_p1_suppression_on_import_line(self, tmp_path):
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/alg.py": (
                    "import scipy  # reprolint: disable=P1\n"
                ),
            },
        )
        assert hits(tree, ["P1"]) == []


SERVICE_PKG = PKG | {
    "repro/service/__init__.py": "",
    "repro/obs/__init__.py": "",
}

#: the one planning seam, shaped like ``repro.core.api``
CORE_API = {"repro/core/api.py": "def plan(request):\n    return request\n"}


class TestP6AsyncBlocking:
    def test_time_sleep_in_async_service_fn(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/worker.py": """\
                import asyncio
                import time

                async def tick():
                    time.sleep(0.1)
                    await asyncio.sleep(0.1)
                """,
            },
        )
        found = hits(tree, ["P6"])
        assert found == ["P6 worker.py:5"], found

    def test_transitive_blocking_through_sync_helper(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/worker.py": """\
                import time

                def pause():
                    time.sleep(0.1)

                async def tick():
                    pause()
                """,
            },
        )
        found = hits(tree, ["P6"])
        assert found == ["P6 worker.py:7"], found

    def test_cpu_heavy_core_call_is_flagged(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | CORE_API
            | {
                "repro/service/worker.py": """\
                from repro.core.api import plan as core_plan

                async def tick():
                    core_plan(3)
                """,
            },
        )
        found = hits(tree, ["P6"])
        assert found == ["P6 worker.py:4"], found

    def test_event_loop_safe_marker_suppresses_with_reason(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | CORE_API
            | {
                "repro/service/worker.py": """\
                from repro.core.api import plan as core_plan

                async def tick():
                    core_plan(3)  # event-loop-safe: tiny grid, sub-ms
                """,
            },
        )
        assert hits(tree, ["P6"]) == []

    def test_bare_marker_without_reason_does_not_suppress(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | CORE_API
            | {
                "repro/service/worker.py": """\
                from repro.core.api import plan as core_plan

                async def tick():
                    core_plan(3)  # event-loop-safe:
                """,
            },
        )
        found = hits(tree, ["P6"])
        assert found == ["P6 worker.py:4"], found

    def test_standalone_marker_covers_next_line(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | CORE_API
            | {
                "repro/service/worker.py": """\
                from repro.core.api import plan as core_plan

                async def tick():
                    # event-loop-safe: tiny grid, sub-ms
                    core_plan(3)
                """,
            },
        )
        assert hits(tree, ["P6"]) == []

    def test_os_path_import_keeps_os_system_visible(self, tmp_path):
        # ``import os.path`` binds ``os`` to the ``os`` package, not to
        # ``os.path``: the blocking ``os.system`` call stays in view.
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/a.py": """\
                import os
                import os.path

                async def h():
                    os.system("x")
                """,
                "repro/service/b.py": """\
                import os

                async def h():
                    os.system("x")
                """,
            },
        )
        found = hits(tree, ["P6"])
        assert found == ["P6 a.py:5", "P6 b.py:4"], found

    def test_async_outside_service_layer_is_out_of_scope(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/sim/worker.py": """\
                import time

                async def tick():
                    time.sleep(0.1)
                """,
            },
        )
        assert hits(tree, ["P6"]) == []


RACE_HEADER = """\
import asyncio

class Service:
    def __init__(self):
        self.table: dict[str, str] = {}
        self._lock = asyncio.Lock()

"""

RACE_MAIN = """\
    async def main(self):
        t1 = asyncio.create_task(self.writer_a())
        t2 = asyncio.create_task(self.writer_b())
        await asyncio.gather(t1, t2)
"""


class TestP9SharedStateRaces:
    def test_two_roots_writing_one_container(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": RACE_HEADER
                + """\
    async def writer_a(self):
        self.table["a"] = "1"

    async def writer_b(self):
        self.table["b"] = "2"

"""
                + RACE_MAIN,
            },
        )
        found = hits(tree, ["P9"])
        assert found == ["P9 svc.py:9"], found

    def test_lock_guarded_writes_are_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": RACE_HEADER
                + """\
    async def writer_a(self):
        async with self._lock:
            self.table["a"] = "1"

    async def writer_b(self):
        async with self._lock:
            self.table["b"] = "2"

"""
                + RACE_MAIN,
            },
        )
        assert hits(tree, ["P9"]) == []

    def test_single_writer_root_is_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": RACE_HEADER
                + """\
    async def writer_a(self):
        self.table["a"] = "1"

    async def writer_b(self):
        return len(self.table)

"""
                + RACE_MAIN,
            },
        )
        assert hits(tree, ["P9"]) == []

    def test_disable_comment_documents_ownership(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": RACE_HEADER
                + """\
    async def writer_a(self):
        # single atomic write per turn, no await splits it
        # reprolint: disable=P9
        self.table["a"] = "1"

    async def writer_b(self):
        self.table["b"] = "2"

"""
                + RACE_MAIN,
            },
        )
        assert hits(tree, ["P9"]) == []

    def test_two_protocol_callbacks_writing_one_container(self, tmp_path):
        """The callbacks of a `create_server` protocol are roots too."""
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": """\
                import asyncio

                class Conn(asyncio.Protocol):
                    def __init__(self):
                        self.seen: dict[str, int] = {}

                    def connection_made(self, transport):
                        self.seen["open"] = 1

                    def data_received(self, data):
                        self.seen["data"] = len(data)

                async def serve():
                    loop = asyncio.get_running_loop()
                    return await loop.create_server(Conn, "", 0)
                """,
            },
        )
        found = hits(tree, ["P9"])
        assert found == ["P9 svc.py:8"], found


HANDLER_HEADER = """\
import asyncio

class Server:
    def __init__(self, registry):
        self.registry = registry
        self._count = registry.counter("requests_total", "req")
        self.whitelist: set[str] = set()

    async def start(self):
        self._srv = await asyncio.start_server(self._handle, "", 0)

"""


class TestP10HotPathDiscipline:

    def test_get_or_create_metric_on_request_path(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": HANDLER_HEADER
                + """\
    async def _handle(self, reader, writer):
        self.registry.counter("requests_total", "req").inc()
""",
            },
        )
        found = hits(tree, ["P10"])
        assert found == ["P10 svc.py:13"], found

    def test_container_scan_on_request_path(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": HANDLER_HEADER
                + """\
    async def _handle(self, reader, writer):
        return [c for c in self.whitelist if c]
""",
            },
        )
        found = hits(tree, ["P10"])
        assert found == ["P10 svc.py:13"], found

    def test_prebound_handle_and_membership_test_are_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": HANDLER_HEADER
                + """\
    async def _handle(self, reader, writer):
        self._count.inc()
        return "c" in self.whitelist
""",
            },
        )
        assert hits(tree, ["P10"]) == []

    def test_scan_off_the_handler_path_is_clean(self, tmp_path):
        tree = build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": HANDLER_HEADER
                + """\
    async def _handle(self, reader, writer):
        self._count.inc()

    def sweep(self):
        return sorted(self.whitelist)
""",
            },
        )
        assert hits(tree, ["P10"]) == []


PROTOCOL_HEADER = """\
import asyncio

class Server:
    def __init__(self, registry):
        self.registry = registry
        self._count = registry.counter("requests_total", "req")
        self.whitelist: set[str] = set()

    async def start(self):
        loop = asyncio.get_running_loop()
        self._srv = await loop.create_server(lambda: Conn(self), "", 0)

"""

PROTOCOL_FOOTER = """\

class Conn(asyncio.Protocol):
    def __init__(self, server):
        self.server = server

    def connection_made(self, transport):
        self.transport = transport

    def data_received(self, data):
        self.transport.write(self.server.respond(data))
"""


class TestP10ProtocolHandlers:
    """`create_server(lambda: Conn(...))`: the hot path starts at the
    protocol's `data_received`, as it does at a `start_server` handler."""

    def _tree(self, tmp_path, respond: str):
        return build_tree(
            tmp_path,
            SERVICE_PKG
            | {
                "repro/service/svc.py": PROTOCOL_HEADER
                + respond
                + PROTOCOL_FOOTER,
            },
        )

    def test_get_or_create_metric_behind_data_received(self, tmp_path):
        tree = self._tree(tmp_path, """\
    def respond(self, data):
        self.registry.counter("requests_total", "req").inc()
""")
        found = hits(tree, ["P10"])
        assert found == ["P10 svc.py:14"], found

    def test_container_scan_behind_data_received(self, tmp_path):
        tree = self._tree(tmp_path, """\
    def respond(self, data):
        return [c for c in self.whitelist if c]
""")
        found = hits(tree, ["P10"])
        assert found == ["P10 svc.py:14"], found

    def test_prebound_handle_and_membership_test_are_clean(self, tmp_path):
        tree = self._tree(tmp_path, """\
    def respond(self, data):
        self._count.inc()
        return data in self.whitelist
""")
        assert hits(tree, ["P10"]) == []

    def test_real_backend_is_reached_through_its_protocol(self):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        graph = build_call_graph(ProgramContext.build(
            src, consumer_roots=default_consumer_roots(src)
        ))
        handlers = {
            root.qualname
            for root in find_task_roots(graph)
            if root.kind == "server-handler"
        }
        entry = "repro.service.backend._Connection.data_received"
        assert entry in handlers
        assert {
            "repro.service.backend.ReplicaBackend._answer",
            "repro.service.backend.ReplicaBackend._settle",
        } <= reachable_from(graph, {entry})


class TestGraphExports:
    def _program(self, tmp_path) -> ProgramContext:
        tree = build_tree(
            tmp_path,
            PKG
            | {
                "repro/core/alg.py": "def f() -> int:\n    return 1\n",
                "repro/sim/model.py": "from repro.core.alg import f\n",
            },
        )
        return ProgramContext.build(
            tree, consumer_roots=default_consumer_roots(tree)
        )

    def test_dot_render_clusters_by_layer(self, tmp_path):
        dot = render_dot(self._program(tmp_path))
        assert dot.startswith("digraph imports")
        assert 'label="core"' in dot
        assert '"repro.sim.model" -> "repro.core.alg"' in dot

    def test_json_render_carries_contract_and_counts(self, tmp_path):
        payload = render_graph_json(self._program(tmp_path))
        assert payload["layer_edge_counts"] == {"sim -> core": 1}
        assert set(payload["contract"]) >= {"core", "sim", "cloudsim"}
        names = {m["name"] for m in payload["modules"]}
        assert "repro.sim.model" in names


class TestP13NumericStability:
    def _tree(self, tmp_path, body: str, module: str = "core/alg.py"):
        return build_tree(tmp_path, PKG | {f"repro/{module}": body})

    def test_log_of_one_minus_x_fires(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            import math

            def f(x: float) -> float:
                return math.log(1.0 - x)
            """,
        )
        assert hits(tree, ["P13"]) == ["P13 alg.py:4"]

    def test_np_log_variant_fires(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            import numpy as np

            def f(x) -> float:
                return np.log(1 - x)
            """,
        )
        assert hits(tree, ["P13"]) == ["P13 alg.py:4"]

    def test_log_of_one_minus_exp_suggests_log1mexp(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            import math

            def f(t: float) -> float:
                return math.log(1.0 - math.exp(t))
            """,
        )
        report_hits = hits(tree, ["P13"])
        assert report_hits == ["P13 alg.py:4"]

    def test_log1p_of_negated_exp_fires(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            import math

            def f(t: float) -> float:
                return math.log1p(-math.exp(t))
            """,
        )
        assert hits(tree, ["P13"]) == ["P13 alg.py:4"]

    def test_log_sum_exp_shape_fires(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            import numpy as np

            def f(logs) -> float:
                return np.log(np.sum(np.exp(logs)))
            """,
        )
        assert hits(tree, ["P13"]) == ["P13 alg.py:4"]

    def test_log1p_of_plain_negation_is_clean(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            import math

            def f(x: float) -> float:
                return math.log1p(-x)
            """,
        )
        assert hits(tree, ["P13"]) == []

    def test_lgamma_difference_outside_combinatorics_fires(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            import math

            def f(a: int, b: int) -> float:
                return math.lgamma(a + 1) - math.lgamma(b + 1)
            """,
        )
        assert hits(tree, ["P13"]) == ["P13 alg.py:4"]

    def test_lgamma_difference_inside_combinatorics_is_exempt(
        self, tmp_path
    ):
        tree = self._tree(
            tmp_path,
            """\
            import math

            def f(a: int, b: int) -> float:
                return math.lgamma(a + 1) - math.lgamma(b + 1)
            """,
            module="core/combinatorics.py",
        )
        assert hits(tree, ["P13"]) == []

    def test_division_by_unguarded_len_fires(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            def f(xs) -> float:
                return sum(xs) / len(xs)
            """,
        )
        assert hits(tree, ["P13"]) == ["P13 alg.py:2"]

    def test_division_guarded_by_emptiness_check_is_clean(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            def f(xs) -> float:
                if not xs:
                    return 0.0
                return sum(xs) / len(xs)
            """,
        )
        assert hits(tree, ["P13"]) == []

    def test_division_by_unguarded_size_fires(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            def f(xs) -> float:
                return float(xs.sum()) / xs.size
            """,
        )
        assert hits(tree, ["P13"]) == ["P13 alg.py:2"]

    def test_max_floored_denominator_is_clean(self, tmp_path):
        tree = self._tree(
            tmp_path,
            """\
            def f(xs) -> float:
                return sum(xs) / max(1, len(xs))
            """,
        )
        assert hits(tree, ["P13"]) == []
