"""Live online defense: the paper's control loop over real sockets.

Where :mod:`repro.cloudsim` replays the architecture inside a
discrete-event simulator, this package runs it for real on localhost —
asyncio TCP replica backends with finite capacity, an assignment
coordinator executing detect → estimate → plan → shuffle → substitute
against wall-clock saturation signals, and a load-generation harness
whose QoS output shares one schema (:mod:`repro.sim.qos`) with the
simulator, making live and simulated runs directly comparable
(``docs/live-vs-sim.md``).

- :mod:`~repro.service.config` — :class:`ServiceConfig` tunables.
- :mod:`~repro.service.tokens` — token bucket + saturation monitor.
- :mod:`~repro.service.backend` — whitelist-enforcing replica servers.
- :mod:`~repro.service.pool` — fixed-size fleet, fresh-port substitution.
- :mod:`~repro.service.coordinator` — the live coordination server.
- :mod:`~repro.service.budget` — oracle-derived shuffle round caps.
- :mod:`~repro.service.loadgen` — benign clients + persistent bots.
- :mod:`~repro.service.harness` — one-call scenarios with verdicts.
- :mod:`~repro.service.telemetry` — JSON metrics endpoint and exports.
- :mod:`~repro.service.cli` — the ``repro-serve`` entry point.
"""

from __future__ import annotations

from .backend import BackendStats, ReplicaBackend
from .budget import MIN_BUDGET, SLACK_FACTOR, shuffle_budget
from .config import DEFAULT_SEED, ServiceConfig
from .coordinator import LiveShuffleRecord, ServiceCoordinator
from .harness import ScenarioReport, run_scenario, run_scenario_sync
from .loadgen import LoadConfig, LoadGenerator
from .pool import ReplicaPool
from .telemetry import TelemetryServer, export_windows
from .tokens import SaturationMonitor, TokenBucket

__all__ = [
    "BackendStats",
    "DEFAULT_SEED",
    "LiveShuffleRecord",
    "LoadConfig",
    "LoadGenerator",
    "MIN_BUDGET",
    "ReplicaBackend",
    "ReplicaPool",
    "SLACK_FACTOR",
    "SaturationMonitor",
    "ScenarioReport",
    "ServiceConfig",
    "ServiceCoordinator",
    "TelemetryServer",
    "TokenBucket",
    "export_windows",
    "run_scenario",
    "run_scenario_sync",
    "shuffle_budget",
]
