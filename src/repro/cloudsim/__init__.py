"""Discrete-event simulation of the paper's full cloud architecture.

Components map one-to-one onto Section III / Figure 1:

- :mod:`~repro.cloudsim.engine` — the DES kernel: a clock and a heap of
  ``(time, seq, action)`` tuples, run in ``(time, seq)`` order.
- :mod:`~repro.cloudsim.network` — latency model, endpoints, load meters.
- :mod:`~repro.cloudsim.dns` — round-robin DNS front door (steps 1-2).
- :mod:`~repro.cloudsim.loadbalancer` — redirecting, sticky-session load
  balancers with re-entry memory (steps 3-4; Section VII).
- :mod:`~repro.cloudsim.replica` — whitelist-enforcing replica servers
  with finite bandwidth and compute (steps 5-6); a request is served in
  one call that returns its service time, or ``None`` if refused.
- :mod:`~repro.cloudsim.coordinator` — the coordination server: detection,
  replica instantiation, shuffle planning and execution.
- :mod:`~repro.cloudsim.clients` — benign clients, persistent bots,
  on-off bots.
- :mod:`~repro.cloudsim.botnet` — hit-list management and naive flooding.
- :mod:`~repro.cloudsim.metrics` — benign QoS timelines.
- :mod:`~repro.cloudsim.system` — :class:`CloudDefenseSystem`, the facade
  that wires everything together.
- :mod:`~repro.cloudsim.migration` — the EC2-prototype latency emulation
  behind Figure 12.
"""

from __future__ import annotations

from .botnet import Botnet
from .clients import BenignClient, ClientStats, OnOffBot, PersistentBot
from .coordinator import Coordinator, ShuffleRecord
from .dns import DnsServer
from .engine import SimulationError, Simulator
from .faults import ChaosMonkey
from .loadbalancer import DomainDirectory, LoadBalancer
from .metrics import MetricsCollector, QoSWindow
from .migration import (
    MigrationModel,
    MigrationSample,
    PAGE_BYTES,
    simulate_migration,
)
from .network import Endpoint, LatencyModel, LoadMeter
from .recon import ReconnaissanceScanner, SpoofingFlooder
from .replica import ReplicaServer, ReplicaState, ReplicaStats
from .system import CloudConfig, CloudContext, CloudDefenseSystem, RunReport

__all__ = [
    "BenignClient",
    "Botnet",
    "ChaosMonkey",
    "ClientStats",
    "CloudConfig",
    "CloudContext",
    "CloudDefenseSystem",
    "Coordinator",
    "DnsServer",
    "DomainDirectory",
    "Endpoint",
    "LatencyModel",
    "LoadBalancer",
    "LoadMeter",
    "MetricsCollector",
    "MigrationModel",
    "MigrationSample",
    "OnOffBot",
    "PAGE_BYTES",
    "PersistentBot",
    "QoSWindow",
    "ReconnaissanceScanner",
    "ReplicaServer",
    "ReplicaState",
    "ReplicaStats",
    "RunReport",
    "ShuffleRecord",
    "SimulationError",
    "Simulator",
    "SpoofingFlooder",
    "simulate_migration",
]
