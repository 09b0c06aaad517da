"""Monte-Carlo simulation harness for the paper's Section VI-A evaluation.

- :mod:`~repro.sim.arrivals` — Poisson arrival processes (bots 5000 per 3
  shuffles, benign 100 per 3 shuffles).
- :mod:`~repro.sim.shuffle_sim` — scenario definitions, repeated runs,
  per-run records.
- :mod:`~repro.sim.scenarios` — the exact parameter grids of Figures 8-10.
- :mod:`~repro.sim.stats` — mean / confidence-interval reporting.
- :mod:`~repro.sim.qos` — the shared per-window QoS record emitted by
  both the DES (:mod:`repro.cloudsim`) and the live service
  (:mod:`repro.service`).
"""

from __future__ import annotations

from .arrivals import PAPER_BENIGN_RATE, PAPER_BOT_RATE, PoissonArrivals
from .qos import QoSWindow, windows_from_dicts, windows_to_dicts
from .campaign import (
    AttackWave,
    CampaignConfig,
    CampaignResult,
    WaveOutcome,
    run_campaign,
)
from .scenarios import (
    FIG8_BENIGN_COUNTS,
    FIG8_BOT_COUNTS,
    FIG9_REPLICA_COUNTS,
    fig8_scenarios,
    fig9_scenarios,
    fig10_scenarios,
    headline_scenario,
)
from .shuffle_sim import (
    RunRecord,
    ScenarioResult,
    ShuffleScenario,
    cumulative_saved_curve,
    run_scenario,
    run_scenario_once,
)
from .stats import SampleSummary, confidence_interval, summarize

__all__ = [
    "AttackWave",
    "CampaignConfig",
    "CampaignResult",
    "FIG8_BENIGN_COUNTS",
    "FIG8_BOT_COUNTS",
    "FIG9_REPLICA_COUNTS",
    "PAPER_BENIGN_RATE",
    "PAPER_BOT_RATE",
    "PoissonArrivals",
    "QoSWindow",
    "RunRecord",
    "SampleSummary",
    "ScenarioResult",
    "ShuffleScenario",
    "WaveOutcome",
    "confidence_interval",
    "cumulative_saved_curve",
    "fig10_scenarios",
    "fig8_scenarios",
    "fig9_scenarios",
    "headline_scenario",
    "run_campaign",
    "run_scenario",
    "run_scenario_once",
    "summarize",
    "windows_from_dicts",
    "windows_to_dicts",
]
