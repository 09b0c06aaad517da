"""repro — reproduction of *Catch Me if You Can: A Cloud-Enabled DDoS
Defense* (Jia, Wang, Fleck, Li, Stavrou, Powell — DSN 2014).

The library implements the paper's shuffling-based moving-target DDoS
defense end to end:

- ``repro.core`` — shuffle-plan optimization (optimal DP, greedy, even
  baseline), attack-scale MLE, and the multi-round shuffling control loop.
- ``repro.sim`` — Monte-Carlo evaluation harness for the paper's
  Section VI-A simulations (Poisson arrivals, repeated runs, confidence
  intervals).
- ``repro.cloudsim`` — a discrete-event simulation of the full Section III
  architecture: DNS, redirecting load balancers, whitelist-enforcing
  replica servers, the coordination server, benign clients, and naive /
  persistent / on-off bots — plus the EC2-prototype migration-latency model
  of Section VI-B.
- ``repro.analysis`` — closed-form results (Theorem 1) and paper reference
  series used for shape comparison.
- ``repro.service`` — the live online defense: asyncio TCP replica
  backends, the shuffling coordinator, and a load-generation harness
  running the control loop over real localhost sockets
  (``repro-serve scenario``).
- ``repro.obs`` — the unified observability layer: metrics, spans, and
  one event schema shared by every layer above (``repro-obs`` inspects
  the traces; see ``docs/observability.md``).
- ``repro.detect`` — sketch-based streaming detection: count-min and
  space-saving summaries behind fixed-memory saturation monitoring and
  per-replica heavy-hitter reports (see ``docs/detection.md``).
- ``repro.trust`` — adaptive per-client trust profiles, the graduated
  TRUSTED/WATCH/THROTTLED/DENIED admission ladder, a trust-weighted
  estimator prior, and pluggable persistent state backends
  (memory / sqlite / atomic JSON file; see ``docs/trust.md``).
- ``repro.experiments`` — one driver per paper table/figure
  (``python -m repro.experiments <fig3|fig4|...|fig12|headline>``).

Quickstart::

    from repro import PlanRequest, ShuffleEngine, plan

    shuffle = plan(PlanRequest(n_clients=1000, n_bots=100, n_replicas=50))
    print(shuffle.describe())

    engine = ShuffleEngine(n_replicas=1000, planner="greedy")
    state = engine.run(benign=50_000, bots=100_000, target_fraction=0.8)
    print(f"saved 80% of benign clients in {len(state.rounds)} shuffles")
"""

from __future__ import annotations

from . import detect, obs, trust
from .core import (
    BotEstimate,
    EstimateRequest,
    PLANNERS,
    PlanError,
    PlanRequest,
    RoundResult,
    ShuffleEngine,
    ShufflePlan,
    ShuffleState,
    dp_fast_value,
    dp_value,
    expected_saved,
    shuffle_trajectory,
    single_replica_optimum,
    survival_probability,
)
from .core.api import estimate, plan

__version__ = "1.0.0"

__all__ = [
    "BotEstimate",
    "EstimateRequest",
    "PLANNERS",
    "PlanError",
    "PlanRequest",
    "RoundResult",
    "ShuffleEngine",
    "ShufflePlan",
    "ShuffleState",
    "__version__",
    "detect",
    "dp_fast_value",
    "dp_value",
    "estimate",
    "expected_saved",
    "obs",
    "plan",
    "shuffle_trajectory",
    "single_replica_optimum",
    "survival_probability",
    "trust",
]
