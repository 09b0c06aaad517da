"""Core of the reproduction: shuffle-plan optimization and estimation.

This package implements the paper's primary contribution (Sections IV & V):

- :mod:`~repro.core.combinatorics` — log-space binomials, survival
  probabilities, hypergeometric pmfs (the vocabulary of Table I).
- :mod:`~repro.core.plan` / :mod:`~repro.core.objective` — shuffle plans and
  the Equation 1 objective ``E(S)``.
- :mod:`~repro.core.dp` — paper-literal optimal dynamic program
  (Algorithm 1).
- :mod:`~repro.core.dp_fast` — equivalent separable DP that scales to the
  paper's N = 1000 and beyond.
- :mod:`~repro.core.greedy` — the fast near-optimal planner used at runtime.
- :mod:`~repro.core.even` — the naive even-split baseline of Figure 4.
- :mod:`~repro.core.estimator` — MLE / moment attack-scale estimation
  (Section V).
- :mod:`~repro.core.shuffler` — the multi-round shuffling control loop.
- :mod:`~repro.core.api` — the unified batch-first ``estimate()`` /
  ``plan()`` dispatchers every consumer goes through; ``method=``
  selects the kernel (see ``docs/core-api.md``).
"""

from __future__ import annotations

# The dispatcher *functions* stay namespaced under repro.core.api (and
# re-exported at top level as repro.estimate / repro.plan): binding
# ``plan`` here would shadow the :mod:`repro.core.plan` submodule.
from . import api
from .api import EstimateRequest, PlanRequest
from .combinatorics import (
    expected_saved_single,
    hypergeometric_pmf,
    log_binomial,
    survival_probability,
)
from .dp import dp_value, optimal_assign
from .dp_fast import dp_fast_sizes, dp_fast_value
from .estimator import BotEstimate, attacked_count_pmf, occupancy_pmf
from .even import even_sizes
from .expansion import (
    ExpansionPlan,
    expansion_replicas_needed,
    expansion_saved_fraction,
)
from .greedy import greedy_sizes
from .objective import (
    expected_saved,
    expected_saved_sizes,
    single_replica_optimum,
)
from .plan_cache import PlanCache
from .plan import PlanError, ShufflePlan
from .shuffler import (
    PLANNERS,
    RoundResult,
    ShuffleEngine,
    ShuffleState,
    shuffle_trajectory,
)

__all__ = [
    "BotEstimate",
    "EstimateRequest",
    "PlanRequest",
    "api",
    "attacked_count_pmf",
    "PLANNERS",
    "PlanCache",
    "PlanError",
    "RoundResult",
    "ShuffleEngine",
    "ShufflePlan",
    "ShuffleState",
    "dp_fast_sizes",
    "dp_fast_value",
    "dp_value",
    "ExpansionPlan",
    "even_sizes",
    "expansion_replicas_needed",
    "expansion_saved_fraction",
    "expected_saved",
    "expected_saved_sizes",
    "expected_saved_single",
    "greedy_sizes",
    "hypergeometric_pmf",
    "log_binomial",
    "occupancy_pmf",
    "optimal_assign",
    "shuffle_trajectory",
    "single_replica_optimum",
    "survival_probability",
]
