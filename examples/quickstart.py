"""Quickstart: plan and run a shuffling-based moving-target defense.

This walks the library's core API end to end:

1. plan a single shuffle with each algorithm and compare the expected
   number of benign clients saved (paper Equation 1);
2. estimate an unknown bot count from the observable attack signal
   (Section V's MLE);
3. run the full multi-round shuffling control loop until 80% of the
   benign clients are rescued.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    EstimateRequest,
    PlanRequest,
    ShuffleEngine,
    estimate,
    plan,
    shuffle_trajectory,
)
from repro.analysis.theory import max_estimable_bots, min_replicas_for_bots


def plan_one_shuffle() -> None:
    """Compare the three planners on one paper-scale instance."""
    n_clients, n_bots, n_replicas = 1000, 200, 100
    print(f"== one shuffle: N={n_clients} clients, M={n_bots} bots, "
          f"P={n_replicas} replicas ==")
    for method in ("greedy", "dp_fast", "even"):
        shuffle = plan(
            PlanRequest(n_clients, n_bots, n_replicas, method=method)
        )
        benign = n_clients - n_bots
        print(f"  {shuffle.algorithm:8s} expects to save "
              f"{shuffle.expected_saved:6.1f} of {benign} benign clients "
              f"({shuffle.expected_saved / benign:.1%})")
    print()


def estimate_attack_scale() -> None:
    """Infer the bot count from how many replicas came under attack."""
    print("== attack-scale estimation (Section V) ==")
    rng = np.random.default_rng(7)
    n_replicas, true_bots = 100, 150
    # Simulate one uniform shuffle: which replicas got a bot?
    hit = rng.integers(0, n_replicas, size=true_bots)
    attacked = len(set(hit.tolist()))
    bots = estimate(
        EstimateRequest(attacked, n_replicas, upper_bound=10_000)
    )
    print(f"  {attacked}/{n_replicas} replicas attacked "
          f"-> MLE estimate {bots.m_hat} bots (truth: {true_bots})")
    threshold = max_estimable_bots(n_replicas)
    print(f"  Theorem 1: estimation stays informative up to "
          f"~{threshold:.0f} bots at P={n_replicas};")
    print(f"  to estimate 10,000 bots you would provision "
          f"P >= {min_replicas_for_bots(10_000)} replicas")
    print()


def run_defense() -> None:
    """Multi-round shuffling until 80% of benign clients are saved."""
    print("== multi-round defense: 5,000 benign vs 1,000 persistent bots, "
          "100 shuffling replicas ==")
    engine = ShuffleEngine(
        n_replicas=100,
        planner="greedy",
        estimator="moment",  # plan from the observable signal, no oracle
        rng=np.random.default_rng(42),
    )
    state = engine.run(benign=5_000, bots=1_000, target_fraction=0.8)
    print(f"  saved {state.benign_saved}/{state.benign_initial} benign "
          f"clients in {len(state.rounds)} shuffles")
    checkpoints = {0.25, 0.5, 0.75}
    for round_index, cumulative, fraction in shuffle_trajectory(state):
        passed = {c for c in checkpoints if fraction >= c}
        for checkpoint in sorted(passed):
            print(f"  reached {checkpoint:.0%} saved at shuffle "
                  f"{round_index + 1} ({cumulative} clients)")
        checkpoints -= passed
    final = state.rounds[-1]
    print(f"  final round: {final.n_attacked}/{final.plan.n_replicas} "
          f"replicas still attacked, {final.bots_remaining} bots "
          f"quarantined with {final.benign_remaining} benign stragglers")
    print()


def main() -> None:
    plan_one_shuffle()
    estimate_attack_scale()
    run_defense()


if __name__ == "__main__":
    main()
