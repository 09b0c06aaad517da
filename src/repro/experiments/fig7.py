"""Figure 7 — accuracy of the MLE attack-scale estimator.

Paper setting: 10,000 clients uniformly assigned to 100 shuffling
replicas; the real persistent-bot count sweeps 10..350; each data point is
the mean of 40 repeated runs with a 99% confidence interval.  The paper's
observations:

- the estimate tracks the real bot count closely while some replicas stay
  bot-free, and
- once (nearly) all replicas are attacked, the likelihood becomes monotone
  in ``M`` and the estimate shoots to its upper bound — the regime
  characterized by Theorem 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.api import estimate
from ..core.even import even_sizes
from ..sim.stats import SampleSummary, summarize
from .tables import render_table

__all__ = ["Fig7Row", "run_fig7", "render_fig7"]

FIG7_CLIENTS = 10_000
FIG7_REPLICAS = 100
FIG7_BOT_COUNTS: tuple[int, ...] = (
    10, 20, 50, 80, 100, 150, 200, 250, 300, 350,
)
FIG7_REPEATS = 40


@dataclass(frozen=True)
class Fig7Row:
    """Mean estimate and attack coverage for one real bot count."""

    real_bots: int
    estimate: SampleSummary
    attacked_fraction: SampleSummary
    degenerate_runs: int

    @property
    def relative_error(self) -> float:
        return (self.estimate.mean - self.real_bots) / self.real_bots


def _simulate_observation(
    n_clients: int,
    n_bots: int,
    n_replicas: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """One uniform assignment: returns (attacked count, attacked clients)."""
    sizes = np.asarray(even_sizes(n_clients, n_replicas), dtype=np.int64)
    bots_per_replica = rng.multivariate_hypergeometric(sizes, n_bots)
    attacked = bots_per_replica > 0
    return int(attacked.sum()), int(sizes[attacked].sum())


def run_fig7(
    n_clients: int = FIG7_CLIENTS,
    n_replicas: int = FIG7_REPLICAS,
    bot_counts: tuple[int, ...] = FIG7_BOT_COUNTS,
    repeats: int = FIG7_REPEATS,
    seed: int = 0,
) -> list[Fig7Row]:
    """Estimate the bot count repeatedly for each real bot population."""
    rows = []
    seed_seq = np.random.SeedSequence(seed)
    for real_bots, child in zip(
        bot_counts, seed_seq.spawn(len(bot_counts))
    ):
        rng = np.random.default_rng(child)
        estimates = []
        fractions = []
        degenerate = 0
        for _ in range(repeats):
            n_attacked, attacked_clients = _simulate_observation(
                n_clients, real_bots, n_replicas, rng
            )
            result = estimate(
                n_attacked, n_replicas, max(attacked_clients, n_attacked)
            )
            estimates.append(result.m_hat)
            fractions.append(n_attacked / n_replicas)
            degenerate += int(result.degenerate)
        rows.append(
            Fig7Row(
                real_bots=real_bots,
                estimate=summarize(estimates, confidence=0.99),
                attacked_fraction=summarize(fractions, confidence=0.99),
                degenerate_runs=degenerate,
            )
        )
    return rows


def render_fig7(rows: list[Fig7Row]) -> str:
    """ASCII rendition of Figure 7."""
    return render_table(
        [
            {
                "real bots": row.real_bots,
                "estimated": row.estimate.format(1),
                "rel.err": row.relative_error,
                "attacked %": 100 * row.attacked_fraction.mean,
                "degenerate runs": row.degenerate_runs,
            }
            for row in rows
        ],
        title=(
            "Figure 7 — MLE bot-count estimation "
            f"({FIG7_CLIENTS} clients, {FIG7_REPLICAS} replicas; paper: "
            "accurate unless nearly all replicas attacked)"
        ),
    )
