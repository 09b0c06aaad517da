"""Integration tests pinning the paper's cross-cutting quantitative claims.

Each test names the paper statement it checks.  Absolute numbers are held
to *shape* tolerances (our substrate is a simulator, not the authors'
Matlab/EC2 testbed); orderings and rough factors are asserted strictly.
"""

from __future__ import annotations

import numpy as np
from repro.core.api import planner
from repro.core.dp_fast import dp_fast_value
from repro.sim.shuffle_sim import ShuffleScenario, run_scenario

plan_greedy = planner("greedy")
plan_even = planner("even")


class TestAbstractClaims:
    def test_headline_60_shuffles(self):
        """Abstract: 'mitigate ... 100K persistent attackers by saving 80%
        of 50K benign clients in approximately 60 shuffles'."""
        result = run_scenario(
            ShuffleScenario(
                benign=50_000, bots=100_000, n_replicas=1000,
                target_fraction=0.8,
            ),
            repetitions=3,
            seed=1,
        )
        assert 30 <= result.mean_shuffles <= 120
        assert result.saved_fraction.mean >= 0.8


class TestSectionVIClaims:
    def test_tenfold_bots_less_than_threefold_shuffles(self):
        """Fig. 8 text: 'a ten-fold increase in the number of persistent
        bots results in less than three-fold increase in shuffles'."""
        small = run_scenario(
            ShuffleScenario(benign=50_000, bots=10_000, n_replicas=1000,
                            target_fraction=0.8),
            repetitions=3, seed=2,
        )
        large = run_scenario(
            ShuffleScenario(benign=50_000, bots=100_000, n_replicas=1000,
                            target_fraction=0.8),
            repetitions=3, seed=2,
        )
        ratio = large.mean_shuffles / small.mean_shuffles
        assert ratio < 3.0
        assert ratio > 1.0

    def test_95_percent_costs_at_least_40_percent_more(self):
        """Fig. 8/9 text: saving 95% takes >40% more shuffles than 80%."""
        base = dict(benign=10_000, bots=50_000, n_replicas=1000)
        at80 = run_scenario(
            ShuffleScenario(**base, target_fraction=0.8),
            repetitions=3, seed=3,
        )
        at95 = run_scenario(
            ShuffleScenario(**base, target_fraction=0.95),
            repetitions=3, seed=3,
        )
        assert at95.mean_shuffles > 1.4 * at80.mean_shuffles

    def test_more_replicas_steadily_fewer_shuffles(self):
        """Fig. 9: shuffle count drops steadily as replicas are added."""
        means = []
        for replicas in (900, 1400, 2000):
            result = run_scenario(
                ShuffleScenario(benign=10_000, bots=100_000,
                                n_replicas=replicas, target_fraction=0.8),
                repetitions=3, seed=4,
            )
            means.append(result.mean_shuffles)
        assert means[0] > means[1] > means[2]

    def test_early_shuffles_save_more(self):
        """Fig. 10: 'early shuffles separate more benign clients'."""
        result = run_scenario(
            ShuffleScenario(benign=10_000, bots=100_000, n_replicas=1000,
                            target_fraction=0.95),
            repetitions=3, seed=5,
        )
        per_round = np.array(result.runs[0].saved_per_round, dtype=float)
        half = len(per_round) // 2
        assert per_round[:half].sum() > per_round[half:].sum()


class TestSectionIVClaims:
    def test_greedy_near_optimal_at_paper_scale(self):
        """Fig. 3: greedy and optimal DP curves overlap."""
        for bots in (100, 300, 500):
            for replicas in (50, 200):
                greedy_value = plan_greedy(1000, bots, replicas).expected_saved
                optimal = dp_fast_value(1000, bots, replicas)
                assert greedy_value >= 0.99 * optimal

    def test_even_distribution_fails_when_bots_exceed_replicas(self):
        """Fig. 4: 'saving almost no benign clients when bots >> replicas'."""
        plan = plan_even(1000, 500, 100)
        assert plan.expected_saved / 500 < 0.01


class TestSectionVClaims:
    def test_mle_accurate_until_saturation(self):
        """Fig. 7: estimation accurate 'unless nearly all shuffling replica
        servers are under attack'."""
        from repro.experiments.fig7 import run_fig7

        rows = run_fig7(
            n_clients=10_000, n_replicas=100,
            bot_counts=(50, 100, 200, 600), repeats=10, seed=6,
        )
        for row in rows[:3]:
            assert abs(row.relative_error) < 0.35
        assert rows[-1].estimate.mean > 1.5 * rows[-1].real_bots

    def test_theorem1_predicts_saturation(self):
        """Theorem 1 threshold separates the two Fig. 7 regimes."""
        from repro.analysis.theory import max_estimable_bots

        threshold = max_estimable_bots(100)
        rows_below = 100 * (1 - 1 / 100) ** (threshold * 0.5)
        rows_above = 100 * (1 - 1 / 100) ** (threshold * 2.0)
        assert rows_below > 1.0  # expected bot-free replicas exist
        assert rows_above < 1.0  # everything attacked w.h.p.
