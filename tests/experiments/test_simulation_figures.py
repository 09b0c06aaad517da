"""Tests for the simulation-level figure drivers (Figures 7-10, 12)."""

from __future__ import annotations

from repro.experiments.ablations import run_ablations
from repro.experiments.fig7 import render_fig7, run_fig7
from repro.experiments.fig8 import render_fig8, run_fig8
from repro.experiments.fig9 import render_fig9, run_fig9
from repro.experiments.fig10 import render_fig10, run_fig10
from repro.experiments.fig12 import render_fig12, run_fig12
from repro.experiments.headline import render_headline, run_headline


class TestFig7:
    def test_accurate_below_saturation_degenerate_above(self):
        rows = run_fig7(
            n_clients=2000,
            n_replicas=50,
            bot_counts=(10, 30, 60, 400),
            repeats=15,
            seed=1,
        )
        informative = [r for r in rows if r.real_bots <= 60]
        for row in informative:
            assert abs(row.relative_error) < 0.35
        saturated = rows[-1]
        # 400 bots over 50 replicas: everything attacked, estimate blows up.
        assert saturated.attacked_fraction.mean > 0.95
        assert saturated.estimate.mean > 2 * saturated.real_bots

    def test_attacked_fraction_monotone(self):
        rows = run_fig7(
            n_clients=2000, n_replicas=50,
            bot_counts=(5, 25, 100), repeats=10, seed=2,
        )
        fractions = [r.attacked_fraction.mean for r in rows]
        assert fractions == sorted(fractions)

    def test_render(self):
        rows = run_fig7(n_clients=500, n_replicas=20,
                        bot_counts=(5, 10), repeats=5)
        assert "Figure 7" in render_fig7(rows)


SMALL_BOTS = (5_000, 20_000)


class TestFig8:
    def test_rows_and_claims(self):
        rows = run_fig8(
            bot_counts=SMALL_BOTS,
            benign_counts=(10_000, 50_000),
            targets=(0.8, 0.95),
            repetitions=2,
            seed=3,
        )
        assert len(rows) == 8
        by_key = {
            (r.benign, r.bots, r.target): r.shuffles.mean for r in rows
        }
        # More bots, a higher target, more benign clients: each costs
        # more shuffles.
        assert by_key[(10_000, 20_000, 0.8)] >= by_key[(10_000, 5_000, 0.8)]
        assert by_key[(10_000, 5_000, 0.95)] > by_key[(10_000, 5_000, 0.8)]
        assert by_key[(50_000, 20_000, 0.8)] > by_key[(10_000, 20_000, 0.8)]

    def test_render(self):
        rows = run_fig8(bot_counts=(5_000,), benign_counts=(10_000,),
                        targets=(0.8,), repetitions=2, seed=4)
        assert "Figure 8" in render_fig8(rows)


class TestFig9:
    def test_more_replicas_fewer_shuffles(self):
        rows = run_fig9(
            replica_counts=(900, 2000),
            benign_counts=(10_000,),
            targets=(0.8,),
            repetitions=2,
            seed=5,
        )
        assert rows[0].shuffles.mean > rows[1].shuffles.mean

    def test_render(self):
        rows = run_fig9(replica_counts=(1000,), benign_counts=(10_000,),
                        targets=(0.8,), repetitions=2, seed=6)
        assert "Figure 9" in render_fig9(rows)


class TestFig10:
    def test_diminishing_returns(self):
        curves = run_fig10(
            fractions=(0.2, 0.5, 0.8, 0.95), repetitions=2, seed=7
        )
        assert len(curves) == 2
        for curve in curves:
            means = [s.mean for s in curve.shuffles]
            assert means == sorted(means)
            marginal = curve.marginal_costs()
            # The last checkpoint step costs more than the first, and
            # by a wide margin (the paper's "early shuffles separate
            # more benign clients").
            assert marginal[-1] >= 3 * max(marginal[0], 0.34)

    def test_render(self):
        curves = run_fig10(fractions=(0.5, 0.8), repetitions=2, seed=8)
        assert "Figure 10" in render_fig10(curves)


class TestFig12:
    def test_shape_and_calibration(self):
        rows = run_fig12(client_counts=(10, 60), repetitions=10, seed=9)
        assert rows[0].total_time.mean < rows[1].total_time.mean
        assert rows[1].total_time.mean < 5.0
        assert rows[1].per_client.mean < rows[1].total_time.mean
        # Paper's per-client band at 60 clients.
        assert 1.0 <= rows[1].per_client.mean <= 2.5
        # Serialized pushes: the total grows faster than the mean.
        assert (
            rows[1].total_time.mean / rows[0].total_time.mean
            > rows[1].per_client.mean / rows[0].per_client.mean
        )

    def test_render(self):
        rows = run_fig12(client_counts=(10,), repetitions=3, seed=10)
        assert "Figure 12" in render_fig12(rows)


class TestHeadline:
    def test_within_2x_of_paper(self):
        result = run_headline(repetitions=3, seed=11)
        assert result.within_2x_of_paper
        assert result.result.saved_fraction.mean >= 0.8

    def test_render(self):
        result = run_headline(repetitions=2, seed=12)
        text = render_headline(result)
        assert "paper:" in text
        assert "measured:" in text


class TestAblations:
    def test_claims(self):
        results = run_ablations(repetitions=3)
        # Planner: 8x more bots than replicas, so the even planner's
        # near-zero per-shuffle yield compounds over rounds.
        greedy, even = results.planners["greedy"], results.planners["even"]
        assert even.mean_shuffles > 2 * greedy.mean_shuffles
        assert all(run.reached_target for run in greedy.runs)
        # Estimator: the memoryless MLE costs a bounded premium over the
        # oracle, the posterior almost none, and the defense still
        # converges every run.
        oracle = results.estimators["oracle"].mean_shuffles
        for name, premium in (("mle", 2.5), ("posterior", 1.1)):
            estimated = results.estimators[name]
            assert estimated.mean_shuffles <= premium * oracle
            assert all(run.reached_target for run in estimated.runs)
        # Theorem 1 growth escapes the saturated start pool and reaches
        # the target in a fraction of the fixed pool's rounds.
        fixed_pool, fixed_rounds, _ = results.growth["fixed"]
        pool, rounds, saved = results.growth["adaptive"]
        assert fixed_pool == 8 < pool
        assert saved >= 0.8
        assert rounds < 0.6 * fixed_rounds
