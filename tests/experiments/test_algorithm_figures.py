"""Tests for the algorithm-level figure drivers (Figures 3-6)."""

from __future__ import annotations

from repro.experiments.fig3 import render_fig3, run_fig3
from repro.experiments.fig4 import render_fig4, run_fig4
from repro.experiments.fig5 import (
    fit_growth_exponent,
    render_fig5,
    run_fig5,
)
from repro.experiments.fig6 import render_fig6, run_fig6


class TestFig3:
    def test_paper_claim_curves_overlap(self):
        """Greedy matches the optimal DP within 1 point everywhere."""
        rows = run_fig3()
        assert len(rows) == 4 * 6
        for row in rows:
            assert row.gap <= 0.01
            assert row.greedy_saved <= row.optimal_saved + 1e-9

    def test_more_replicas_save_more(self):
        rows = run_fig3(bot_counts=(200,), replica_counts=(50, 100, 200))
        values = [row.optimal_saved for row in rows]
        assert values == sorted(values)

    def test_more_bots_save_fewer(self):
        rows = run_fig3(bot_counts=(50, 200, 500), replica_counts=(100,))
        values = [row.optimal_saved for row in rows]
        assert values == sorted(values, reverse=True)

    def test_render(self):
        text = render_fig3(run_fig3(bot_counts=(50,), replica_counts=(50,)))
        assert "Figure 3" in text
        assert "worst greedy-vs-optimal gap" in text


class TestFig4:
    def test_paper_claim_even_collapses_beyond_replica_count(self):
        rows = run_fig4()
        for row in rows:
            if row.n_bots >= 3 * row.n_replicas:
                # Even saves almost nothing; greedy is far ahead.
                assert row.even_fraction < 0.05
                assert row.greedy_fraction > 2 * row.even_fraction
            assert row.greedy_saved >= row.even_saved - 1e-9

    def test_even_competitive_below_replica_count(self):
        rows = run_fig4(bot_counts=(50,), replica_counts=(100, 200))
        for row in rows:
            assert row.even_fraction > 0.8 * row.greedy_fraction

    def test_render(self):
        text = render_fig4(run_fig4(bot_counts=(50,), replica_counts=(100,)))
        assert "Figure 4" in text


class TestFig5:
    def test_runtime_grows_polynomially(self):
        # N must be large enough that the vectorized per-row broadcast
        # dominates fixed dispatch overhead, or the fitted exponent
        # under-reads the asymptote.
        rows = run_fig5(client_counts=(50, 100, 150), replica_counts=(3,),
                        bot_fraction=0.2)
        times = [row.seconds for row in rows]
        assert times == sorted(times)
        exponent = fit_growth_exponent(rows)
        # Algorithm 1 is at least cubic-ish in N.  Not "> 2.5" nor "> 1 h
        # extrapolated at N=1000": the vectorized DP fits 2.25-2.99 and
        # extrapolates to 117-533 s run to run (EXPERIMENTS.md, Fig. 5).
        assert exponent > 2.0

    def test_more_replicas_cost_more(self):
        rows = run_fig5(client_counts=(30,), replica_counts=(2, 6))
        assert rows[0].seconds < rows[1].seconds

    def test_render_mentions_extrapolation(self):
        rows = run_fig5(client_counts=(20, 30, 40), replica_counts=(3,))
        text = render_fig5(rows)
        assert "extrapolated runtime at N=1000" in text


class TestFig6:
    def test_greedy_runs_in_milliseconds(self):
        rows = run_fig6(repeats=3)
        assert len(rows) == 4 * 6
        for row in rows:
            assert row.milliseconds < 50.0  # paper: a few ms

    def test_render(self):
        text = render_fig6(run_fig6(bot_counts=(100,),
                                    replica_counts=(50,), repeats=2))
        assert "Figure 6" in text


class TestRuntimeSeparation:
    def test_dp_vs_greedy_orders_of_magnitude(self):
        """The message of Figures 5 vs 6: the DP is astronomically slower."""
        import time

        from repro.core.dp import optimal_assign
        from repro.core.greedy import greedy_sizes

        start = time.perf_counter()
        optimal_assign(60, 12, 4)
        dp_time = time.perf_counter() - start

        start = time.perf_counter()
        greedy_sizes(60, 12, 4)
        greedy_time = time.perf_counter() - start

        assert dp_time > 20 * greedy_time
