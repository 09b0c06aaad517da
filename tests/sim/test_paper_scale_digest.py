"""One paper-scale trajectory, pinned round by round.

``benchmarks/perf``'s ``SIM_ROUNDS`` gate pins only how many rounds the
paper-scale MLE run takes; this pins every plan and every belief on the
way.  It is the quick bit-identity check for any edit to the planner or
the estimator: ~1 s, no sockets, no floats in the hash (so a different
libm cannot move it).
"""

from __future__ import annotations

import hashlib

from repro.core import combinatorics, objective
from repro.core.estimator import _occupancy_sweep
from repro.sim import shuffle_sim
from repro.sim.shuffle_sim import ShuffleScenario, run_scenario

#: The ``sim_mle_scale`` input, restated here so the pin does not depend
#: on the benchmark's files.
SCENARIO = ShuffleScenario(
    benign=50_000,
    bots=100_000,
    n_replicas=1_000,
    target_fraction=0.8,
    estimator="mle",
    preload_bots=True,
)


class TestPaperScaleTrajectory:
    #: sha256 over every round's integers, captured at commit 9e099f0 —
    #: before ``single_replica_optimum`` stopped scanning all of [1, N]
    #: and ``greedy_sizes`` stopped walking the P replicas.
    GOLDEN = (
        "17c182c0077f294e6291a7e92f85354b1d7054c93b42e38dafd2695b372f8eda"
    )
    ROUNDS = 323

    def test_every_round_matches_the_golden_digest(self, monkeypatch):
        states = []
        record_from_state = shuffle_sim._record_from_state

        def keep_state(state, scenario):
            states.append(state)
            return record_from_state(state, scenario)

        monkeypatch.setattr(shuffle_sim, "_record_from_state", keep_state)
        outcome = run_scenario(SCENARIO, repetitions=1, seed=1)
        assert outcome.runs[0].reached_target
        (state,) = states
        running = hashlib.sha256()
        for result in state.rounds:
            sizes = result.plan.group_sizes
            assert all(type(size) is int for size in sizes)
            row = (
                result.n_clients,
                result.believed_bots,
                sizes,
                result.n_attacked,
                result.benign_saved,
            )
            running.update(repr(row).encode())
        assert len(state.rounds) == self.ROUNDS
        assert running.hexdigest() == self.GOLDEN

    def test_one_occupancy_sweep_answers_every_estimate(self):
        # A program count, not a timing: the 162 non-degenerate estimates
        # share one walk of the P = 1000 table, which ends where the
        # latest-peaking observation of the run is certified (the same
        # estimates took 244,604 row steps as 162 separate sweeps).
        _occupancy_sweep.cache_clear()
        run_scenario(SCENARIO, repetitions=1, seed=1)
        info = _occupancy_sweep.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        assert _occupancy_sweep(SCENARIO.n_replicas).balls == 1_972

    def test_a_greedy_plan_is_two_kernel_calls_and_reads_log_t_from_the_table(
        self, monkeypatch
    ):
        # A program count, not a timing: each plan evaluates Equation 1
        # once at ω (one point, or two at an exact tie) and once to score
        # the greedy and even runs, and no gammaln is evaluated except to
        # grow the log t! table.
        kernel_calls = 0
        lgamma_outside_growth = 0
        growing = False
        kernel = objective.expected_saved_single_few
        vector_lgamma = combinatorics._VECTOR_LGAMMA
        log_factorials = combinatorics._log_factorials

        def counted_kernel(n, m, xs):
            nonlocal kernel_calls
            kernel_calls += 1
            return kernel(n, m, xs)

        def counted_lgamma(values):
            nonlocal lgamma_outside_growth
            lgamma_outside_growth += not growing
            return vector_lgamma(values)

        def growth(top):
            nonlocal growing
            growing = True
            try:
                return log_factorials(top)
            finally:
                growing = False

        monkeypatch.setattr(
            objective, "expected_saved_single_few", counted_kernel
        )
        monkeypatch.setattr(combinatorics, "_VECTOR_LGAMMA", counted_lgamma)
        monkeypatch.setattr(combinatorics, "_log_factorials", growth)
        outcome = run_scenario(SCENARIO, repetitions=1, seed=1)
        assert outcome.runs[0].n_shuffles == self.ROUNDS
        assert kernel_calls == 2 * self.ROUNDS
        assert lgamma_outside_growth == 0
