"""The coordination server's decision (paper Sections III-D, IV and V).

One loop, whatever runs it: count the attacked replicas, estimate the
bot count ``M``, plan group sizes for the clients still under attack,
shuffle them or stop.  This module is that decision and nothing else —
no clock, no I/O, no randomness; the counts engine, the DES coordinator
and the live coordinator only build the :class:`Observation`, open their
spans and carry out the :class:`Decision` (see ``docs/live-vs-sim.md``).
The counts engine and the DES coordinator drive the paper's memoryless
:class:`ShufflePolicy`; the live coordinator drives
:class:`PosteriorPolicy`, which carries its evidence across rounds.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..obs.instruments import Instruments, resolve_instruments
from ..trust.prior import bot_count_log_prior
from . import api
from .combinatorics import logsumexp, survival_log_probabilities
from .estimator import (
    BotEstimate,
    attacked_count_log_pmf,
    occupancy_likelihoods,
)
from .plan import ShufflePlan

__all__ = [
    "Decision",
    "Observation",
    "PosteriorPolicy",
    "ShufflePolicy",
]


@dataclass(frozen=True)
class Observation:
    """What one detection sweep (or one finished round) showed."""

    #: attacked replicas ``X``, out of the ``P`` the count was taken over
    n_attacked: int
    n_replicas: int
    #: clients on the attacked replicas: the most bots ``X`` admits
    n_clients: int
    #: the previous plan's group sizes, given only when every attacked
    #: replica came out of it: every bot rode the previous shuffle, so
    #: its sizes are the occupancy model for this count
    plan_sizes: tuple[int, ...] | None = None
    #: the trust model's expected bot count among those clients (their
    #: low-trust mass ``sum(1 - trust)``), and the weight of that prior
    expected_bots: float | None = None
    prior_strength: float = 1.0
    #: clients among these shown by heavy-hitter reports to send
    #: attack-scale traffic: a floor under the bot count
    demonstrated_bots: int = 0


@dataclass(frozen=True)
class Decision:
    """``action`` is ``"shuffle"`` (carry out ``plan``) or
    ``"quarantine"`` (write the attacked replicas off)."""

    action: str
    believed_bots: int
    plan: ShufflePlan


class ShufflePolicy:
    """The paper's memoryless rule: one estimate per observation,
    clamped to the population, planned.  ``planner`` is an
    ``api.PLAN_METHODS`` name or any ``PlanSource``; ``estimator`` is
    ``"oracle"`` (the driver sets :attr:`belief` to the truth) or an
    ``api.ESTIMATE_METHODS`` name."""

    def __init__(
        self,
        planner: api.PlanSource | str = "greedy",
        estimator: str = "mle",
        instruments: Instruments | None = None,
    ) -> None:
        if isinstance(planner, str):
            planner = api.planner(planner, instruments=instruments)
        self.planner = planner
        self.estimator = estimator
        self.instruments = instruments
        #: the carried bot count; ``None`` before any evidence
        self.belief: int | None = None
        #: the estimator behind the latest belief update
        self.method = estimator

    def believe(self, seen: Observation) -> BotEstimate | None:
        """Step 1: update the carried belief from one observation."""
        if self.estimator == "oracle":
            return None
        self.method = self.estimator
        # weighted: the likelihood over the plan's *actual* group sizes
        weighted = self.method == "weighted"
        upper = max(seen.n_clients, seen.n_attacked)
        if weighted:
            upper = sum(seen.plan_sizes or ())
        request = api.EstimateRequest(
            seen.n_attacked,
            seen.n_replicas,
            upper,
            sizes=seen.plan_sizes if weighted else None,
            log_prior=self._trust_prior(seen, upper),
            method=self.method,
        )
        result = api.estimate(request, instruments=self.instruments)
        self.belief = result.m_hat
        return result

    @staticmethod
    def _trust_prior(seen: Observation, upper: int) -> np.ndarray | None:
        """Log-prior pulling the MAP estimate toward the trust model's
        expected count; ``None`` (the estimators' pure-likelihood path)
        without a trust model or at strength 0."""
        if seen.expected_bots is None or seen.prior_strength <= 0:
            return None
        return bot_count_log_prior(
            upper, seen.expected_bots, seen.prior_strength
        )

    def believed(self, n_clients: int) -> int:
        """The carried belief, clamped to a population of ``n_clients``."""
        if self.belief is None:
            raise ValueError("no belief yet: nothing has been observed")
        return max(0, min(self.belief, n_clients))

    def decide(self, n_clients: int, n_replicas: int) -> Decision:
        """Step 2: plan ``n_clients`` over ``n_replicas`` replicas."""
        believed = self.believed(n_clients)
        plan = self.planner(n_clients, believed, n_replicas)
        return Decision("shuffle", believed, plan)


class PosteriorPolicy(ShufflePolicy):
    """The live chain: one posterior over the bot count ``m`` among the
    attacked clients, carried across rounds (the sequential evidence of
    Fleck et al., 1712.01102).  Its rules, stated once:

    * support: ``m`` in ``[max(X, suspects), N]``, the floor capped at N;
    * fresh start (no posterior yet, or the cut empties it): the
      occupancy likelihood over ``seen.n_replicas`` times the trust
      log-prior, else ``-log(m + 1)``, whose ``X = P`` mode sits near the
      Theorem 1 bound where a flat prior's would sit at N;
    * attack inside the last plan (``plan_sizes`` given): times the
      Poisson-binomial likelihood over the plan's sizes;
    * attack outside it: carried and cut (it shows only ``M >= X``);
    * belief: the mode; plan: greedy at the mode over N replicas when
      ``N <= DISPERSE_MAX_FACTOR * P`` (all singletons once most are
      believed bots), over P otherwise;
    * quarantine: when the posterior-expected Equation 1 saves of that
      plan fall below :attr:`QUARANTINE_EXPECTED_SAVED`.

    :attr:`method` names the latest update: ``occupancy``, ``weighted``
    or ``carried``.
    """

    QUARANTINE_EXPECTED_SAVED = 0.5
    #: bounds the replica fan-out of a one-replica-per-client round
    DISPERSE_MAX_FACTOR = 4

    def __init__(
        self,
        planner: api.PlanSource | str = "greedy",
        instruments: Instruments | None = None,
    ) -> None:
        super().__init__(planner, "occupancy", instruments)
        #: log-pmf over ``m = 0..N`` after the latest observation
        self.log_posterior: np.ndarray | None = None

    def believe(self, seen: Observation) -> BotEstimate | None:
        obs = resolve_instruments(self.instruments)
        with (
            obs.spans.span("core_estimate")
            if obs is not None
            else nullcontext()
        ) as span:
            self._update(seen)
            if span is not None:
                span.set(method=self.method, m_hat=self.belief)
        return None

    def _update(self, seen: Observation) -> None:
        n = seen.n_clients
        floor = min(max(seen.n_attacked, seen.demonstrated_bots), n)
        log_post, self.method = self.log_posterior, "carried"
        if log_post is not None and seen.plan_sizes is not None:
            sizes, self.method = seen.plan_sizes, "weighted"
            ms = np.flatnonzero(np.isfinite(log_post[: sum(sizes) + 1]))
            rows = attacked_count_log_pmf(sizes, sum(sizes), ms)
            likelihood = np.full(log_post.size, -np.inf)
            likelihood[ms] = rows[:, seen.n_attacked]
            log_post = log_post + likelihood
        cut = np.full(n + 1, -np.inf)
        if log_post is not None:
            top = min(log_post.size, n + 1)
            cut[floor:top] = log_post[floor:top]
        if np.isneginf(cut).all():
            self.method = "occupancy"
            with np.errstate(divide="ignore"):  # log 0 below m = X
                fresh = np.log(
                    occupancy_likelihoods(seen.n_attacked, seen.n_replicas, n)
                )
            prior = self._trust_prior(seen, n)
            if prior is None:
                prior = -np.log1p(np.arange(n + 1, dtype=np.float64))
            cut[floor:] = (fresh + prior)[floor:]
        if np.isneginf(cut).all():  # N < X, N = 0 included: the floor
            cut[floor] = 0.0
        self.log_posterior = cut - logsumexp(cut)
        self.belief = int(np.argmax(cut))

    def decide(self, n_clients: int, n_replicas: int) -> Decision:
        believed = self.believed(n_clients)
        width = n_replicas
        if n_clients <= self.DISPERSE_MAX_FACTOR * n_replicas:
            width = n_clients
        plan = self.planner(n_clients, believed, width)
        if self.expected_saved(plan) < self.QUARANTINE_EXPECTED_SAVED:
            return Decision("quarantine", believed, plan)
        return Decision("shuffle", believed, plan)

    def expected_saved(self, plan: ShufflePlan) -> float:
        """Equation 1 of ``plan`` averaged over the posterior."""
        ms = np.flatnonzero(np.isfinite(self.log_posterior))
        sizes = plan.sizes_array
        log_p = survival_log_probabilities(plan.n_clients, ms, sizes)
        return float(np.exp(self.log_posterior[ms]) @ (np.exp(log_p) @ sizes))
