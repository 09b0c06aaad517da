"""The coordination server's decision (paper Sections III-D, IV and V).

One loop, whatever runs it: count the attacked replicas, update the
belief about the bot count ``M``, plan group sizes for the clients still
under attack, shuffle them or stop.  This module is that decision and
nothing else — no clock, no I/O, no randomness; the counts engine, the
DES coordinator and the live coordinator only build the
:class:`Observation`, open their spans and carry out the
:class:`Decision` (see ``docs/live-vs-sim.md``).  All three drive
:class:`PosteriorPolicy`, which carries its evidence across rounds; the
engine's ``"mle"`` runs the paper's memoryless :class:`ShufflePolicy`
instead, as a baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.instruments import Instruments, resolve_instruments
from ..trust.prior import bot_count_log_prior
from . import api
from .combinatorics import logsumexp, survival_log_probabilities
from .estimator import (
    BotEstimate,
    attacked_count_log_likelihood,
    occupancy_likelihoods,
)
from .plan import ShufflePlan, _distinct_sizes

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
    #: low-trust mass ``sum(1 - trust)``), and the weight of that prior;
    #: only :class:`PosteriorPolicy` reads them
    expected_bots: float | None = None
    prior_strength: float = 1.0
    #: clients among these shown by heavy-hitter reports to send
    #: attack-scale traffic: a floor under the bot count
    demonstrated_bots: int = 0


@dataclass(frozen=True)
class Decision:
    """``action`` is ``"shuffle"`` (carry out ``plan``) or
    ``"quarantine"`` (write the attacked replicas off).  Only the live
    coordinator writes replicas off: the engine and the DES carry out
    ``plan`` whatever the action."""

    action: str
    believed_bots: int
    plan: ShufflePlan


class ShufflePolicy:
    """The paper's memoryless rule: one uniform occupancy MLE per
    observation, clamped to the population, planned.  ``planner`` is an
    ``api.PLAN_METHODS`` name or any ``PlanSource``."""

    #: the estimator behind the latest belief update
    method = "mle"

    def __init__(
        self,
        planner: api.PlanSource | str = "greedy",
        instruments: Instruments | None = None,
    ) -> None:
        if isinstance(planner, str):
            planner = api.planner(planner, instruments=instruments)
        self.planner = planner
        self.instruments = instruments
        #: the carried bot count; ``None`` before any evidence
        self.belief: int | None = None

    def forget(self) -> None:
        """Drop every belief: the next round starts with no evidence."""
        self.belief = None

    def believe(self, seen: Observation) -> BotEstimate | None:
        """Step 1: update the carried belief from one observation."""
        result = api.estimate(
            seen.n_attacked,
            seen.n_replicas,
            max(seen.n_clients, seen.n_attacked),
            instruments=self.instruments,
        )
        self.belief = result.m_hat
        return result

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
    """One posterior over the bot count ``m`` among the attacked
    clients, carried across rounds (the sequential evidence of Fleck et
    al., 1712.01102).  Its rules, stated once:

    * support: ``m`` in ``[max(X, suspects), N]``, the floor capped at N;
    * prior: the trust log-prior, else ``-log(m + 1)``, whose ``X = P``
      mode sits near the Theorem 1 bound where a flat prior's would sit
      at N;
    * attack inside the last plan (``plan_sizes`` given): the posterior
      (the prior, if there is none yet) times the likelihood of ``X``
      over the plan's sizes;
    * attack outside it: carried and cut (it shows only ``M >= X``);
    * fresh start (no posterior and no plan, or the cut empties it): the
      prior times the occupancy likelihood over ``seen.n_replicas``;
    * a belief set with no posterior (round one, or the engine's oracle)
      is a point mass;
    * belief: the mode; plan: greedy at the mode over the width the
      driver gives;
    * quarantine: when the posterior-expected Equation 1 saves of that
      plan fall below :attr:`QUARANTINE_EXPECTED_SAVED`.

    :attr:`method` names the latest update: ``occupancy``, ``weighted``
    or ``carried``.
    """

    QUARANTINE_EXPECTED_SAVED = 0.5
    method = "occupancy"
    #: log-pmf over ``m = 0..N`` after the latest observation
    log_posterior: np.ndarray | None = None

    def forget(self) -> None:
        super().forget()
        self.log_posterior = None

    def believe(self, seen: Observation) -> BotEstimate | None:
        obs = resolve_instruments(self.instruments)
        with obs.spans.span("core_estimate") as span:
            self._update(seen)
            span.set(method=self.method, m_hat=self.belief)
        return None

    def _update(self, seen: Observation) -> None:
        n = seen.n_clients
        floor = min(max(seen.n_attacked, seen.demonstrated_bots), n)
        log_post, self.method = self.log_posterior, "carried"
        if seen.plan_sizes is not None:
            sizes, self.method = seen.plan_sizes, "weighted"
            total = sum(sizes)
            if log_post is None:
                log_post = self._log_prior(seen, total)
            ms = np.flatnonzero(np.isfinite(log_post[: total + 1]))
            likelihood = np.full(log_post.size, -np.inf)
            likelihood[ms] = attacked_count_log_likelihood(
                sizes, total, ms, seen.n_attacked
            )
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
            cut[floor:] = (fresh + self._log_prior(seen, n))[floor:]
        if np.isneginf(cut).all():  # N < X, N = 0 included: the floor
            cut[floor] = 0.0
        self.log_posterior = cut - logsumexp(cut)
        self.belief = int(np.argmax(cut))

    @classmethod
    def _log_prior(cls, seen: Observation, upper: int) -> np.ndarray:
        """Log-prior over ``m = 0..upper``: the trust model's, else
        ``-log(m + 1)``."""
        prior = cls._trust_prior(seen, upper)
        if prior is None:
            prior = -np.log1p(np.arange(upper + 1, dtype=np.float64))
        return prior

    @staticmethod
    def _trust_prior(seen: Observation, upper: int) -> np.ndarray | None:
        """Log-prior over ``m = 0..upper`` centred on the trust model's
        expected count; ``None`` without a trust model or at strength 0."""
        if seen.expected_bots is None or seen.prior_strength <= 0:
            return None
        return bot_count_log_prior(
            upper, seen.expected_bots, seen.prior_strength
        )

    def decide(self, n_clients: int, n_replicas: int) -> Decision:
        believed = self.believed(n_clients)
        plan = self.planner(n_clients, believed, n_replicas)
        if self.expected_saved(plan) < self.QUARANTINE_EXPECTED_SAVED:
            return Decision("quarantine", believed, plan)
        return Decision("shuffle", believed, plan)

    def expected_saved(self, plan: ShufflePlan) -> float:
        """Equation 1 of ``plan`` averaged over the posterior."""
        if self.log_posterior is None:  # a planted belief: a point mass
            ms = np.array([self.believed(plan.n_clients)])
            weights = np.ones(1)
        else:
            ms = np.flatnonzero(np.isfinite(self.log_posterior))
            weights = np.exp(self.log_posterior[ms])
        # One survival term per distinct size, weighted by its clients.
        sizes, clients = _distinct_sizes(plan)
        log_p = survival_log_probabilities(plan.n_clients, ms, sizes)
        return float(weights @ (np.exp(log_p) @ clients))
