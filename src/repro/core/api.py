"""Unified batch-first estimator/planner API (the one core seam).

Decisions — estimate this attack, plan this shuffle — go through two
dispatchers over frozen request dataclasses:

    estimate(EstimateRequest(...)) -> BotEstimate
    plan(PlanRequest(...))         -> ShufflePlan

with uniform keywords (``instruments=``; a plan request also takes
``method=``).

Dispatch is deliberately thin: each request maps onto exactly one
vectorized kernel (``repro.core.estimator`` / the planner modules), so
behaviour is bit-identical to calling the kernel directly.  ``estimate``
is the paper's uniform occupancy MLE; a plan request defaults to greedy.

See ``docs/core-api.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..obs.instruments import Instruments, resolve_instruments
from .dp import _dp_plan
from .dp_fast import _dp_fast_plan
from .estimator import BotEstimate, _estimate_mle
from .even import _even_plan
from .greedy import _greedy_plan
from .plan import ShufflePlan

__all__ = [
    "PLAN_METHODS",
    "EstimateRequest",
    "PlanRequest",
    "PlanSource",
    "estimate",
    "plan",
    "planner",
]

#: Planner dispatch keys accepted by :class:`PlanRequest`.
PLAN_METHODS = ("greedy", "even", "dp", "dp_fast")


class PlanSource(Protocol):
    """Anything that serves a plan for ``(N, M, P)`` — e.g. a PlanCache."""

    def __call__(
        self, n_clients: int, n_bots: int, n_replicas: int
    ) -> ShufflePlan: ...


@dataclass(frozen=True)
class EstimateRequest:
    """One attack-scale estimation query (the uniform occupancy MLE).

    Attributes:
        n_attacked: observed attacked-replica count ``X``.
        n_replicas: replica count ``P``.
        upper_bound: largest admissible bot count (the clients on the
            attacked replicas).
    """

    n_attacked: int
    n_replicas: int
    upper_bound: int


@dataclass(frozen=True)
class PlanRequest:
    """One shuffle-planning query.

    Attributes:
        n_clients: clients to assign ``N``.
        n_bots: believed persistent-bot count ``M``.
        n_replicas: shuffle pool size ``P``.
        method: ``"greedy"`` | ``"even"`` | ``"dp"`` | ``"dp_fast"``.
    """

    n_clients: int
    n_bots: int
    n_replicas: int
    method: str = "greedy"

    def __post_init__(self) -> None:
        if self.method not in PLAN_METHODS:
            raise ValueError(
                f"unknown plan method {self.method!r}; choose from "
                f"{PLAN_METHODS}"
            )


def estimate(
    request: EstimateRequest, *, instruments: Instruments | None = None
) -> BotEstimate:
    """Answer one estimation request with the occupancy MLE kernel.

    Args:
        request: the query.
        instruments: optional :class:`repro.obs.Instruments` handle (the
            repo-wide ``instruments=`` convention); when enabled the call
            records a ``core_estimate`` span and bumps
            ``core_estimate_total{method="mle"}``.
    """
    obs = resolve_instruments(instruments)
    args = (request.n_attacked, request.n_replicas, request.upper_bound)
    if obs is None:
        return _estimate_mle(*args)
    with obs.spans.span("core_estimate", method="mle") as span:
        result = _estimate_mle(*args)
        span.set(m_hat=result.m_hat, degenerate=result.degenerate)
    obs.registry.counter(
        "core_estimate_total",
        "Estimation requests dispatched through repro.core.api.",
        ("method",),
    ).inc(method="mle")
    return result


def _plan_dispatch(request: PlanRequest) -> ShufflePlan:
    planner = _PLANNER_IMPLS[request.method]
    return planner(request.n_clients, request.n_bots, request.n_replicas)


def plan(
    request: PlanRequest, *, instruments: Instruments | None = None
) -> ShufflePlan:
    """Dispatch one planning request to its vectorized kernel.

    Args:
        request: the query; ``request.method`` selects the planner.
        instruments: optional :class:`repro.obs.Instruments` handle; when
            enabled the call records a ``core_plan`` span and bumps
            ``core_plan_total{method=...}``.
    """
    obs = resolve_instruments(instruments)
    method = request.method
    if obs is None:
        return _plan_dispatch(request)
    with obs.spans.span("core_plan", method=method) as span:
        result = _plan_dispatch(request)
        span.set(
            expected_saved=result.expected_saved,
            algorithm=result.algorithm,
        )
    obs.registry.counter(
        "core_plan_total",
        "Planning requests dispatched through repro.core.api.",
        ("method",),
    ).inc(method=method)
    return result


_PLANNER_IMPLS: dict[str, PlanSource] = {
    "greedy": _greedy_plan,
    "even": _even_plan,
    "dp": _dp_plan,
    "dp_fast": _dp_fast_plan,
}


def planner(
    method: str, *, instruments: Instruments | None = None
) -> PlanSource:
    """A :class:`PlanSource` closure over one plan method.

    Adapts the request API back to the positional planner protocol used
    by :class:`repro.core.shuffler.ShuffleEngine` and the simulators.
    """
    if method not in PLAN_METHODS:
        raise ValueError(
            f"unknown planner {method!r}; choose from {PLAN_METHODS}"
        )

    def _call(n_clients: int, n_bots: int, n_replicas: int) -> ShufflePlan:
        return plan(
            PlanRequest(
                n_clients=n_clients,
                n_bots=n_bots,
                n_replicas=n_replicas,
                method=method,
            ),
            instruments=instruments,
        )

    _call.__name__ = method
    return _call
