"""Unified batch-first estimator/planner API (the one core seam).

Decisions — estimate this attack, plan this shuffle — go through two
dispatchers over frozen request dataclasses:

    estimate(EstimateRequest(...)) -> BotEstimate
    plan(PlanRequest(...))         -> ShufflePlan

with uniform keywords across methods (``method=``, ``instruments=``).

Dispatch is deliberately thin: each method maps onto exactly one
vectorized kernel (``repro.core.estimator`` / the planner modules), so
behaviour is bit-identical to calling the kernel directly.  The estimator
``method="auto"`` picks from the evidence shape (group sizes known →
weighted, otherwise uniform MLE); a plan request defaults to greedy.

See ``docs/core-api.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Protocol

import numpy as np

from ..obs.instruments import Instruments, resolve_instruments
from .dp import _dp_plan
from .dp_fast import _dp_fast_plan
from .estimator import (
    BotEstimate,
    _estimate_mle,
    _estimate_moment,
    _estimate_weighted,
)
from .even import _even_plan
from .greedy import _greedy_plan
from .plan import ShufflePlan

__all__ = [
    "ESTIMATE_METHODS",
    "PLAN_METHODS",
    "EstimateRequest",
    "PlanRequest",
    "PlanSource",
    "estimate",
    "plan",
    "planner",
]

#: Estimator dispatch keys accepted by :class:`EstimateRequest`.
ESTIMATE_METHODS = ("auto", "mle", "moment", "weighted")

#: Planner dispatch keys accepted by :class:`PlanRequest`.
PLAN_METHODS = ("greedy", "even", "dp", "dp_fast")


class PlanSource(Protocol):
    """Anything that serves a plan for ``(N, M, P)`` — e.g. a PlanCache."""

    def __call__(
        self, n_clients: int, n_bots: int, n_replicas: int
    ) -> ShufflePlan: ...


@dataclass(frozen=True)
class EstimateRequest:
    """One attack-scale estimation query.

    Attributes:
        n_attacked: observed attacked-replica count ``X``.
        n_replicas: replica count ``P`` (uniform methods ``mle`` /
            ``moment``; inferred as ``len(sizes)`` when sizes are given).
        upper_bound: largest admissible bot count (uniform methods;
            ``weighted`` always bounds by ``N = sum(sizes)``).
        sizes: planned group sizes of the observed shuffle — supplying
            them selects the non-uniform ``weighted`` likelihood under
            ``method="auto"``.
        method: ``"auto"`` | ``"mle"`` | ``"moment"`` | ``"weighted"``.
    """

    n_attacked: int
    n_replicas: int | None = None
    upper_bound: int | None = None
    sizes: tuple[int, ...] | None = None
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.method not in ESTIMATE_METHODS:
            raise ValueError(
                f"unknown estimate method {self.method!r}; choose from "
                f"{ESTIMATE_METHODS}"
            )
        if self.sizes is not None:
            # operator.index: numpy integers pass, a non-integral size
            # raises TypeError instead of being truncated.
            object.__setattr__(self, "sizes", tuple(map(index, self.sizes)))

    def resolved_method(self) -> str:
        """The concrete method ``"auto"`` dispatches to."""
        if self.method != "auto":
            return self.method
        return "weighted" if self.sizes is not None else "mle"


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


def _request_sizes(request: EstimateRequest) -> np.ndarray:
    if request.sizes is None:
        raise ValueError(
            "method='weighted' requires the observed group sizes"
        )
    return np.asarray(request.sizes, dtype=np.int64)


def _uniform_args(request: EstimateRequest) -> tuple[int, int]:
    n_replicas = request.n_replicas
    if n_replicas is None and request.sizes is not None:
        n_replicas = len(request.sizes)
    if n_replicas is None:
        raise ValueError(
            f"method={request.resolved_method()!r} requires n_replicas"
        )
    upper_bound = request.upper_bound
    if upper_bound is None:
        raise ValueError(
            f"method={request.resolved_method()!r} requires upper_bound"
        )
    return n_replicas, upper_bound


def _estimate_dispatch(request: EstimateRequest) -> BotEstimate:
    method = request.resolved_method()
    if method == "weighted":
        xs = _request_sizes(request)
        return _estimate_weighted(request.n_attacked, xs, int(xs.sum()))
    n_replicas, upper_bound = _uniform_args(request)
    if method == "moment":
        return _estimate_moment(request.n_attacked, n_replicas, upper_bound)
    return _estimate_mle(request.n_attacked, n_replicas, upper_bound)


def estimate(
    request: EstimateRequest, *, instruments: Instruments | None = None
) -> BotEstimate:
    """Dispatch one estimation request to its vectorized kernel.

    Args:
        request: the query; ``request.method`` selects the kernel.
        instruments: optional :class:`repro.obs.Instruments` handle (the
            repo-wide ``instruments=`` convention); when enabled the call
            records a ``core_estimate`` span and bumps
            ``core_estimate_total{method=...}``.
    """
    obs = resolve_instruments(instruments)
    method = request.resolved_method()
    if obs is None:
        return _estimate_dispatch(request)
    with obs.spans.span("core_estimate", method=method) as span:
        result = _estimate_dispatch(request)
        span.set(m_hat=result.m_hat, degenerate=result.degenerate)
    obs.registry.counter(
        "core_estimate_total",
        "Estimation requests dispatched through repro.core.api.",
        ("method",),
    ).inc(method=method)
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
