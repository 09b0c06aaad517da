"""Network latency and capacity model for the cloud simulation.

The paper's architecture spans multiple *cloud domains* — "groups of
separately managed cloud servers that do not share common bottleneck
links" (Section III-B).  We model:

- **propagation latency** between any two endpoints as a lognormal draw
  whose median depends on whether the endpoints share a domain (intra-DC
  round trips are sub-millisecond; wide-area ones tens of milliseconds);
- **per-replica ingress bandwidth**, the resource network DDoS floods
  exhaust; and
- **per-replica compute capacity**, the resource computational DDoS
  attacks exhaust.

Capacity is tracked with exponentially-decayed load accumulators
(:class:`LoadMeter`), a standard way to get smooth utilization estimates
out of a DES without fixed-size sampling windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LatencyModel", "LoadMeter", "Endpoint"]


@dataclass(frozen=True)
class Endpoint:
    """A network-addressable entity: ``(domain, address)``.

    ``address`` plays the role of the paper's "unique public DNS name or IP
    address"; moving a service to a new replica means handing clients a new
    ``Endpoint``.
    """

    domain: str
    address: str

    def same_domain(self, other: "Endpoint") -> bool:
        return self.domain == other.domain


@dataclass
class LatencyModel:
    """Lognormal one-way latencies with intra/inter-domain medians.

    Attributes:
        intra_domain_median: median one-way delay within a cloud domain.
        inter_domain_median: median one-way delay across domains / from
            Internet clients to a domain.
        sigma: lognormal shape (spread) parameter.
    """

    intra_domain_median: float = 0.0005
    inter_domain_median: float = 0.040
    sigma: float = 0.35

    def one_way(
        self,
        src: Endpoint,
        dst: Endpoint,
        rng: np.random.Generator,
    ) -> float:
        """Sample a one-way delay between two endpoints."""
        median = (
            self.intra_domain_median
            if src.domain == dst.domain
            else self.inter_domain_median
        )
        return float(rng.lognormal(math.log(median), self.sigma))

    def round_trip(
        self,
        src: Endpoint,
        dst: Endpoint,
        rng: np.random.Generator,
    ) -> float:
        """Sample a full round trip (two independent one-way draws)."""
        return self.one_way(src, dst, rng) + self.one_way(dst, src, rng)


@dataclass(slots=True)
class LoadMeter:
    """Exponentially-decayed load accumulator.

    ``add(now, amount)`` records ``amount`` units of work (packets, request
    cost, bytes) at simulation time ``now``; ``rate(now)`` returns the
    decayed average rate in units/second.  ``half_life`` controls how fast
    history fades — the detection window of the paper's "sudden network
    congestion / abrupt surge of application traffic" indicators.
    """

    half_life: float = 2.0
    _value: float = field(default=0.0, init=False)
    _last: float = field(default=0.0, init=False)
    _horizon: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._horizon = self.half_life / math.log(2)

    def add(self, now: float, amount: float) -> None:
        """Record ``amount`` units of instantaneous work at ``now``."""
        last = self._last
        if now > last:
            decayed = self._value * 0.5 ** ((now - last) / self.half_life)
            self._value = decayed + amount
            self._last = now
        elif now < last - 1e-9:
            raise ValueError(
                f"LoadMeter time went backwards: {now} < {last}"
            )
        else:
            self._value += amount

    def rate(self, now: float) -> float:
        """Decayed average rate in units/second.

        The accumulator integrates to ``amount * half_life / ln 2`` for a
        single burst, so dividing by that horizon yields a rate estimate.
        """
        last = self._last
        if now > last:
            self._value *= 0.5 ** ((now - last) / self.half_life)
            self._last = now
        elif now < last - 1e-9:
            raise ValueError(
                f"LoadMeter time went backwards: {now} < {last}"
            )
        return self._value / self._horizon

    def reset(self) -> None:
        self._value = 0.0
