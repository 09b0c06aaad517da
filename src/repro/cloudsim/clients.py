"""Client-side agents: benign users, persistent bots, on-off bots.

Threat model (paper Section II-B): *naive bots* only attack fixed addresses
from a hit-list (they live in :mod:`repro.cloudsim.botnet`); *persistent
bots* interact with the environment exactly like benign clients — resolve
DNS, follow load-balancer and shuffle redirects — and then betray the
replica locations to the botnet, or act as insiders launching computational
attacks themselves.  *On-off bots* (Section VII) are persistent bots that go
quiet whenever they notice a shuffle, hoping to blend with benign clients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .network import Endpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .botnet import Botnet
    from .system import CloudContext

__all__ = ["ClientStats", "BenignClient", "PersistentBot", "OnOffBot"]


@dataclass
class ClientStats:
    """Per-client request bookkeeping."""

    requests_sent: int = 0
    requests_ok: int = 0
    requests_failed: int = 0
    migrations: int = 0
    rejoins: int = 0
    total_latency: float = 0.0

    @property
    def success_ratio(self) -> float:
        if self.requests_sent == 0:
            return 1.0
        return self.requests_ok / self.requests_sent

    @property
    def mean_latency(self) -> float:
        if self.requests_ok == 0:
            return 0.0
        return self.total_latency / self.requests_ok


class BenignClient:
    """A legitimate user session.

    Joins through DNS → load balancer → replica (steps 1-6 of the paper's
    Figure 1), then issues requests on a think-time loop and follows any
    redirect its replica pushes during a shuffle.
    """

    kind = "benign"

    def __init__(self, ctx: "CloudContext", client_id: str) -> None:
        self.ctx = ctx
        self.client_id = client_id
        # Clients live "on the Internet": model them as a distinct domain
        # so client<->cloud latency is wide-area.
        self.endpoint = Endpoint(domain="internet", address=client_id)
        self.replica_endpoint: Endpoint | None = None
        self.stats = ClientStats()
        self.active = True
        self._request_work = ctx.config.request_work
        self._think_time = ctx.config.think_time

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------
    def join(self) -> None:
        """Resolve the service and obtain a replica assignment."""
        lb_endpoint = self.ctx.dns.resolve(self.ctx.dns.service_name)
        balancer = self.ctx.dns.balancer_for(lb_endpoint)
        rtt = self.ctx.latency.round_trip(self.endpoint, lb_endpoint,
                                          self.ctx.rng)
        self.ctx.sim.schedule(rtt, lambda: self._complete_join(balancer))

    def _complete_join(self, balancer) -> None:
        if not self.active:
            return
        target = balancer.assign(self.client_id, self)
        if target is None:
            # No active replica right now (mid-substitution): back off.
            self.ctx.sim.schedule(
                self.ctx.config.join_retry_delay, self.join
            )
            return
        self.replica_endpoint = target
        self.on_assigned(target)
        self._schedule_next_request(initial=True)

    def on_assigned(self, endpoint: Endpoint) -> None:
        """Hook invoked whenever the client learns a replica location."""

    # ------------------------------------------------------------------
    # request loop
    # ------------------------------------------------------------------
    def _schedule_next_request(self, initial: bool = False) -> None:
        if not self.active:
            return
        think = self.ctx.rng.exponential(self._think_time)
        if initial:
            think *= self.ctx.rng.random()  # desynchronize start-up
        self.ctx.sim.schedule(max(1e-6, think), self.send_request)

    def send_request(self) -> None:
        """Issue one application request to the assigned replica."""
        if not self.active:
            return
        if self.replica_endpoint is None:
            self._schedule_next_request()
            return
        replica = self.ctx.replica_at(self.replica_endpoint)
        if replica is None or not replica.is_active:
            # The moving target moved without us (e.g. missed redirect):
            # re-enter through the front door.
            self.stats.rejoins += 1
            self.replica_endpoint = None
            self.join()
            return
        self.stats.requests_sent += 1
        send_time = self.ctx.now
        one_way = self.ctx.latency.one_way(
            self.endpoint, replica.endpoint, self.ctx.rng
        )

        def arrive() -> None:
            replica.handle_request(
                self.client_id, self._request_work,
                lambda served, service: self._on_processed(
                    replica, served, service, send_time
                ),
            )

        self.ctx.sim.schedule(one_way, arrive)
        self._schedule_next_request()

    def _on_processed(
        self, replica, served: bool, service_time: float, send_time: float
    ) -> None:
        if not served:
            # Failed-but-completed: the request still crossed the
            # network and reached the replica before being rejected or
            # dropped, so it carries a real measured duration — which
            # must stay in the latency series (repro.sim.qos contract).
            self.stats.requests_failed += 1
            self.ctx.metrics.record_request(
                self, ok=False, latency=self.ctx.now - send_time
            )
            return
        back = self.ctx.latency.one_way(
            replica.endpoint, self.endpoint, self.ctx.rng
        )

        def delivered() -> None:
            latency = self.ctx.now - send_time
            self.stats.requests_ok += 1
            self.stats.total_latency += latency
            self.ctx.metrics.record_request(self, ok=True, latency=latency)

        self.ctx.sim.schedule(service_time + back, delivered)

    # ------------------------------------------------------------------
    # shuffling
    # ------------------------------------------------------------------
    def receive_redirect(self, new_endpoint: Endpoint) -> None:
        """Handle a WebSocket shuffle notification from the old replica."""
        if not self.active:
            return
        self.replica_endpoint = new_endpoint
        self.stats.migrations += 1
        self.on_assigned(new_endpoint)

    def leave(self) -> None:
        """End the session."""
        self.active = False
        if self.replica_endpoint is not None:
            replica = self.ctx.replica_at(self.replica_endpoint)
            if replica is not None:
                replica.evict(self.client_id)
            self.replica_endpoint = None


class PersistentBot(BenignClient):
    """A sophisticated bot that follows the moving target.

    Blends in with benign traffic, then (a) reveals every replica location
    it learns to the botnet so naive bots can flood it, and (b) optionally
    mounts a computational attack itself by issuing expensive requests
    (``attack_work`` units instead of 1) at an elevated rate.
    """

    kind = "persistent"

    def __init__(
        self,
        ctx: "CloudContext",
        client_id: str,
        botnet: "Botnet",
        computational: bool = False,
    ) -> None:
        super().__init__(ctx, client_id)
        self.botnet = botnet
        self.computational = computational
        if computational:
            # Insider attack: expensive requests at an aggressive rate.
            self._request_work = ctx.config.attack_work
            self._think_time = ctx.config.attack_think_time

    def on_assigned(self, endpoint: Endpoint) -> None:
        delay = self.ctx.rng.exponential(self.ctx.config.reveal_delay)
        address = endpoint.address
        self.ctx.sim.schedule(delay, lambda: self._reveal(address))

    def _reveal(self, address: str) -> None:
        if not self.active:
            return
        # Only reveal the address we are *currently* assigned to; stale
        # reveals after another shuffle would waste botnet effort anyway.
        if (
            self.replica_endpoint is not None
            and self.replica_endpoint.address == address
        ):
            self.botnet.reveal(address)


class OnOffBot(PersistentBot):
    """A non-aggressive persistent bot (paper Section VII).

    Upon noticing a shuffle (receiving a redirect), it suspends attacking
    for ``off_duration`` seconds, hoping to map the system or re-blend with
    benign clients.  The paper's argument — reproduced by the adversary
    benchmarks — is that this only lowers attack intensity: the defense is
    stateless and never shuffles unattacked replicas, so silence buys the
    bot nothing.
    """

    kind = "onoff"

    def __init__(
        self,
        ctx: "CloudContext",
        client_id: str,
        botnet: "Botnet",
        off_duration: float = 30.0,
    ) -> None:
        super().__init__(ctx, client_id, botnet)
        self.off_duration = off_duration
        self._quiet_until = 0.0

    def receive_redirect(self, new_endpoint: Endpoint) -> None:
        # A redirect is the observable signature of a shuffle: go dark.
        self._quiet_until = self.ctx.now + self.off_duration
        super().receive_redirect(new_endpoint)

    def on_assigned(self, endpoint: Endpoint) -> None:
        if self.ctx.now < self._quiet_until:
            # Defer the reveal until the off period ends.
            address = endpoint.address
            self.ctx.sim.schedule(
                self._quiet_until - self.ctx.now + 1e-6,
                lambda: self._reveal_if_current(address),
            )
            return
        super().on_assigned(endpoint)

    def _reveal_if_current(self, address: str) -> None:
        if (
            self.active
            and self.replica_endpoint is not None
            and self.replica_endpoint.address == address
        ):
            self.botnet.reveal(address)
