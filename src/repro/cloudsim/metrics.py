"""Quality-of-service metrics for the cloud simulation.

The paper's success criterion is "restoring quality of service for
benign-but-affected clients": we track per-kind request outcomes over time
so experiments can show benign success rates collapsing when the attack
lands and recovering as shuffles quarantine the bots.

The per-window record is the shared :class:`~repro.sim.qos.QoSWindow`
schema, which the live service's telemetry emits too — one comparison
format for simulated and live runs.  Failed-but-completed requests keep
their measured latency in the window mean (see :mod:`repro.sim.qos` for
the accounting contract).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.qos import QoSWindow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .system import CloudContext

__all__ = ["QoSWindow", "MetricsCollector"]


class MetricsCollector:
    """Streaming QoS aggregation with periodic snapshots."""

    def __init__(self, ctx: "CloudContext", interval: float = 1.0) -> None:
        self.ctx = ctx
        self.interval = interval
        self.samples: list[QoSWindow] = []
        self._window_sent = 0
        self._window_ok = 0
        self._window_latency = 0.0
        self._window_latency_count = 0
        self._running = False
        # lifetime totals per client kind
        self.totals: dict[str, dict[str, float]] = {}

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.ctx.sim.schedule(self.interval, self._snapshot)

    def stop(self) -> None:
        self._running = False

    def record_request(self, client, ok: bool, latency: float | None) -> None:
        """Record one completed (or failed) request outcome.

        ``latency`` is the measured request duration when one exists —
        for successes *and* for failures that completed (throttled,
        dropped at the replica).  ``None`` means the request never
        produced an observable completion, so it contributes to the
        success ratio but not to the latency mean.
        """
        kind = getattr(client, "kind", "benign")
        totals = self.totals.get(kind)
        if totals is None:
            totals = self.totals[kind] = {
                "sent": 0.0, "ok": 0.0, "latency": 0.0
            }
        totals["sent"] += 1
        if ok:
            totals["ok"] += 1
        if latency is not None:
            totals["latency"] += latency
        if kind == "benign":
            self._window_sent += 1
            if ok:
                self._window_ok += 1
            if latency is not None:
                self._window_latency += latency
                self._window_latency_count += 1

    def _snapshot(self) -> None:
        if not self._running:
            return
        attacked = sum(
            1 for r in self.ctx.active_replicas() if r.overloaded()
        )
        self.samples.append(
            QoSWindow(
                time=self.ctx.now,
                benign_sent=self._window_sent,
                benign_ok=self._window_ok,
                latency_sum=self._window_latency,
                latency_count=self._window_latency_count,
                attacked_replicas=attacked,
                active_replicas=len(self.ctx.active_replicas()),
                shuffles_completed=self.ctx.coordinator.shuffle_count,
            )
        )
        self._window_sent = 0
        self._window_ok = 0
        self._window_latency = 0.0
        self._window_latency_count = 0
        self.ctx.sim.schedule(self.interval, self._snapshot)

    # ------------------------------------------------------------------
    # derived summaries
    # ------------------------------------------------------------------
    def success_ratio_between(self, start: float, end: float) -> float:
        """Benign success ratio over a time slice of the run."""
        sent = ok = 0
        for sample in self.samples:
            if start <= sample.time <= end:
                sent += sample.benign_sent
                ok += sample.benign_ok
        if sent == 0:
            return 1.0
        return ok / sent

    def benign_success_ratio(self, kind: str = "benign") -> float:
        """Lifetime success ratio for a client kind."""
        totals = self.totals.get(kind)
        if not totals or totals["sent"] == 0:
            return 1.0
        return totals["ok"] / totals["sent"]
