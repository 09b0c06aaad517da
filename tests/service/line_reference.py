"""Frozen line-by-line reference for the replica's request handling.

``respond`` is a verbatim copy of the per-request
``ReplicaBackend._respond`` that the backend answered every line with
before a received chunk became one arrival (one clock read, each
client's run settled by one bucket grant and one monitor record per
outcome).  ``LineByLine`` is the protocol of that time: it splits a
chunk into lines and answers each one with ``respond``.

``tests/service/test_backend.py`` holds the backend to them: for the
same bytes, the same segmentation and a clock frozen within each chunk,
the replies and all bucket, monitor, trust and counter state must be
equal.  Do not "improve" these: their value is that they never change.
"""

from __future__ import annotations

from repro.service import ReplicaBackend

__all__ = ["LineByLine", "respond"]

_NOT_ADMITTED = object()


def respond(self: ReplicaBackend, parts: list[str]) -> str:
    """One request line (already split) -> its reply, one at a time."""
    if len(parts) != 3 or parts[0] != "REQ":
        return "ERR malformed"
    _, client_id, seq = parts
    if self.quiescing:
        self.stats.moved += 1
        self._count("moved")
        return f"MOVED {seq}"
    positions = self.whitelist.get(client_id, _NOT_ADMITTED)
    if positions is _NOT_ADMITTED:
        self.stats.denied += 1
        self._count("denied")
        return f"DENY {seq}"
    trust = self.trust
    if trust is not None:
        decision = trust.admit_decision(client_id)
        if decision != "ok":
            self.monitor.record(
                admitted=False, client_id=client_id, positions=positions
            )
            trust.observe(client_id, self._clock(), violation=False)
            if decision == "deny":
                self.stats.denied += 1
                self._count("trust_denied")
                return f"DENY {seq}"
            self.stats.throttled += 1
            self._count("trust_throttled")
            return f"THROTTLED {seq}"
    if self.bucket.try_acquire():
        self.monitor.record(
            admitted=True, client_id=client_id, positions=positions
        )
        self.stats.served += 1
        self._count("served")
        if trust is not None:
            trust.observe(client_id, self._clock(), violation=False)
        return f"OK {seq} {self.replica_id}"
    self.monitor.record(
        admitted=False, client_id=client_id, positions=positions
    )
    self.stats.throttled += 1
    self._count("throttled")
    if trust is not None:
        trust.observe(client_id, self._clock(), violation=True)
    return f"THROTTLED {seq}"


class LineByLine:
    """The connection as it was: every complete line answered alone."""

    def __init__(self, backend: ReplicaBackend) -> None:
        self.backend = backend
        self.sent = bytearray()
        self._tail = b""

    def data_received(self, data: bytes) -> None:
        lines = (self._tail + data).split(b"\n")
        self._tail = lines.pop()
        for line in lines:
            reply = respond(
                self.backend, line.decode("utf-8", "replace").split()
            )
            self.sent += reply.encode("utf-8") + b"\n"
