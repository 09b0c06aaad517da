"""JSON + Prometheus telemetry for the live service.

A deliberately tiny HTTP/1.0 endpoint — enough to watch a live run
converge without attaching a debugger:

- any path but ``/metrics``/``/trust`` (e.g. ``curl
  http://host:port/``) serves the coordinator's :meth:`snapshot` as
  JSON (the historical behaviour);
- ``GET /metrics`` serves the attached :class:`repro.obs.
  MetricsRegistry` in Prometheus text exposition format, so a stock
  Prometheus scraper can watch shuffle rounds and token buckets live;
- ``GET /trust`` serves just the snapshot's ``trust`` summary (tier
  populations + mean trust), ``null`` when trust is disabled — a
  cheap poll target for watching the ladder settle.

Files are written through :func:`repro.obs.export_json` — one writer
for the whole repo.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Callable, Iterable

from ..obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    export_json,
    render_prometheus,
)
from ..obs.metrics import MetricsRegistry
from ..sim.qos import QoSWindow, windows_to_dicts

__all__ = ["TelemetryServer", "export_windows"]


class TelemetryServer:
    """Serve a snapshot callable (and optionally a metrics registry)
    over HTTP.

    Args:
        snapshot: zero-argument callable returning a JSON-ready dict
            (typically ``coordinator.snapshot``).
        host: bind interface.
        port: bind port (0 = ephemeral).
        registry: optional :class:`repro.obs.MetricsRegistry`; when
            given, ``GET /metrics`` renders it in Prometheus text
            format (every other path keeps serving the JSON snapshot).
    """

    def __init__(
        self,
        snapshot: Callable[[], dict],
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._snapshot = snapshot
        self.host = host
        self.port: int | None = port
        self.registry = registry
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port or 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None or self.port is None:
            raise RuntimeError("telemetry server not started")
        return (self.host, self.port)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            # One-shot exchange: read the request head, answer, close.
            request = await reader.readline()
            parts = request.decode("ascii", "replace").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if path == "/metrics" and self.registry is not None:
                body = render_prometheus(self.registry).encode("utf-8")
                content_type = PROMETHEUS_CONTENT_TYPE
            elif path == "/trust":
                body = json.dumps(
                    self._snapshot().get("trust")
                ).encode("utf-8")
                content_type = "application/json"
            else:
                body = json.dumps(self._snapshot()).encode("utf-8")
                content_type = "application/json"
            writer.write(
                b"HTTP/1.0 200 OK\r\n"
                + f"Content-Type: {content_type}\r\n".encode("ascii")
                + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body
            )
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass


def export_windows(windows: Iterable[QoSWindow], path: str | Path) -> Path:
    """Write QoS windows in the shared sim/live comparison schema."""
    return export_json(
        windows_to_dicts(list(windows)), path, sort_keys=False
    )
