"""Telemetry: the HTTP metrics endpoint and file exporters."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.obs import (
    MetricsRegistry,
    PROMETHEUS_CONTENT_TYPE,
    render_prometheus,
)
from repro.service import TelemetryServer, export_windows
from repro.sim.qos import QoSWindow


async def _http_get(host: str, port: int) -> tuple[bytes, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return head, body


def test_serves_snapshot_as_json_over_http():
    async def scenario():
        state = {"shuffles_completed": 3, "quarantined": False}
        server = TelemetryServer(lambda: state)
        await server.start()
        try:
            return await _http_get(*server.address)
        finally:
            await server.stop()

    head, body = asyncio.run(scenario())
    assert head.startswith(b"HTTP/1.0 200 OK")
    assert b"Content-Type: application/json" in head
    assert json.loads(body) == {
        "shuffles_completed": 3, "quarantined": False,
    }


def test_snapshot_callable_polled_per_request():
    async def scenario():
        counter = {"n": 0}

        def snapshot() -> dict:
            counter["n"] += 1
            return counter

        server = TelemetryServer(snapshot)
        await server.start()
        try:
            _, first = await _http_get(*server.address)
            _, second = await _http_get(*server.address)
            return json.loads(first), json.loads(second)
        finally:
            await server.stop()

    first, second = asyncio.run(scenario())
    assert (first["n"], second["n"]) == (1, 2)  # live state, not a copy


def test_address_requires_start():
    server = TelemetryServer(dict)
    with pytest.raises(RuntimeError):
        server.address


def test_metrics_path_serves_prometheus_text_when_registry_attached():
    registry = MetricsRegistry()
    counter = registry.counter(
        "service_shuffle_rounds_total",
        "Completed shuffle rounds.",
        ("estimator",),
    )
    counter.inc(2, estimator="binomial")
    registry.gauge(
        "service_token_bucket_tokens", "Token bucket level.", ("replica",)
    ).set(7.5, replica="r0")

    async def scenario():
        server = TelemetryServer(dict, registry=registry)
        await server.start()
        try:
            return await _http_get(*server.address)
        finally:
            await server.stop()

    head, body = asyncio.run(scenario())
    assert head.startswith(b"HTTP/1.0 200 OK")
    assert PROMETHEUS_CONTENT_TYPE.encode() in head
    assert body.decode() == render_prometheus(registry)
    text = body.decode()
    assert 'service_shuffle_rounds_total{estimator="binomial"} 2' in text
    assert 'service_token_bucket_tokens{replica="r0"} 7.5' in text


def test_non_metrics_path_still_serves_json_snapshot():
    registry = MetricsRegistry()
    registry.counter("c_total", "C.").inc()

    async def scenario():
        server = TelemetryServer(lambda: {"ok": True}, registry=registry)
        await server.start()
        try:
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /snapshot HTTP/1.0\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            return raw.partition(b"\r\n\r\n")
        finally:
            await server.stop()

    head, _, body = asyncio.run(scenario())
    assert b"Content-Type: application/json" in head
    assert json.loads(body) == {"ok": True}


def test_export_windows_uses_shared_schema(tmp_path):
    windows = [
        QoSWindow(
            time=0.5, benign_sent=10, benign_ok=9,
            latency_sum=0.9, latency_count=10,
            attacked_replicas=1, active_replicas=3,
            shuffles_completed=0,
        ),
    ]
    target = export_windows(windows, tmp_path / "windows.json")
    rows = json.loads(target.read_text())
    assert len(rows) == 1
    assert rows[0]["benign_ok"] == 9
    assert rows[0]["attacked_replicas"] == 1
