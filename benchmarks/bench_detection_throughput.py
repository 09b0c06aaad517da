"""Detection-path benchmark — sketch vs exact accounting at scale.

Two claims carried by :mod:`repro.detect` are measured here and written
to ``BENCH_detection.json`` (override with ``BENCH_DETECTION_JSON``):

1. **O(1) state** — the sketch detector's memory is flat from 10^3 to
   10^6 distinct clients, while exact accounting (the per-event deque of
   :class:`repro.service.tokens.SaturationMonitor` plus a per-client
   counter dict) grows with both request rate and population.
2. **Per-request cost, side by side** — requests/second through
   :meth:`repro.detect.SketchWindow.record` and through the exact path,
   reported and not gated: the sketch buys fixed memory and named
   talkers, not speed.  Key digests are computed once per client at
   admission (outside the timed region, reported separately), as the
   replicas do.

A third test pins behaviour rather than speed: the acceptance-scale
live scenario (200 benign + 20 bots) reaches the same quarantine with
the sketch-backed saturation monitor as with the exact one — same
shuffle count, benign clean fraction >= 0.95 — so the fixed-memory
detector is a verdict-preserving drop-in, not a different defense.

Wall-clock rates are host-dependent; the asserted bound (flat bytes)
holds on any CI host.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from benchmarks.conftest import full_fidelity
from repro.detect import SketchParams, SketchWindow, key_digest
from repro.service import (
    LoadConfig,
    ServiceConfig,
    run_scenario_sync,
)
from repro.service.tokens import SaturationMonitor

CLIENT_COUNTS = (1_000, 100_000, 1_000_000)
WINDOW = 0.5


def out_path() -> str:
    return os.environ.get("BENCH_DETECTION_JSON", "BENCH_detection.json")


def _write_payload(section: str, data) -> None:
    """Merge one section into the shared JSON artifact.

    pytest runs the tests in this file sequentially, so a read-merge-
    write per test is race-free.
    """
    path = out_path()
    payload = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    payload[section] = data
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _make_stream(n_clients: int, n_events: int, rng: np.random.Generator):
    """A saturation-shaped request stream: 20 bots own half the mass,
    the rest spreads uniformly over ``n_clients`` benign ids."""
    n_bots = 20
    is_bot = rng.random(n_events) < 0.5
    idx = np.where(
        is_bot,
        rng.integers(0, n_bots, n_events),
        n_bots + rng.integers(0, n_clients, n_events),
    )
    keys = [
        f"bot-{i:03d}" if i < n_bots else f"c-{i - n_bots}"
        for i in idx
    ]
    throttled = rng.random(n_events) < 0.4
    return keys, throttled


def _exact_pass(keys, throttled) -> tuple[float, int]:
    """The status quo: per-event monitor deque + per-client dict."""
    monitor = SaturationMonitor(WINDOW, 0.3, 20)
    counts: dict[str, int] = {}
    start = time.perf_counter()
    for key, thr in zip(keys, throttled):
        monitor.record(not thr)
        counts[key] = counts.get(key, 0) + 1
    elapsed = time.perf_counter() - start
    # Deque entries are (float, bool) tuples; the dict carries every
    # distinct key.  Both are rate/population-proportional.
    window_events, _ = monitor.counts()
    deque_bytes = sys.getsizeof(monitor._events) + window_events * (
        sys.getsizeof((0.0, False)) + sys.getsizeof(0.0)
    )
    dict_bytes = sys.getsizeof(counts) + sum(
        sys.getsizeof(k) + 28 for k in counts
    )
    return elapsed, deque_bytes + dict_bytes


def _sketch_pass(digests, keys, throttled) -> tuple[float, int]:
    """The fixed-memory window, one ``record`` per request."""
    window = SketchWindow(WINDOW, SketchParams(), epochs=4)
    start = time.perf_counter()
    for digest, key, thr in zip(digests, keys, throttled):
        window.record(time.monotonic(), not thr, key=key, digest=digest)
    elapsed = time.perf_counter() - start
    return elapsed, window.state_bytes()


def _sweep(n_events: int) -> list[dict]:
    rows = []
    for n_clients in CLIENT_COUNTS:
        rng = np.random.default_rng(42 + n_clients)
        keys, throttled = _make_stream(n_clients, n_events, rng)
        throttled = throttled.tolist()
        digest_start = time.perf_counter()
        digests = [key_digest(k) for k in keys]
        digest_s = time.perf_counter() - digest_start
        exact_s, exact_bytes = _exact_pass(keys, throttled)
        sketch_s, sketch_bytes = _sketch_pass(digests, keys, throttled)
        rows.append({
            "clients": n_clients,
            "events": n_events,
            "exact_rps": round(n_events / exact_s),
            "sketch_rps": round(n_events / sketch_s),
            "exact_state_bytes": exact_bytes,
            "sketch_state_bytes": sketch_bytes,
            "digest_precompute_s": round(digest_s, 3),
        })
    return rows


def test_detection_throughput(benchmark, show):
    n_events = 1_000_000 if full_fidelity() else 200_000
    rows = benchmark.pedantic(
        _sweep, args=(n_events,), rounds=1, iterations=1
    )

    # O(1) state: byte-flat across three orders of magnitude of
    # population (identical parameters => identical footprint).
    sketch_sizes = [r["sketch_state_bytes"] for r in rows]
    assert max(sketch_sizes) <= min(sketch_sizes) * 1.1
    # ...while exact accounting grows with the population.
    assert rows[-1]["exact_state_bytes"] > rows[0]["exact_state_bytes"]

    _write_payload("detector", {
        "full_fidelity": full_fidelity(),
        "host_cpu_count": os.cpu_count(),
        "window_s": WINDOW,
        "params": {
            "epsilon": SketchParams().epsilon,
            "delta": SketchParams().delta,
            "top_k": SketchParams().top_k,
        },
        "rows": rows,
    })

    lines = [
        "Detection path — sketch vs exact ({n} events/stream)".format(
            n=n_events
        ),
        "  {:>9} {:>12} {:>12} {:>12} {:>12}".format(
            "clients", "exact req/s", "sketch req/s",
            "exact bytes", "sketch bytes",
        ),
    ]
    for r in rows:
        lines.append(
            "  {clients:>9,} {exact_rps:>12,} {sketch_rps:>12,} "
            "{exact_state_bytes:>12,} {sketch_state_bytes:>12,}".format(**r)
        )
    lines.append("  written: " + out_path())
    show("\n".join(lines))


def _scenario(detector: str):
    service_config = ServiceConfig(
        n_replicas=10, seed=7, telemetry_port=None, detector=detector
    )
    load_config = LoadConfig(n_benign=200, n_bots=20, seed=11)
    return run_scenario_sync(
        service_config, load_config,
        duration=120.0, target_fraction=0.95,
    )


def test_sketch_monitor_verdict_equivalence(benchmark, show):
    """The sketch monitor reproduces the exact monitor's defense run.

    Acceptance scenario, both detector modes: same quarantine, same
    shuffle count, benign clean fraction >= 0.95 in both.
    """
    exact = _scenario("exact")
    sketch = benchmark.pedantic(
        _scenario, args=("sketch",), rounds=1, iterations=1
    )

    assert exact.quarantined and sketch.quarantined
    assert exact.shuffles_completed == sketch.shuffles_completed
    assert exact.benign_clean_fraction >= 0.95
    assert sketch.benign_clean_fraction >= 0.95

    _write_payload("scenario_equivalence", {
        "n_benign": 200,
        "n_bots": 20,
        "n_replicas": 10,
        "exact": {
            "shuffles": exact.shuffles_completed,
            "clean_fraction": round(exact.benign_clean_fraction, 4),
            "duration_s": round(exact.duration, 2),
        },
        "sketch": {
            "shuffles": sketch.shuffles_completed,
            "clean_fraction": round(sketch.benign_clean_fraction, 4),
            "duration_s": round(sketch.duration, 2),
            "suspected_bots": len(
                sketch.snapshot.get("suspected_bots", [])
            ),
        },
    })

    show(
        "Verdict equivalence — 200 benign + 20 bots on 10 replicas\n"
        "  exact:  {es} shuffles, clean {ec:.3f}\n"
        "  sketch: {ss} shuffles, clean {sc:.3f} "
        "({susp} suspects named)".format(
            es=exact.shuffles_completed,
            ec=exact.benign_clean_fraction,
            ss=sketch.shuffles_completed,
            sc=sketch.benign_clean_fraction,
            susp=len(sketch.snapshot.get("suspected_bots", [])),
        )
    )
