"""Trust-layer benchmark — profile update and storage backends.

Two claims carried by :mod:`repro.trust` are measured here and written
to ``BENCH_trust.json`` (override with ``BENCH_TRUST_JSON``):

1. **The update keeps up** — the per-request
   :meth:`~repro.trust.ProfileTable.observe` (plain float arithmetic
   on one row) sustains ≥ 100k updates/s, far above any rate the live
   service serves.
2. **Backends are interchangeable at service rates** — memory, sqlite
   and the atomic JSON file all sustain the coordinator's persistence
   pattern (batched ``put_many`` once a sweep, full ``items`` scan on
   restart) far above the detection loop's write rate, so enabling
   durability is a policy choice, not a throughput trade.

Wall-clock rates are host-dependent; the asserted bounds are
deliberately coarse so they hold on any CI host.
"""

from __future__ import annotations

import json
import os
import time

from benchmarks.conftest import full_fidelity
from repro.trust import (
    JsonFileBackend,
    MemoryBackend,
    ProfileTable,
    SqliteBackend,
    TrustConfig,
    TrustManager,
)


def out_path() -> str:
    return os.environ.get("BENCH_TRUST_JSON", "BENCH_trust.json")


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


# ----------------------------------------------------------------------
# profile update: one request at a time
# ----------------------------------------------------------------------

def _profile_sweep():
    n_clients = 2_000 if full_fidelity() else 500
    n_rounds = 50 if full_fidelity() else 20
    table = ProfileTable(TrustConfig(seed=1))
    ids = [f"c-{i}" for i in range(n_clients)]
    for cid in ids:
        table.ensure(cid, now=0.0)
    start = time.perf_counter()
    for rnd in range(1, n_rounds + 1):
        now = rnd * 0.05
        for cid in ids:
            table.observe(cid, now, violation=False)
    elapsed = time.perf_counter() - start
    updates = n_clients * n_rounds
    return {
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "updates": updates,
        "updates_per_s": updates / elapsed,
    }


def test_profile_update_throughput(benchmark, show):
    row = benchmark.pedantic(_profile_sweep, rounds=1, iterations=1)

    # An absolute floor with a wide margin (a 2-vCPU VM measures
    # several hundred thousand per second).
    assert row["updates_per_s"] >= 100_000

    _write_payload("profiles", {
        "full_fidelity": full_fidelity(),
        "host_cpu_count": os.cpu_count(),
        **row,
    })
    show(f"trust profile updates/s: {row['updates_per_s']:,.0f}")


# ----------------------------------------------------------------------
# storage backends: the coordinator's persistence pattern
# ----------------------------------------------------------------------

def _backend_pass(backend, n_profiles: int, n_sweeps: int):
    """One coordinator lifetime: per-sweep batched writes, then the
    restart-path full scan."""
    manager = TrustManager(TrustConfig(seed=1), storage=backend)
    ids = [f"c-{i}" for i in range(n_profiles)]

    start = time.perf_counter()
    for sweep in range(1, n_sweeps + 1):
        now = sweep * 0.05
        for cid in ids:
            manager.observe(cid, now)
        manager.persist()
        backend.put("state", "belief", {"sweep": sweep})
        backend.flush()
    write_s = time.perf_counter() - start

    start = time.perf_counter()
    restored = TrustManager(TrustConfig(seed=1), storage=backend)
    count = restored.restore()
    read_s = time.perf_counter() - start
    assert count == n_profiles

    start = time.perf_counter()
    for cid in ids:
        backend.get("profiles", cid)
    get_s = time.perf_counter() - start

    rows_written = n_profiles * n_sweeps
    return {
        "persisted_rows_per_s": rows_written / write_s,
        "sweeps_per_s": n_sweeps / write_s,
        "restore_rows_per_s": n_profiles / read_s,
        "point_gets_per_s": n_profiles / get_s,
    }


def _backend_sweep(tmp_dir: str):
    n_profiles = 1_000 if full_fidelity() else 250
    n_sweeps = 40 if full_fidelity() else 15
    backends = {
        "memory": MemoryBackend(),
        "sqlite": SqliteBackend(os.path.join(tmp_dir, "bench.db")),
        "file": JsonFileBackend(os.path.join(tmp_dir, "bench.json")),
    }
    rows = {}
    for name, backend in backends.items():
        rows[name] = {
            "n_profiles": n_profiles,
            "n_sweeps": n_sweeps,
            **_backend_pass(backend, n_profiles, n_sweeps),
        }
        backend.close()
    return rows


def test_storage_backend_throughput(benchmark, show, tmp_path):
    rows = benchmark.pedantic(
        _backend_sweep, args=(str(tmp_path),), rounds=1, iterations=1
    )

    # Every backend must clear the detection loop's write rate (one
    # batched persist per 100 ms sweep = 10/s) with headroom.  The
    # JSON file backend rewrites its whole document per flush, so its
    # margin is structurally the thinnest of the three.
    for name, row in rows.items():
        assert row["sweeps_per_s"] >= 30.0, (name, row)

    _write_payload("backends", {
        "full_fidelity": full_fidelity(),
        "host_cpu_count": os.cpu_count(),
        "rows": rows,
    })
    lines = [
        f"{name}: {row['persisted_rows_per_s']:,.0f} rows/s persisted, "
        f"{row['restore_rows_per_s']:,.0f} rows/s restored, "
        f"{row['point_gets_per_s']:,.0f} gets/s"
        for name, row in rows.items()
    ]
    show("trust storage backends:\n  " + "\n  ".join(lines))
