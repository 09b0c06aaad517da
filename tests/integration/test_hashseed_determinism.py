"""Hash-seed independence: the simulation must not depend on PYTHONHASHSEED.

Python randomizes ``str`` hashing per process, so ``set`` iteration and
(pre-3.7) dict order vary between runs.  The reproducibility contract —
enforced statically by reprolint's P3 pass — is that no such order ever
reaches the DES event heap or an RNG draw.  These tests are the dynamic
counterpart: the same seeded simulation, executed in two fresh
interpreters with *different* hash seeds, must produce byte-identical
traces and metrics.

CI runs these as a dedicated job (``-m hashseed``); they are also part
of the default suite because they are cheap (two short subprocesses).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.hashseed

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

CLOUDSIM_DIGEST_SCRIPT = """
import hashlib
import json

from repro.cloudsim import CloudDefenseSystem
from repro.obs import EventLog

system = CloudDefenseSystem(seed=7)
tracer = EventLog()
system.ctx.attach_tracer(tracer)
system.add_benign_clients(30)
system.add_persistent_bots(4)
report = system.run(duration=60.0)

metrics = {
    "shuffles": report.shuffles,
    "recycled": report.replicas_recycled,
    "benign_success_overall": round(report.benign_success_overall, 12),
    "benign_success_last_quarter": round(
        report.benign_success_last_quarter, 12
    ),
    "benign_mean_latency": round(report.benign_mean_latency, 12),
    "benign_migrations": round(report.benign_migrations, 12),
    "naive_waste_ratio": round(report.naive_waste_ratio, 12),
    "quarantined_bots": report.quarantined_bots,
    "bots_colocated_benign": report.bots_colocated_benign,
}
payload = tracer.to_jsonl() + "\\n" + json.dumps(metrics, sort_keys=True)
print(hashlib.sha256(payload.encode()).hexdigest())
"""

CAMPAIGN_DIGEST_SCRIPT = """
import hashlib
import json

from repro.sim import AttackWave, CampaignConfig, run_campaign

config = CampaignConfig(
    waves=(
        AttackWave(start_hour=1.0, bots=500, benign=200),
        AttackWave(start_hour=9.0, bots=1500, benign=400),
    ),
    horizon_hours=24.0,
    shuffle_replicas=50,
)
result = run_campaign(config, seed=3)
payload = json.dumps(
    {
        "total_shuffles": result.total_shuffles,
        "replica_hours_reactive": round(result.replica_hours_reactive, 12),
        "reactive_saving": round(result.reactive_saving, 12),
        "outcomes": [
            {
                "shuffles": o.shuffles,
                "saved_fraction": round(o.saved_fraction, 12),
                "mitigation_hours": round(o.mitigation_hours, 12),
            }
            for o in result.outcomes
        ],
    },
    sort_keys=True,
)
print(hashlib.sha256(payload.encode()).hexdigest())
"""


def _digest_under_hashseed(script: str, hash_seed: str) -> str:
    """Run ``script`` in a fresh interpreter with a pinned hash seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    digest = completed.stdout.strip()
    assert len(digest) == 64, f"unexpected digest output: {digest!r}"
    return digest


def test_hash_randomization_actually_differs():
    """Sanity: the two environments really do hash strings differently."""
    probe = "print(hash('replica-1'))"
    env_hashes = set()
    for seed in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        env_hashes.add(out)
    assert len(env_hashes) == 2, (
        "PYTHONHASHSEED had no effect; the determinism tests below "
        "would be vacuous"
    )


def test_cloudsim_trace_is_hashseed_independent():
    digests = {
        _digest_under_hashseed(CLOUDSIM_DIGEST_SCRIPT, seed)
        for seed in ("1", "2")
    }
    assert len(digests) == 1, (
        "cloud simulation trace/metrics differ across PYTHONHASHSEED "
        "values — some set/dict iteration order leaks into event order"
    )


def test_campaign_metrics_are_hashseed_independent():
    digests = {
        _digest_under_hashseed(CAMPAIGN_DIGEST_SCRIPT, seed)
        for seed in ("1", "2")
    }
    assert len(digests) == 1, (
        "campaign metrics differ across PYTHONHASHSEED values"
    )
