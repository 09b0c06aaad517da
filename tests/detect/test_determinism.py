"""Detection state must not depend on PYTHONHASHSEED.

The sketches hash keys with blake2b and multiply-shift coefficients
from a SeedSequence; the space-saving summary breaks ties on the key
itself.  Nothing may consult Python's per-process randomized ``hash()``
— otherwise two replicas (or a replica and the coordinator replaying
its events) could disagree about who the heavy hitters are.  Same
pattern as the cloudsim trace test: one deterministic script, two fresh
interpreters with different hash seeds, byte-identical digests.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.hashseed

REPO_SRC = Path(__file__).resolve().parents[2] / "src"

DETECT_DIGEST_SCRIPT = """
import hashlib
import random

from repro.detect import (
    CountMinSketch, SketchParams, SketchWindow, SpaceSaving, key_digest,
)

rng = random.Random(1234)
keys = [f"bot-{i % 7}" if i % 3 == 0 else f"c-{i % 400}"
        for i in range(5000)]
rng.shuffle(keys)

# Sketch ingestion by key and by digest, then shard merges in a
# shuffled order — every one of these must be hash-seed blind.
by_key = CountMinSketch(width=136, depth=5)
for key in keys:
    by_key.add(key)

shards = []
for lo in range(0, 5000, 1000):
    shard = CountMinSketch(width=136, depth=5)
    for key in keys[lo:lo + 1000]:
        shard.add_digest(key_digest(key))
    shards.append(shard)
rng.shuffle(shards)
merged = CountMinSketch.merge_all(shards)

summary_shards = []
for lo in range(0, 5000, 1000):
    summary = SpaceSaving(8)
    for key in keys[lo:lo + 1000]:
        summary.add(key)
    summary_shards.append(summary)
rng.shuffle(summary_shards)
summary = SpaceSaving.merge_all(summary_shards)

window = SketchWindow(1.0, SketchParams(), epochs=4)
for step, lo in enumerate(range(0, 5000, 1000)):
    for i, key in enumerate(keys[lo:lo + 1000]):
        window.record(step * 0.2, i >= 100, key=key)
now = 4 * 0.2
report_rows = ";".join(
    f"{h.key}={h.count}~{h.error}" for h in window.heavy_hitters(now)
)

payload = b"|".join([
    by_key.to_bytes(),
    merged.to_bytes(),
    summary.to_bytes(),
    window.hitter_summary(now).to_bytes(),
    str(window.counts(now)).encode(),
    report_rows.encode(),
])
print(hashlib.sha256(payload).hexdigest())
"""


def _digest_under_hashseed(script: str, hash_seed: str) -> str:
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


def test_detection_state_is_hashseed_independent():
    digests = {
        _digest_under_hashseed(DETECT_DIGEST_SCRIPT, seed)
        for seed in ("1", "2")
    }
    assert len(digests) == 1, (
        "sketch/summary bytes differ across PYTHONHASHSEED values — "
        "some hash()-ordered container leaks into detection state"
    )
