"""The live service must not pay for reporting-only dependencies."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def test_importing_the_service_leaves_scipy_stats_unloaded():
    """``scipy.stats`` is ~46 MB of RSS and ~0.9 s of cold import, used
    by one ``t.ppf`` and one ``spearmanr`` in report code; both import
    it on use, so a serving process never loads it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.service; "
            "print('scipy.stats' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.strip() == "False"
