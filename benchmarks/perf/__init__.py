"""The perf ledger: one benchmark for the defense loop.

Six named workloads (four live, two offline), end-to-end metrics from
an untraced pass, per-layer metrics from a traced pass, one record
schema, and a ledger diff.  ``README.md`` beside this file records why
each workload exists and which layer should move which number.

Entry points::

    python -m benchmarks.perf                      # every workload, both passes
    python -m benchmarks.perf --workload W --seed N --seconds S --trace 0|1
    python -m benchmarks.perf compare A.json B.json
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The program under test is imported from this checkout, never from
#: an installed copy.
SRC = Path(__file__).resolve().parents[2] / "src"
if SRC.is_dir() and str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
