"""repro.detect — sketch-based streaming detection.

Fixed-memory, O(1)-per-request primitives for the detection half of the
shuffling loop: a count-min sketch for per-client frequency, a
space-saving summary for top talkers, an epoch-rotated sliding window
combining both with saturation tallies, and a report type that exports
the result through the shared :mod:`repro.obs` event schema.

Layering: this package sits beside :mod:`repro.obs` near the bottom of
the import contract — stdlib + numpy + obs only — so both the live
service and the simulators consume the same detectors.
"""

from __future__ import annotations

from .heavyhitters import HeavyHitter, SpaceSaving
from .params import SketchParams
from .report import HeavyHitterReport
from .sketch import CountMinSketch, key_digest
from .window import SketchWindow

__all__ = [
    "CountMinSketch",
    "HeavyHitter",
    "HeavyHitterReport",
    "SketchParams",
    "SketchWindow",
    "SpaceSaving",
    "key_digest",
]
