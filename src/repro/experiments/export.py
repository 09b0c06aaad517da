"""Machine-readable export of experiment results.

``python -m repro.experiments fig8 --json out.json`` writes the same data
the tables show, as JSON, so plots can be regenerated with any external
tool.  The converter handles the library's result types generically:
dataclasses become objects, :class:`~repro.sim.stats.SampleSummary`
becomes ``{mean, half_width, n, confidence}``, numpy scalars become
numbers and NaN (plain or numpy) becomes ``null``.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from ..obs.export import export_json
from ..sim.stats import SampleSummary

__all__ = ["to_jsonable", "dump_json"]

# Fields that would bloat the export without adding plot-relevant data.
_SKIPPED_FIELDS = {"result", "runs", "samples", "per_client_times"}


def to_jsonable(value: Any) -> Any:
    """Recursively convert a result object into JSON-encodable data."""
    if isinstance(value, SampleSummary):
        return {
            "mean": value.mean,
            "half_width": value.half_width,
            "n": value.n,
            "confidence": value.confidence,
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
            if field.name not in _SKIPPED_FIELDS
        }
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return None if value != value else float(value)  # NaN is not JSON
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    return value


def dump_json(results: dict[str, Any], path: str) -> None:
    """Write ``{experiment_name: rows}`` to ``path`` as indented JSON."""
    export_json(to_jsonable(results), path)
