"""Execution-backend registry: how sim gains parallelism without
importing the runtime layer.

The layering contract (reprolint P1) points ``runtime`` at ``sim``,
never the reverse — yet :func:`repro.sim.sweep.sweep` and
:func:`repro.sim.campaign.run_campaign_batch` offer ``workers=`` fan-out
that only the runtime can provide.  This module is the seam: the runtime
registers callables here when it is imported (``import repro`` wires it
automatically), and the sim entry points look them up by name at call
time.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["available_backends", "get_backend", "register_backend"]

_BACKENDS: dict[str, Callable[..., Any]] = {}


def register_backend(name: str, fn: Callable[..., Any]) -> None:
    """Register (or replace) the execution backend for ``name``."""
    _BACKENDS[name] = fn


def get_backend(name: str) -> Callable[..., Any]:
    """The registered backend for ``name``."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise RuntimeError(
            f"no {name!r} backend registered; `import repro` registers "
            "the repro.runtime ones"
        ) from None


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted (for diagnostics)."""
    return tuple(sorted(_BACKENDS))
