"""One driver per paper table/figure.

Run from the command line::

    python -m repro.experiments fig3
    python -m repro.experiments fig8 --quick
    python -m repro.experiments all --quick

or programmatically::

    from repro.experiments import fig3
    rows = fig3.run_fig3()

Drivers: ``fig3`` (greedy vs DP), ``fig4`` (greedy vs even), ``fig5``
(DP runtime), ``fig6`` (greedy runtime), ``fig7`` (MLE accuracy),
``fig8`` (shuffles vs bots), ``fig9`` (shuffles vs replicas), ``fig10``
(cumulative saving), ``fig12`` (migration latency), ``headline``
(the abstract's 60-shuffle claim), ``ablations`` (design questions
beyond the paper).  ``python -m repro.experiments`` (installed as
``repro-experiments``) is the one command-line entry point.
"""

from __future__ import annotations

from . import (  # noqa: F401  (re-exported driver modules)
    ablations,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig12,
    headline,
)
from .runner import EXPERIMENTS, main

__all__ = [
    "EXPERIMENTS",
    "ablations",
    "fig10",
    "fig12",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "headline",
    "main",
]
