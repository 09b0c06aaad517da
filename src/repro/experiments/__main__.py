"""``python -m repro.experiments`` dispatch."""

from __future__ import annotations

import sys

from .runner import main

# Guarded: ``--jobs N`` workers are spawned, and a spawned worker
# re-imports the parent's main module.
if __name__ == "__main__":
    sys.exit(main())
