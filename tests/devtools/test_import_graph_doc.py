"""``docs/import-graph.md``'s layering table matches ``LAYER_CONTRACT``.

The table is the human-readable copy of the contract P1 enforces; a
layer the contract allows but the table omits (or the reverse) sends a
reader to the wrong conclusion about what may import what.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.devtools.program import LAYER_CONTRACT

DOC = Path(__file__).resolve().parents[2] / "docs" / "import-graph.md"


def _table_rows() -> dict[str, str]:
    """Layer -> its "May import" cell, from the ``| Layer | May import |``
    table."""
    lines = DOC.read_text(encoding="utf-8").splitlines()
    start = next(
        i for i, line in enumerate(lines)
        if line.startswith("| Layer | May import |")
    )
    rows: dict[str, str] = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        layer, may_import = (cell.strip() for cell in line.split("|")[1:3])
        rows[layer.strip("`")] = may_import
    return rows


def test_layering_table_matches_the_contract():
    rows = _table_rows()
    assert set(rows) == set(LAYER_CONTRACT)
    for layer, cell in rows.items():
        if cell == "everything":
            listed = set(LAYER_CONTRACT) - {layer}
        else:
            listed = set(re.findall(r"`([a-z_]+)`", cell))
        assert listed == LAYER_CONTRACT[layer], layer
