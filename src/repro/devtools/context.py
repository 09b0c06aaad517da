"""Per-file analysis context shared by every reprolint rule.

Also home to the two helpers every layer of the linter shares: the
file walker and the dotted-name reader.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .suppressions import Suppressions, parse_suppressions

#: directory names never worth linting or indexing
_SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "venv", "build", "dist"}
)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into the .py files under them, sorted
    per directory, each file once."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(
                part in _SKIP_DIRS or part.endswith(".egg-info")
                for part in candidate.parts
            ):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def dotted_parts(node: ast.AST) -> list[str] | None:
    """``["a", "b", "c"]`` for the chain ``a.b.c``; ``None`` unless the
    chain is Attributes ending in a Name."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


@dataclass
class FileContext:
    """Everything a rule needs to know about one source file.

    The file is read and parsed exactly once; every rule then walks the
    shared AST.
    """

    path: Path
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @classmethod
    def from_path(cls, path: Path) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )

    @property
    def is_test_file(self) -> bool:
        name = self.path.name
        return name.startswith("test_") or name == "conftest.py"
