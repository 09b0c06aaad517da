"""Per-file analysis context shared by every reprolint rule.

Also home to the two helpers every layer of the linter shares: the
file walker and the dotted-name reader.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
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
    shared AST.  ``package_parts`` locates the file inside the ``repro``
    package (e.g. ``("core", "estimator.py")``) so rules can scope
    themselves to subpackages without caring where the repo is checked
    out.
    """

    path: Path
    source: str
    tree: ast.Module
    suppressions: Suppressions
    package_parts: tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def from_path(cls, path: Path) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
            package_parts=_package_parts(path),
        )

    def in_package(self, name: str) -> bool:
        """True when the file sits under ``repro/<name>/`` (any depth)."""
        return name in self.package_parts[:-1]

    @property
    def is_test_file(self) -> bool:
        name = self.path.name
        return name.startswith("test_") or name == "conftest.py"

    @property
    def module_is_trivial(self) -> bool:
        """True when the module holds at most a docstring."""
        body = self.tree.body
        if not body:
            return True
        return len(body) == 1 and (
            isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        )


def _package_parts(path: Path) -> tuple[str, ...]:
    """Path components after the innermost ``repro`` directory.

    Files outside any ``repro`` directory get an empty tuple, which
    makes every package-scoped rule a no-op for them.
    """
    parts = path.parts
    for index in range(len(parts) - 2, -1, -1):
        if parts[index] == "repro":
            return parts[index + 1 :]
    return ()
