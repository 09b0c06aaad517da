"""Whole-program analysis context: module index and import edges.

:class:`ProgramContext` parses every module of one package tree exactly
once (reusing the per-file :class:`~repro.devtools.context.FileContext`,
so suppression comments keep working at project scope) and records the
resolved import edges between them.  *Consumer* roots — ``tests/``,
``examples/``, ``benchmarks/`` — are parsed too, but only as evidence of
how the package is used: project rules never report violations inside
them.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from ..context import FileContext, iter_python_files

__all__ = ["ImportRecord", "ModuleInfo", "ProgramContext", "layer_of"]


@dataclass(frozen=True)
class ImportRecord:
    """One import statement, resolved to a dotted target.

    ``target`` is the imported module ("repro.core.greedy" or "numpy");
    ``names`` the *original* imported names (empty for plain ``import
    x``) with ``asnames`` their local aliases (``None`` where unaliased);
    ``module_alias`` is the local binding of a plain import (``np`` for
    ``import numpy as np``, the dotted head for ``import a.b``); and
    ``typing_only`` is True for imports guarded by ``TYPE_CHECKING`` —
    those never execute at runtime, so the layering contract (P1)
    ignores them.
    """

    target: str
    names: tuple[str, ...]
    asnames: tuple[str | None, ...]
    line: int
    col: int
    typing_only: bool
    module_alias: str | None = None

    def bindings(self) -> tuple[tuple[str, str], ...]:
        """(local name, original name) pairs bound by a from-import."""
        return tuple(
            (alias or original, original)
            for original, alias in zip(self.names, self.asnames)
        )


def layer_of(module: str) -> str | None:
    """First subpackage under the root ("core", "cloudsim", ...).

    Top-level modules (``repro/__init__.py``) have no layer and are
    exempt from the layering contract.
    """
    parts = module.split(".")
    return parts[1] if len(parts) >= 2 else None


@dataclass
class ModuleInfo:
    """One analyzed module inside the program."""

    name: str  # dotted, e.g. "repro.cloudsim.system"
    ctx: FileContext
    is_consumer: bool = False
    imports: list[ImportRecord] = field(default_factory=list)

    @property
    def layer(self) -> str | None:
        return layer_of(self.name)

    @property
    def is_package(self) -> bool:
        return self.ctx.path.name == "__init__.py"

    @property
    def package(self) -> str:
        """The package this module lives in (itself, for packages)."""
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else self.name


class ProgramContext:
    """Everything a project rule needs to know about the whole tree."""

    def __init__(self, root: Path, root_package: str) -> None:
        self.root = root
        self.root_package = root_package
        self.modules: dict[str, ModuleInfo] = {}
        #: resolved path -> why it did not parse (the lint run reports
        #: each as a ``PARSE`` violation)
        self.parse_failures: dict[
            Path, SyntaxError | UnicodeDecodeError
        ] = {}
        self._by_path: dict[Path, ModuleInfo] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        root: Path | str,
        consumer_roots: tuple[Path, ...] | tuple[str, ...] = (),
    ) -> "ProgramContext":
        """Index the package rooted at ``root`` (a directory named after
        the package, e.g. ``src/repro``) plus any consumer roots."""
        root = Path(root)
        program = cls(root=root, root_package=root.name)
        for path in iter_python_files([root]):
            program._add_module(path, _module_name(root, path), consumer=False)
        for consumer in consumer_roots:
            consumer = Path(consumer)
            if not consumer.is_dir():
                continue
            for path in iter_python_files([consumer]):
                name = f"<{consumer.name}>." + _module_name(consumer, path)
                program._add_module(path, name, consumer=True)
        return program

    def _add_module(self, path: Path, name: str, consumer: bool) -> None:
        try:
            ctx = FileContext.from_path(path)
        except (SyntaxError, UnicodeDecodeError) as exc:
            self.parse_failures[path.resolve()] = exc
            return
        info = ModuleInfo(name=name, ctx=ctx, is_consumer=consumer)
        info.imports = list(_extract_imports(info, self.root_package))
        self.modules[name] = info
        self._by_path[path.resolve()] = info

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def project_modules(self) -> Iterator[ModuleInfo]:
        """Analyzed (non-consumer) modules, in deterministic name order."""
        for name in sorted(self.modules):
            info = self.modules[name]
            if not info.is_consumer:
                yield info

    def all_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            yield self.modules[name]

    def module_at(self, path: Path) -> ModuleInfo | None:
        return self._by_path.get(Path(path).resolve())

    def is_internal(self, target: str) -> bool:
        """True when ``target`` names a module inside the package."""
        return target == self.root_package or target.startswith(
            self.root_package + "."
        )

    def is_stdlib(self, target: str) -> bool:
        top = target.split(".", 1)[0]
        return top in sys.stdlib_module_names or top == "__future__"


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _module_name(root: Path, path: Path) -> str:
    """Dotted module name of ``path`` relative to the package ``root``."""
    relative = path.relative_to(root).with_suffix("")
    parts = [root.name, *relative.parts]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _extract_imports(
    info: ModuleInfo, root_package: str
) -> Iterator[ImportRecord]:
    """Resolve every import statement in ``info`` to dotted targets."""
    for node, typing_only in _walk_imports(info.ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = (
                    alias.asname
                    if alias.asname is not None
                    else alias.name.split(".", 1)[0]
                )
                yield ImportRecord(
                    target=alias.name,
                    names=(),
                    asnames=(),
                    line=node.lineno,
                    col=node.col_offset,
                    typing_only=typing_only,
                    module_alias=bound,
                )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_from(node, info)
            if target is None:
                continue
            yield ImportRecord(
                target=target,
                names=tuple(alias.name for alias in node.names),
                asnames=tuple(alias.asname for alias in node.names),
                line=node.lineno,
                col=node.col_offset,
                typing_only=typing_only,
            )


def _resolve_from(node: ast.ImportFrom, info: ModuleInfo) -> str | None:
    """Absolute dotted target of a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    # Relative import: climb ``level`` packages from the module's own
    # package (a package's __init__ counts as being inside itself).
    base = info.name.split(".")
    if not info.is_package:
        base = base[:-1]
    climb = node.level - 1
    if climb > len(base):
        return None
    anchor = base[: len(base) - climb]
    if node.module:
        anchor = anchor + node.module.split(".")
    return ".".join(anchor) if anchor else None


def _walk_imports(
    tree: ast.Module,
) -> Iterator[tuple[ast.Import | ast.ImportFrom, bool]]:
    """Yield import nodes with a flag for TYPE_CHECKING-guarded ones."""

    def visit(node: ast.AST, typing_only: bool) -> Iterator[
        tuple[ast.Import | ast.ImportFrom, bool]
    ]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield child, typing_only
            elif isinstance(child, ast.If) and _is_type_checking_test(
                child.test
            ):
                yield from visit(child, True)
            else:
                yield from visit(child, typing_only)

    yield from visit(tree, False)


def _is_type_checking_test(test: ast.AST) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False
