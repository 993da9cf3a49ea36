"""The package is stdlib-only: every import in ``src/seqgames`` is relative or
names a standard-library module."""

from __future__ import annotations

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "seqgames"


def _imported_modules(tree: ast.AST):
    for statement in ast.walk(tree):
        if isinstance(statement, ast.Import):
            yield from (alias.name for alias in statement.names)
        elif isinstance(statement, ast.ImportFrom) and not statement.level:
            yield statement.module


def test_every_import_is_relative_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = [
        (path.name, module)
        for path in sources
        for module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
