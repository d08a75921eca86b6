"""The package is pure standard library, and its sources parse as Python 3.10."""

from __future__ import annotations

import ast
import sys

from conftest import REPO_ROOT

SOURCES = sorted((REPO_ROOT / "src" / "fedplan").glob("*.py"))


def _imported_modules(tree: ast.AST):
    """(top-level module name, line) of every import; a relative import is fedplan's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            name = "fedplan" if node.level else (node.module or "").partition(".")[0]
            yield name, node.lineno


def test_every_import_is_fedplan_or_stdlib():
    assert SOURCES
    outside = [
        f"{path.name}:{line}: {name}"
        for path in SOURCES
        for name, line in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name != "fedplan" and name not in sys.stdlib_module_names
    ]
    assert outside == []


def test_every_source_parses_with_the_python_3_10_grammar():
    # requires-python is >=3.10; ast.parse with feature_version rejects later
    # syntax (except*, PEP 695 type parameters, ...) on a newer interpreter.
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
