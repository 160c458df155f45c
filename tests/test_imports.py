"""The package imports nothing beyond the standard library and itself.

`pyproject.toml` declares `dependencies = []`; this keeps it true.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import qmi

PACKAGE = Path(qmi.__file__).parent


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of every absolute import in the tree."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_and_itself():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    foreign = {}
    for path in modules:
        roots = imported_roots(ast.parse(path.read_text(), str(path)))
        extra = roots - sys.stdlib_module_names - {"qmi"}
        if extra:
            foreign[path.name] = sorted(extra)
    assert foreign == {}
