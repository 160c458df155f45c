"""What the package imports, and the names others import from it.

`pyproject.toml` declares `dependencies = []`; the first test keeps it
true. The second keeps the process pool out of a plain import: a serial
run never starts one, and `multiprocessing` is most of the package's
import time. The benchmark's tracer looks up `qmi` functions by name, so
the last keeps every name it traces defined.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmi

PACKAGE = Path(qmi.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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


def test_import_leaves_the_process_pool_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    code = (
        "import sys, qmi.cli, qmi.runner; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _tracer_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,qualname", _tracer_targets())
def test_every_traced_name_resolves(module, qualname):
    # The tracer wraps functions by module attribute and methods on their class.
    owner = importlib.import_module(f"qmi.{module}")
    if "." in qualname:
        cls_name, method = qualname.split(".")
        assert callable(vars(getattr(owner, cls_name))[method])
    else:
        assert callable(getattr(owner, qualname))
