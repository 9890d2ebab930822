"""Every imported name in the package and its tests is referenced, and every
name a package module exports exists.

An import that nothing reads is dead code that still costs load time and
misleads a reader about what a module depends on.  Names listed in a
module's ``__all__`` count as used: they are re-exported.  A stale
``__all__`` entry would break ``from module import *`` only when someone
runs it, so each entry is resolved here.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src" / "wavekin").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by import statements and never read, in source order."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted({(name, line) for name, line in imported if name not in used},
                  key=lambda x: x[1])


@pytest.mark.parametrize("path", FILES, ids=[f"{p.parent.name}/{p.name}" for p in FILES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_unused_and_reexported_names():
    src = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
           "__all__ = ['c']\nprint(np.pi)\n")
    assert unused_imports(src) == [("os", 1), ("e", 3)]


MODULES = sorted(p.stem for p in (ROOT / "src" / "wavekin").glob("*.py"))


@pytest.mark.parametrize("stem", MODULES)
def test_every_exported_name_resolves(stem):
    name = "wavekin" if stem == "__init__" else f"wavekin.{stem}"
    module = importlib.import_module(name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
