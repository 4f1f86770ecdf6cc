"""The package surface: every exported name resolves, and the package exports what it imports."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modaldecomp

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(modaldecomp.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", ["modaldecomp"] + [f"modaldecomp.{m}" for m in SUBMODULES])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"


def test_package_exports_what_it_imports():
    tree = ast.parse(Path(modaldecomp.__file__).read_text(encoding="utf-8"))
    imported = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(modaldecomp.__all__) == sorted(imported)
