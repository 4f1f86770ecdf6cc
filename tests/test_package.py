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


SOURCES = sorted(Path(modaldecomp.__file__).parent.glob("*.py"))
REPO = Path(__file__).resolve().parents[1]


def _names_read(tree) -> set[str]:
    """Every name a module loads or reads as an attribute."""
    loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return loads | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    aliases = [a for n in imports if getattr(n, "module", None) != "__future__" for a in n.names]
    imported = {(a.asname or a.name).split(".")[0] for a in aliases}
    exported = {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }
    assert sorted(imported - _names_read(tree) - exported) == []


def test_every_private_module_name_is_read():
    """A private name a module defines at its top level is read in that module, or imported or read as an
    attribute in the package, its tests, demos or benchmark."""
    paths = [p for d in ("src", "tests", "demos", "perfbench") for p in (REPO / d).rglob("*.py")]
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in paths]
    elsewhere = {n.attr for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    elsewhere |= {a.name for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    unread = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _names_read(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [name for name in names if name.startswith("_") and not name.startswith("__")]
            unread += [f"{path.name}:{name}" for name in private if name not in own | elsewhere]
    assert unread == []
