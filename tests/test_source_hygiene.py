"""Source hygiene of the package, read with `ast` (no import, a few ms):
every imported name is used, and every module-level private name is
referenced somewhere besides its definition. `__init__.py` only
re-exports, so it is left out."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p.stem: ast.parse(p.read_text(), str(p)) for p in MODULES}


def loaded_names(tree) -> set:
    """The names a module reads: bare names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def imported_names(tree) -> list:
    """The names bound by the module's imports, `__future__` aside."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Import):
            out += [a.asname or a.name.split(".")[0] for a in node.names]
    return out


def private_definitions(tree) -> list:
    """Module-level names starting with a single underscore."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [n for n in out if n.startswith("_") and not n.startswith("__")]


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_import_is_used(name):
    tree = TREES[name]
    used = loaded_names(tree)
    assert [n for n in imported_names(tree) if n not in used] == []


@pytest.mark.parametrize("name", sorted(TREES))
def test_every_private_name_is_referenced(name):
    elsewhere = set()
    for other, tree in TREES.items():
        elsewhere |= loaded_names(tree)
        if other != name:
            elsewhere |= set(imported_names(tree))
    assert [n for n in private_definitions(TREES[name])
            if n not in elsewhere] == []
