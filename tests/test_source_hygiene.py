"""Source hygiene of the package, read with `ast` (no import, a few ms):
every imported name is used, every module-level private name is
referenced somewhere besides its definition, and every int/bytes
conversion names its length and byte order. `__init__.py` only
re-exports, so it is left out of the first two."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"
ALL_TREES = {p.stem: ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.glob("*.py"))}
TREES = {k: t for k, t in ALL_TREES.items() if k != "__init__"}

#: the arguments that `int.to_bytes` and `int.from_bytes` take before
#: their byteorder; Python 3.10 has no default for either, 3.11 and
#: later default to length 1 and "big"
BYTES_ARGS = {"to_bytes": ("length", "byteorder"),
              "from_bytes": ("bytes", "byteorder")}


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


def bytes_calls_without_byteorder(tree) -> list:
    """(line, method) of each `to_bytes`/`from_bytes` call that leaves an
    argument of `BYTES_ARGS` to its default."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in BYTES_ARGS:
            names = BYTES_ARGS[node.func.attr]
            given = set(names[:len(node.args)]) | \
                {k.arg for k in node.keywords}
            if not set(names) <= given:
                out.append((node.lineno, node.func.attr))
    return out


@pytest.mark.parametrize("name", sorted(ALL_TREES))
def test_bytes_conversions_name_their_byteorder(name):
    assert bytes_calls_without_byteorder(ALL_TREES[name]) == []


def test_bytes_check_sees_a_default_byteorder():
    tree = ast.parse("(5).to_bytes(2)\nint.from_bytes(b'', 'little')\n"
                     "int.from_bytes(b'')\nx.to_bytes(length=1, "
                     "byteorder='big')\n")
    assert bytes_calls_without_byteorder(tree) == [(1, "to_bytes"),
                                                   (3, "from_bytes")]
