"""Source hygiene of the package, read with `ast` (no import, a few ms):
every imported name is used, every module-level private name is
referenced somewhere besides its definition, every int/bytes conversion
names its length and byte order, only the exact verdict and the
listed exact conveniences run `exact_run`, and only the listed functions
build an opaque `Factor`. `__init__.py` only re-exports, so it is left
out of all but the byte-order check."""

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


#: the functions of the package that reach `context.exact_run`, directly
#: or through a private helper: the exact verdict, and the two exact
#: conveniences kept beside the shared `Ctx` builders. Another caller
#: would be an exact-only copy of a builder, which the tests cannot run
#: under the numeric strategy.
EXACT_RUN_CALLERS = {"registry.verify_one", "bailey.AlphaSequence.value",
                     "bailey.cor_sides"}


def functions(module: str, tree):
    """(qualified name, node) of each module-level function and each
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def exact_run_reachers(trees) -> set:
    """The public functions of `trees` that read `exact_run`, or a private
    function (a leading underscore) that reaches it, followed to its
    readers in turn."""
    names, seen, out = {"exact_run"}, set(), set()
    while names:
        readers = {qual for module, tree in trees.items()
                   for qual, fn in functions(module, tree)
                   if loaded_names(fn) & names} - seen
        seen |= readers
        names = set()
        for qual in readers:
            last = qual.rsplit(".", 1)[1]
            if last.startswith("_"):
                names.add(last)
            else:
                out.add(qual)
    return out


def test_exact_run_is_reached_only_from_the_listed_callers():
    assert exact_run_reachers(TREES) == EXACT_RUN_CALLERS


def test_exact_run_check_follows_private_helpers():
    tree = ast.parse("def _run(order):\n    return exact_run(order, f)\n"
                     "def wrapper():\n    return _run(1)\n"
                     "class A:\n    def m(self):\n        return g(exact_run)\n"
                     "    def _n(self):\n        return _run(2)\n"
                     "def free():\n    return 0\n")
    assert exact_run_reachers({"m": tree}) == {"m.wrapper", "m.A.m"}


#: the functions of the package that build an opaque `Factor` (a value
#: with a hand-written floor and bound), or `_replace` the `at` of one,
#: each with why its value is not a declared `bailey.Summand`
OPAQUE_FACTORS = {
    "bailey.AlphaSequence.factor": "a finite sequence of arbitrary values",
    "bailey.constant": "one context value at every n",
    "bailey.vwp_weight": "its value is ctx.vwp, which the benchmark traces "
                         "(ROADMAP item 11); its bound is declared",
    "bailey.wp_transform": "beta_n is an inner sum over alpha",
    "bailey.running_sums": "the partial sums of an arbitrary alpha",
}


def factor_fields(trees) -> set:
    """The field names of `bailey.Factor`."""
    cls, = (node for node in trees["bailey"].body
            if isinstance(node, ast.ClassDef) and node.name == "Factor")
    return {item.target.id for item in cls.body
            if isinstance(item, ast.AnnAssign)}


def opaque_factor_builders(trees, fields) -> set:
    """The functions of `trees` that call `Factor(...)`, or `_replace`
    with an `at` keyword and only keywords in `fields` (an `Envelope`'s
    `_replace` names its `least` or `ratio`)."""
    out = set()
    for module, tree in trees.items():
        for qual, fn in functions(module, tree):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                keys = {k.arg for k in node.keywords}
                if isinstance(func, ast.Name) and func.id == "Factor" or \
                        isinstance(func, ast.Attribute) and \
                        func.attr == "_replace" and "at" in keys and \
                        keys <= fields:
                    out.add(qual)
    return out


def test_opaque_factors_are_built_only_by_the_listed_functions():
    assert opaque_factor_builders(TREES, factor_fields(TREES)) == \
        set(OPAQUE_FACTORS)


def test_opaque_factor_check_sees_replace_of_at():
    tree = ast.parse("def built():\n    return Factor(f, 0)\n"
                     "def swapped(one):\n    return one._replace(at=g, "
                     "bound=b)\n"
                     "def cut(env):\n    return env._replace(at=g, ratio=None)"
                     "\ndef moved(f):\n    return f._replace(support=3)\n")
    assert opaque_factor_builders(
        {"m": tree}, {"at", "floor", "support", "bound"}) == \
        {"m.built", "m.swapped"}
