"""The runtime stays standard-library only: every module of the package
imports nothing but the package itself and the standard library."""

import ast
import sys
from pathlib import Path

import qident

SOURCES = sorted(Path(qident.__file__).parent.glob("*.py"))


def top_level_imports(path: Path):
    """(line, top-level module) of each absolute import in the file;
    relative imports stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"qfunc.py", "bailey.py",
                                         "records.py"}


def test_runtime_imports_only_the_standard_library():
    stray = [(p.name, line, mod) for p in SOURCES
             for line, mod in top_level_imports(p)
             if mod != "qident" and mod not in sys.stdlib_module_names]
    assert stray == []
