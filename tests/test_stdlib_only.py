"""The library imports nothing outside the Python standard library.

Test-only oracles (sympy, hypothesis) may appear under ``tests/`` but never
in ``src/maninmaps``; relative imports stay inside the package.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maninmaps"
SOURCES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    """(line, top-level module name) of every absolute import in a file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_sources_found():
    assert PACKAGE / "polynomials.py" in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib(path):
    outside = [
        "%s:%d imports %s" % (path.name, line, name)
        for line, name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    ]
    assert not outside
