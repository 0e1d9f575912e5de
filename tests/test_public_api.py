"""Every public function has a caller on a library or benchmark path.

A function exported in ``maninmaps.__all__`` must be used somewhere other
than by the tests, or it is dead library code:

- a reference in ``src/maninmaps`` outside its own ``def`` and outside
  ``__init__.py``: a bare name, a ``from`` import, or an attribute of a
  package module such as ``elliptic.bad_places``;
- or a mention in ``perfbench/``: an ``mm.`` attribute or an import in
  ``workloads.py``, or an entry of ``spans.TARGETS``.

A replaced method may survive only as a test oracle under ``tests/``.
"""

import ast
import importlib.util
import inspect
from functools import lru_cache
from pathlib import Path

import pytest

import maninmaps

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maninmaps"
PERFBENCH = ROOT / "perfbench"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


@lru_cache(maxsize=None)
def _library_references() -> frozenset:
    """{(name, module, def)}: each name a package module refers to, with the
    module and the top-level definition it sits in (None at module level)."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    out.add((sub.id, path.stem, owner))
                elif isinstance(sub, ast.ImportFrom):
                    out.update((alias.name, path.stem, owner) for alias in sub.names)
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in MODULES):
                    out.add((sub.attr, path.stem, owner))
    return frozenset(out)


@lru_cache(maxsize=None)
def _perfbench_mentions() -> frozenset:
    """Names ``workloads.py`` reads as ``mm.<name>`` or imports, and the
    functions of ``spans.TARGETS``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "mm":
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    spec = importlib.util.spec_from_file_location("_perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    out.update(attr for _, _, attr in spans.TARGETS)
    return frozenset(out)


def _public_functions() -> list:
    return sorted(name for name in maninmaps.__all__
                  if inspect.isfunction(getattr(maninmaps, name)))


def test_the_rule_reads_the_package():
    # guards the test against passing vacuously on an empty scan
    assert len(_public_functions()) > 20
    assert ("descent_bound_report", "cli", "_cmd_descent_bound") in _library_references()
    assert {"descent_bound_report", "kodaira_type", "value_at_O"} <= _perfbench_mentions()


@pytest.mark.parametrize("name", _public_functions())
def test_public_function_has_a_caller(name):
    home = getattr(maninmaps, name).__module__.rpartition(".")[2]
    library = {(module, owner) for ref, module, owner in _library_references() if ref == name}
    library.discard((home, name))
    assert library or name in _perfbench_mentions(), (
        "%s.%s has no caller in src/maninmaps or perfbench/" % (home, name))
