"""Every span target of the benchmark's tracer resolves on its owner.

``perfbench/spans.py`` wraps each ``TARGETS`` entry in place and silently
skips a name it cannot find, so a method moved to a base class or renamed
would drop out of the per-layer metrics without an error.  A method must sit
in its class's own ``__dict__``, since that is where the tracer patches it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("name, modname, attr", _targets())
def test_trace_target_resolves_on_its_owner(name, modname, attr):
    owner = importlib.import_module("maninmaps." + modname)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        assert leaf in owner.__dict__, "%s: %s is not in %s's own class dict" % (
            name, leaf, owner.__name__)
    assert callable(getattr(owner, leaf))
