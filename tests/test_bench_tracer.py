"""The benchmark's tracer (bench/tracing.py) patches library names given as
strings.  These tests fail when one of those names disappears from the
library, or when patching is not undone exactly; tier-1 never runs the
traced benchmark itself."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    # bench/ is read, never written: no bytecode cache is left there
    sys.path.insert(0, str(BENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))


def _bindings(tracing):
    """Every name bound in a cycrew module or in a class the tracer patches,
    mapped to its object."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "cycrew":
            out.update(((mod_name, k), v) for k, v in vars(mod).items())
    for owner, _attr, _name, _mode in tracing.TARGETS:
        if isinstance(owner, type):
            out.update(((owner, k), v) for k, v in vars(owner).items())
    return out


def test_every_target_resolves(tracing):
    for owner, attr, _name, _mode in tracing.TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_install_then_uninstall_restores_every_object(tracing):
    before = _bindings(tracing)
    originals = [vars(owner)[attr] for owner, attr, _n, _m in tracing.TARGETS]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = _bindings(tracing)
        replaced = [
            vars(owner)[attr] is not original
            for (owner, attr, _n, _m), original in zip(tracing.TARGETS, originals)
        ]
    finally:
        tracer.uninstall()
    after = _bindings(tracing)
    assert all(replaced)
    assert patched.keys() == before.keys() == after.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []
