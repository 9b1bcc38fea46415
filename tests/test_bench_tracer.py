"""Every name ``bench/tracer.py`` wraps must exist in ellid.

The tracer patches ellid from outside, by module and attribute name, and a
name a refactor removes silently drops its counters from the benchmark.
``bench/tracer.py`` is only read: it is loaded without writing bytecode
next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"

# Targets known to name nothing; this table may only shrink.
KNOWN_STALE = {("ellid.theta", "_sum_theta")}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location(
        "_ellid_bench_tracer", BENCH_DIR / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _targets(tracer):
    """(module, dotted attribute path) of every tracer target."""
    return ([(mod, attr) for mod, attr, _ in tracer.SPAN_TARGETS]
            + [(mod, attr) for mod, attr, _, _ in tracer.BOUND_TARGETS]
            + [(mod, f"{cls}.{attr}") for mod, cls, attr, _ in tracer.METHOD_TARGETS])


def _resolves(mod, path):
    obj = importlib.import_module(mod)
    for attr in path.split("."):
        obj = getattr(obj, attr, None)
    return obj is not None


def test_every_tracer_target_resolves(tracer):
    unresolved = {t for t in _targets(tracer) if not _resolves(*t)}
    assert unresolved == KNOWN_STALE
