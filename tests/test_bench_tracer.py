"""Every name ``bench/tracer.py`` wraps must exist in ellid.

The tracer patches ellid from outside, by module and attribute name, and a
name a refactor removes silently drops its counters from the benchmark.
``bench/tracer.py`` is only read: it is loaded without writing bytecode
next to it.
"""

import importlib
import importlib.util
import sys
import types
from pathlib import Path

import pytest

import ellid

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


def _code_objects(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def test_every_sum_series_caller_is_in_a_module_the_tracer_wraps(tracer):
    # The tracer counts series.calls through the sum_series binding of the
    # modules it names, so a call from any other ellid module would drop out
    # of the counts without an error.  series itself defines the kernel.
    wrapped = {mod for mod, attr, _, _ in tracer.BOUND_TARGETS if attr == "sum_series"}
    callers = set()
    for path in sorted(Path(ellid.__file__).parent.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        callers |= {(f"ellid.{path.stem}", co.co_name) for co in _code_objects(code)
                    if "sum_series" in co.co_names}
    assert ("ellid.registry", "_bilateral_exp_sinh") in callers
    assert {mod for mod, _ in callers} <= wrapped | {"ellid.series"}, sorted(callers)
