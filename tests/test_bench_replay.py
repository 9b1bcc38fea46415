"""Replay the benchmark's seed-1 ``library`` and ``sweep`` decks.

Every line must match ``bench/ref/<workload>_seed1.txt`` under the
workload's own ``line`` and ``matches``: the value, ``terms_used`` and
``tail_bound`` of every library call, and every sweep row, as the benchmark
checks them, without a timed run.  ``bench/workloads.py`` is only read:
it is loaded without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "_ellid_bench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.mark.parametrize("name", ["library", "sweep"])
def test_reference_deck_matches_reference_lines(workloads, name):
    w = workloads.make(name, workloads.load(), workloads.DEFAULT_SEED)
    reference = workloads.reference_lines(name)
    deck = w.reference_deck()
    assert len(deck) == len(reference)
    bad = []
    for item, ref in zip(deck, reference):
        try:
            result, exc = w.op(item), None
        except Exception as e:  # a raised outcome is one of the lines compared
            result, exc = None, e
        got = w.line(item, result, exc)
        if not w.matches(ref, got):
            bad.append((ref, got))
    assert not bad, f"{len(bad)} of {len(deck)} lines differ, first: {bad[0]}"
