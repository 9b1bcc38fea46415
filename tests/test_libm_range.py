"""Classes over each record's declared box under a one-ulp libm perturbation.

The deck is ``test_expect_pass_range``'s.  Under ``libm.perturbed_libm`` for
each of ``LIBM_SEEDS``, every row whose class moves is in that module's
``KNOWN_DEFECTS`` or in ``LIBM_SENSITIVE`` here, and every ``LIBM_SENSITIVE``
row moves under at least one seed.  A row listed here is right but rests on
libm's last bits; a fix that gives it margin shows as a row to delete.
"""

import functools

import pytest

import oracle
from ellid import sides
from ellid.registry import Classification, classify, default_registry
from libm import ellid_modules, perturbed_libm
from test_expect_pass_range import KE_CANCELLATION, KNOWN_DEFECTS, _point, shipped

PASS = Classification.PASS

LIBM_SEEDS = (0, 1, 2)

# (identity, variant, point values in ParamSpec order) ->
#     (shipped class, mechanism): rows whose shipped class the oracle does
# not refute, but which a one-ulp libm perturbation moves.  Each PASSes at a
# relative residual of 3.4e-10 to 8.8e-10, within 3x of the PASS bound.
LIBM_SENSITIVE = {
    ("E4", "base", (0.13121713770968116,)): (PASS, KE_CANCELLATION),
    ("E5b", "base", (0.14331429036205665,)): (PASS, KE_CANCELLATION),
    ("E5b", "base", (0.15652670207928576,)): (PASS, KE_CANCELLATION),
    ("P3", "base", (0.14331429036205665,)): (PASS, KE_CANCELLATION),
    ("P3", "base", (0.15652670207928576,)): (PASS, KE_CANCELLATION),
    ("P5", "base", (0.13121713770968116,)): (PASS, KE_CANCELLATION),
    ("P5", "n-times-n-plus-1", (0.13121713770968116,)): (PASS, KE_CANCELLATION),
    ("P6", "base", (0.12014110515583304,)): (PASS, KE_CANCELLATION),
    ("P6b", "minus-half", (0.14331429036205665,)): (PASS, KE_CANCELLATION),
    ("P7b", "base", (0.14331429036205665,)): (PASS, KE_CANCELLATION),
    ("P8", "classical-drdk", (0.14331429036205665,)): (PASS, KE_CANCELLATION),
    ("P8", "classical-drdk", (0.15652670207928576,)): (PASS, KE_CANCELLATION),
}


@functools.cache
def libm_moved():
    """The deck rows whose class differs from ``shipped()`` under some seed.

    Each row runs in its own ``perturbed_libm(seed)`` with a cold ``_ke_at``
    memo, so whether it moves depends on its own libm calls only, not on
    the rows evaluated before it.
    """
    registry = default_registry()  # E8's grid computes q at build time
    want = shipped()
    modules = ellid_modules()
    moved = set()
    try:
        for seed in LIBM_SEEDS:
            for (identity, variant), rows in want.items():
                for values, cls in rows:
                    sides._ke_at.cache_clear()
                    with perturbed_libm(seed, modules=modules):
                        got = registry.evaluate(identity, variant,
                                                _point(identity, values))
                    if got.classification is not cls:
                        moved.add((identity, variant, values))
    finally:
        sides._ke_at.cache_clear()
    return moved


def test_every_libm_moved_row_is_listed():
    assert libm_moved() - KNOWN_DEFECTS.keys() - LIBM_SENSITIVE.keys() == set()


@pytest.mark.parametrize("key", LIBM_SENSITIVE, ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_libm_sensitive_row_keeps_its_class_and_moves(key):
    identity, variant, values = key
    cls = LIBM_SENSITIVE[key][0]
    assert key not in KNOWN_DEFECTS
    assert dict(shipped()[identity, variant])[values] is cls
    assert classify(oracle.residual(identity, variant, _point(identity, values))) is cls
    assert key in libm_moved()
