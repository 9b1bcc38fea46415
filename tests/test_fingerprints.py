"""Residual fingerprints: the closed form by which a contested reading is off.

For five FAIL variants the 50-digit residual is not noise but a simple
relation between the two sides: a constant ratio or a constant, or simple,
difference.  ``FINGERPRINTS`` records each one, and the test re-checks it
at ``tests/oracle.py``'s sides on two points off the golden grid.  A fix to
a reading, or a change to a side, then shows as a failing entry.
"""

import mpmath
import pytest

import oracle
from ellid.registry import default_registry

RATIO, DIFFERENCE = "lhs/rhs", "lhs - rhs"

# (identity, variant, the values its choice parameters must take,
#  relation, the relation's value at a point, two points off the golden grid)
FINGERPRINTS = (
    ("E8", "half-scale", {}, RATIO, lambda p: mpmath.mpf(1) / 2,
     ({"z": 0.45, "q": 0.33}, {"z": 1.1, "q": 0.7})),
    ("P5", "n-times-n-plus-1", {}, RATIO, lambda p: 2,
     ({"b": 0.8}, {"b": 3.3})),
    ("P6b", "base", {}, DIFFERENCE, lambda p: -1,
     ({"a": 0.8}, {"a": 3.3})),
    ("P7b", "plus-half-closed", {}, DIFFERENCE, lambda p: mpmath.pi,
     ({"x": 0.8}, {"x": 3.3})),
    # at fdeg = 4 the difference is 0: the reading holds there
    ("P10a", "base", {"fdeg": 2}, DIFFERENCE, lambda p: -p["b"] / (2 * mpmath.pi),
     ({"b": 0.7}, {"b": 2.9})),
)


@pytest.mark.parametrize("fingerprint", FINGERPRINTS, ids=lambda f: f"{f[0]}-{f[1]}")
def test_fingerprint_holds_off_the_golden_grid(fingerprint):
    identity, variant, choices, relation, value, points = fingerprint
    record = default_registry().get(identity)
    for point in points:
        point = {**choices, **point}
        assert point not in record.grid_points()
        record.validate_point(point)
        lhs, rhs = oracle.sides(identity, variant, point)
        with mpmath.workdps(oracle.DIGITS):
            got = lhs / rhs if relation == RATIO else lhs - rhs
            assert abs(got - value(point)) < 1e-40, (point, got)
