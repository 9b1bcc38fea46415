"""Classes over each record's whole declared box, not only its golden grid.

The golden grid pins classes at a few hand-picked points.  Here every
record runs on a deterministic deck over its declared ``ParamSpec`` box:
both ends of each range plus interior points, geometric when lo > 0 and
hi/lo > 20 and linear otherwise, every choice of a choice parameter, 60
points per axis for a one-parameter record and 12 for more, filtered by the
record's constraint.  Every ExpectPass deck row must PASS except the rows of
``KNOWN_DEFECTS``, and each of those must still have its listed class, so
that a fix shows as a row to delete.  Every variant's count of rows per
class is pinned in ``CLASS_COUNTS``.
"""

import itertools
from collections import Counter

import pytest

import oracle
from ellid.registry import Classification, Expectation, classify, default_registry

EXPECT_PASS_RECORDS = [r for r in default_registry().records()
                       if r.expected is Expectation.EXPECT_PASS]

PASS, INCONCLUSIVE, FAIL = (Classification.PASS, Classification.INCONCLUSIVE,
                            Classification.FAIL)

# (identity, point values in ParamSpec order) ->
#     (shipped class, mechanism, 50-digit oracle residual of the row).
# Every row is an oracle PASS that binary64 misses.
KE_CANCELLATION = "K and E cancel at the singular modulus (_ke_at, a <~ 0.12)"
RATIO_GUARD = ("the 0.99 ratio guard stops a converged sum at the cap "
               "(NonConvergenceError, ratio e^(|s| - pi a) ~ 0.991)")
KNOWN_DEFECTS = {
    ("E4", (0.11,)): (INCONCLUSIVE, KE_CANCELLATION, 1.5e-42),
    ("E4", (0.12014110515583304,)): (INCONCLUSIVE, KE_CANCELLATION, 1.0e-43),
    ("E5b", (0.11,)): (FAIL, KE_CANCELLATION, 1.3e-41),
    ("E5b", (0.12014110515583304,)): (INCONCLUSIVE, KE_CANCELLATION, 8.9e-43),
    ("E5b", (0.13121713770968116,)): (INCONCLUSIVE, KE_CANCELLATION, 3.2e-44),
    ("P11a", (2, 0.17652826746038863, 0.5454545454545454)):
        (INCONCLUSIVE, RATIO_GUARD, 4.7e-50),
    ("P11a", (3, 0.17652826746038863, 0.5454545454545454)):
        (INCONCLUSIVE, RATIO_GUARD, 8.5e-50),
    ("P11a", (4, 0.17652826746038863, 0.5454545454545454)):
        (INCONCLUSIVE, RATIO_GUARD, 2.8e-49),
}


def _axis(param, n):
    """``n`` values from lo to hi, both ends exact; a choice parameter's choices."""
    if param.choices is not None:
        return list(param.choices)
    lo, hi = param.lo, param.hi
    if lo > 0 and hi / lo > 20:
        values = [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    else:
        values = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    values[0], values[-1] = lo, hi
    return values


def deck(record):
    """The record's deck points, as dicts, constraint-filtered."""
    n = 60 if len(record.params) == 1 else 12
    names = [p.name for p in record.params]
    points = [dict(zip(names, combo)) for combo in
              itertools.product(*(_axis(p, n) for p in record.params))]
    return [p for p in points if record.constraint is None or record.constraint(p)]


def test_deck_sizes():
    assert {r.identity_id: len(deck(r)) for r in EXPECT_PASS_RECORDS} == {
        "E4": 60, "E5": 60, "E5b": 60, "E5c": 60, "E7b": 144, "P1": 57,
        "P11a": 324}


@pytest.mark.parametrize("record", EXPECT_PASS_RECORDS, ids=lambda r: r.identity_id)
def test_expect_pass_holds_over_its_declared_box(record):
    registry = default_registry()
    non_pass = {}
    for point in deck(record):
        for variant in record.variants:
            report = registry.evaluate(record.identity_id, variant.variant_id, point)
            if report.classification is not Classification.PASS:
                non_pass[record.identity_id, tuple(point.values())] = \
                    report.classification
    assert non_pass == {key: cls for key, (cls, _, _) in KNOWN_DEFECTS.items()
                        if key[0] == record.identity_id}


@pytest.mark.parametrize("key", [k for k in KNOWN_DEFECTS if k[0] != "P11a"]
                         + [("P11a", (2, 0.17652826746038863, 0.5454545454545454))],
                         ids=lambda k: f"{k[0]}-{k[1]}")
def test_known_defects_are_oracle_passes(key):
    identity, values = key
    record = default_registry().get(identity)
    point = dict(zip((p.name for p in record.params), values))
    true = oracle.residual(identity, "base", point)
    assert classify(true) is Classification.PASS
    assert true == pytest.approx(KNOWN_DEFECTS[key][2], rel=0.05)


# (identity, variant) -> {class: rows} over the record's deck, 3459 rows in
# all.  A change that moves a count lists the moved rows, with their old and
# new classes and their oracle residuals, where it records its changes.
CLASS_COUNTS = {
    ("E4", "base"): {PASS: 58, INCONCLUSIVE: 2},
    ("E5", "base"): {PASS: 60},
    ("E5b", "base"): {PASS: 57, INCONCLUSIVE: 2, FAIL: 1},
    ("E5c", "base"): {PASS: 60},
    ("E7", "base"): {PASS: 142, INCONCLUSIVE: 2},
    ("E7", "inverted-a"): {PASS: 12, FAIL: 132},
    ("E7b", "base"): {PASS: 144},
    ("E8", "base"): {PASS: 131, INCONCLUSIVE: 1},
    ("E8", "minus-tan"): {PASS: 11, FAIL: 121},
    ("E8", "half-scale"): {PASS: 11, FAIL: 121},
    ("P1", "base"): {PASS: 57},
    ("P10", "base"): {PASS: 24},
    ("P10a", "base"): {PASS: 12, FAIL: 12},
    ("P11a", "base"): {PASS: 321, INCONCLUSIVE: 3},
    ("P11b", "base"): {PASS: 90},
    ("P11b", "mixed-parity"): {PASS: 90},
    ("P12", "base"): {INCONCLUSIVE: 8, FAIL: 136},
    ("P12", "derived-bilateral"): {PASS: 129, INCONCLUSIVE: 13, FAIL: 2},
    ("P2", "base"): {PASS: 114},
    ("P2", "sinh-squared"): {PASS: 57, INCONCLUSIVE: 7, FAIL: 50},
    ("P2", "theta2-direct"): {PASS: 114},
    ("P2b", "base"): {PASS: 60},
    ("P2b", "nome-exp-pi-z"): {FAIL: 60},
    ("P3", "base"): {PASS: 57, INCONCLUSIVE: 2, FAIL: 1},
    ("P4", "base"): {PASS: 60},
    ("P4b", "base"): {PASS: 136, INCONCLUSIVE: 5, FAIL: 3},
    ("P5", "base"): {PASS: 58, INCONCLUSIVE: 2},
    ("P5", "n-times-n-plus-1"): {PASS: 10, INCONCLUSIVE: 7, FAIL: 43},
    ("P6", "base"): {PASS: 59, INCONCLUSIVE: 1},
    ("P6b", "base"): {FAIL: 60},
    ("P6b", "minus-half"): {PASS: 57, INCONCLUSIVE: 3},
    ("P7", "base"): {INCONCLUSIVE: 1, FAIL: 23},
    ("P7", "classical"): {PASS: 24},
    ("P7b", "base"): {PASS: 57, INCONCLUSIVE: 3},
    ("P7b", "middle-sum"): {PASS: 60},
    ("P7b", "plus-half-closed"): {FAIL: 60},
    ("P8", "base"): {PASS: 5, INCONCLUSIVE: 15, FAIL: 40},
    ("P8", "classical-drdk"): {PASS: 57, INCONCLUSIVE: 2, FAIL: 1},
    ("P9", "parameter"): {PASS: 60},
    ("P9", "modulus"): {PASS: 1, INCONCLUSIVE: 17, FAIL: 42},
}


@pytest.mark.parametrize("record", default_registry().records(),
                         ids=lambda r: r.identity_id)
def test_class_counts_over_the_declared_box(record):
    registry = default_registry()
    points = deck(record)
    counts = {(record.identity_id, v.variant_id): dict(Counter(
        registry.evaluate(record.identity_id, v.variant_id, p).classification
        for p in points)) for v in record.variants}
    assert counts == {key: c for key, c in CLASS_COUNTS.items()
                      if key[0] == record.identity_id}
