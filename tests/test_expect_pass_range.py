"""Classes over each record's whole declared box, not only its golden grid.

The golden grid pins classes at a few hand-picked points.  Here every
record runs on a deterministic deck over its declared ``ParamSpec`` box:
both ends of each range plus interior points, geometric when lo > 0 and
hi/lo > 20 and linear otherwise, every choice of a choice parameter, 60
points per axis for a one-parameter record and 12 for more, filtered by the
record's constraint.  Every variant's count of rows per class is pinned in
``CLASS_COUNTS``.

``KNOWN_DEFECTS`` lists every deck row whose class the 50-digit oracle
refutes, and the tests assert it both ways.  Each listed row keeps its
shipped class and its oracle residual, so a fix shows as a row to delete.
The oracle agrees with every unlisted row it scores: each row whose class
differs from its variant's majority, and every ``STRIDE``-th row of each
variant's deck, which catches a false majority.  Every ExpectPass deck row
must PASS except the listed ones.  ``OFF_DECK_DEFECTS`` pins, the same way,
the rows off the deck whose class the oracle refutes.
"""

import functools
import itertools
from collections import Counter

import pytest

import oracle
from ellid.registry import Classification, Expectation, classify, default_registry

EXPECT_PASS_RECORDS = [r for r in default_registry().records()
                       if r.expected is Expectation.EXPECT_PASS]

PASS, INCONCLUSIVE, FAIL = (Classification.PASS, Classification.INCONCLUSIVE,
                            Classification.FAIL)

KE_CANCELLATION = "K and E cancel at the singular modulus (_ke_at, a <~ 0.16)"
SMALL_M = ("K - E cancels at small m in the stated dr/dm (r >~ 5.8); "
           "from r ~ 11.94 on a denominator is 0 and the side refuses")
RATIO_GUARD = ("the 0.99 ratio guard keeps a converged sum running to the cap "
               "(NonConvergenceError, envelope ratio ~ 0.991-0.995)")
LOST_DIGITS = ("the terms are orders larger than the value (theta2 near q = 1), "
               "so too few digits survive to classify the row")
SHORT_CAP = ("the envelope ratio (~ 0.998) is so near 1 that the geometric tail "
             "is still above the tolerance at the cap (NonConvergenceError)")

# (identity, variant, point values in ParamSpec order) ->
#     (shipped class, 50-digit oracle residual, mechanism).
# The oracle class of every row differs from its shipped class.
KNOWN_DEFECTS = {
    ("E4", "base", (0.11,)): (INCONCLUSIVE, 1.5e-42, KE_CANCELLATION),
    ("E4", "base", (0.12014110515583304,)): (INCONCLUSIVE, 1e-43, KE_CANCELLATION),
    ("E5b", "base", (0.11,)): (FAIL, 1.3e-41, KE_CANCELLATION),
    ("E5b", "base", (0.12014110515583304,)): (INCONCLUSIVE, 8.9e-43, KE_CANCELLATION),
    ("E5b", "base", (0.13121713770968116,)): (INCONCLUSIVE, 3.2e-44, KE_CANCELLATION),
    ("E7", "base", (26.683496156031545, 3.1)): (INCONCLUSIVE, 1.5e-49, RATIO_GUARD),
    ("E7", "base", (50.0, 3.1)): (INCONCLUSIVE, 1.8e-49, RATIO_GUARD),
    ("E8", "base", (1.4, 0.9)): (INCONCLUSIVE, 1.2e-48, LOST_DIGITS),
    ("P11a", "base", (2, 0.17652826746038863, 0.5454545454545454)):
        (INCONCLUSIVE, 4.7e-50, RATIO_GUARD),
    ("P11a", "base", (3, 0.17652826746038863, 0.5454545454545454)):
        (INCONCLUSIVE, 8.5e-50, RATIO_GUARD),
    ("P11a", "base", (4, 0.17652826746038863, 0.5454545454545454)):
        (INCONCLUSIVE, 2.8e-49, RATIO_GUARD),
    ("P12", "base", (8.65752256216612, 1.5)): (INCONCLUSIVE, 0.98, LOST_DIGITS),
    ("P12", "base", (13.158664493151358, 1.2272727272727273)):
        (INCONCLUSIVE, 2, LOST_DIGITS),
    ("P12", "base", (13.158664493151358, 1.3636363636363635)):
        (INCONCLUSIVE, 1.9, LOST_DIGITS),
    ("P12", "base", (13.158664493151358, 1.5)): (INCONCLUSIVE, 0.99, LOST_DIGITS),
    ("P12", "base", (20.0, 1.0909090909090908)): (INCONCLUSIVE, 2, LOST_DIGITS),
    ("P12", "base", (20.0, 1.2272727272727273)): (INCONCLUSIVE, 2, LOST_DIGITS),
    ("P12", "base", (20.0, 1.3636363636363635)): (INCONCLUSIVE, 2, LOST_DIGITS),
    ("P12", "base", (20.0, 1.5)): (INCONCLUSIVE, 0.99, LOST_DIGITS),
    ("P12", "derived-bilateral", (5.6960717368716045, 1.3636363636363635)):
        (INCONCLUSIVE, 9.5e-49, LOST_DIGITS),
    ("P12", "derived-bilateral", (8.65752256216612, 1.2272727272727273)):
        (INCONCLUSIVE, 4.2e-48, LOST_DIGITS),
    ("P12", "derived-bilateral", (8.65752256216612, 1.3636363636363635)):
        (FAIL, 7.4e-47, LOST_DIGITS),
    ("P12", "derived-bilateral", (8.65752256216612, 1.5)):
        (INCONCLUSIVE, 1.7e-47, LOST_DIGITS),
    ("P12", "derived-bilateral", (13.158664493151358, 0.9545454545454546)):
        (INCONCLUSIVE, 4.6e-48, LOST_DIGITS),
    ("P12", "derived-bilateral", (13.158664493151358, 1.0909090909090908)):
        (INCONCLUSIVE, 4.6e-47, LOST_DIGITS),
    ("P12", "derived-bilateral", (13.158664493151358, 1.2272727272727273)):
        (INCONCLUSIVE, 4.5e-45, LOST_DIGITS),
    ("P12", "derived-bilateral", (13.158664493151358, 1.3636363636363635)):
        (INCONCLUSIVE, 6.1e-43, LOST_DIGITS),
    ("P12", "derived-bilateral", (13.158664493151358, 1.5)):
        (INCONCLUSIVE, 2.6e-42, LOST_DIGITS),
    ("P12", "derived-bilateral", (20.0, 0.8181818181818182)):
        (INCONCLUSIVE, 3.3e-48, LOST_DIGITS),
    ("P12", "derived-bilateral", (20.0, 0.9545454545454546)):
        (FAIL, 9.5e-46, LOST_DIGITS),
    ("P12", "derived-bilateral", (20.0, 1.0909090909090908)):
        (INCONCLUSIVE, 3.8e-43, LOST_DIGITS),
    ("P12", "derived-bilateral", (20.0, 1.2272727272727273)):
        (INCONCLUSIVE, 3e-40, LOST_DIGITS),
    ("P12", "derived-bilateral", (20.0, 1.3636363636363635)):
        (INCONCLUSIVE, 4.8e-37, LOST_DIGITS),
    ("P12", "derived-bilateral", (20.0, 1.5)): (INCONCLUSIVE, 2.5e-34, LOST_DIGITS),
    ("P3", "base", (0.11,)): (FAIL, 1.3e-41, KE_CANCELLATION),
    ("P3", "base", (0.12014110515583304,)): (INCONCLUSIVE, 8.9e-43, KE_CANCELLATION),
    ("P3", "base", (0.13121713770968116,)): (INCONCLUSIVE, 3.2e-44, KE_CANCELLATION),
    ("P4b", "base", (11.600563544588889, 1.2272727272727273)):
        (INCONCLUSIVE, 8.2e-49, LOST_DIGITS),
    ("P4b", "base", (11.600563544588889, 1.3636363636363635)):
        (INCONCLUSIVE, 5.1e-47, LOST_DIGITS),
    ("P4b", "base", (11.600563544588889, 1.5)): (INCONCLUSIVE, 5.8e-45, LOST_DIGITS),
    ("P4b", "base", (20.0, 0.9545454545454546)): (INCONCLUSIVE, 1.2e-48, LOST_DIGITS),
    ("P4b", "base", (20.0, 1.0909090909090908)): (INCONCLUSIVE, 3.9e-46, LOST_DIGITS),
    ("P4b", "base", (20.0, 1.2272727272727273)): (FAIL, 2.4e-43, LOST_DIGITS),
    ("P4b", "base", (20.0, 1.3636363636363635)): (FAIL, 3.1e-40, LOST_DIGITS),
    ("P4b", "base", (20.0, 1.5)): (FAIL, 7.7e-37, LOST_DIGITS),
    ("P5", "base", (0.11,)): (INCONCLUSIVE, 1.5e-42, KE_CANCELLATION),
    ("P5", "base", (0.12014110515583304,)): (INCONCLUSIVE, 1e-43, KE_CANCELLATION),
    ("P5", "n-times-n-plus-1", (0.11,)): (INCONCLUSIVE, 1.6e-25, KE_CANCELLATION),
    ("P5", "n-times-n-plus-1", (0.12014110515583304,)):
        (INCONCLUSIVE, 1.9e-23, KE_CANCELLATION),
    ("P6", "base", (0.11,)): (INCONCLUSIVE, 2.5e-43, KE_CANCELLATION),
    ("P6b", "minus-half", (0.11,)): (INCONCLUSIVE, 7e-42, KE_CANCELLATION),
    ("P6b", "minus-half", (0.12014110515583304,)):
        (INCONCLUSIVE, 4.8e-43, KE_CANCELLATION),
    ("P6b", "minus-half", (0.13121713770968116,)):
        (INCONCLUSIVE, 1.8e-44, KE_CANCELLATION),
    ("P7b", "base", (0.11,)): (INCONCLUSIVE, 7e-42, KE_CANCELLATION),
    ("P7b", "base", (0.12014110515583304,)): (INCONCLUSIVE, 4.8e-43, KE_CANCELLATION),
    ("P7b", "base", (0.13121713770968116,)): (INCONCLUSIVE, 1.8e-44, KE_CANCELLATION),
    ("P8", "base", (5.818953291417297,)): (INCONCLUSIVE, 5.3e-16, SMALL_M),
    ("P8", "base", (6.3554134480095135,)): (INCONCLUSIVE, 1.8e-17, SMALL_M),
    ("P8", "base", (6.9413308669646,)): (INCONCLUSIVE, 4.6e-19, SMALL_M),
    ("P8", "base", (7.581265105540218,)): (INCONCLUSIVE, 8.2e-21, SMALL_M),
    ("P8", "base", (8.280196075081406,)): (INCONCLUSIVE, 1e-22, SMALL_M),
    ("P8", "base", (9.043562794247917,)): (FAIL, 8.4e-25, SMALL_M),
    ("P8", "base", (9.877305714973806,)): (FAIL, 4.5e-27, SMALL_M),
    ("P8", "base", (10.787912950536166,)): (FAIL, 1.5e-29, SMALL_M),
    ("P8", "base", (11.782470765475809,)): (FAIL, 2.8e-32, SMALL_M),
    ("P8", "base", (12.868718720277792,)): (INCONCLUSIVE, 6.7e-35, SMALL_M),
    ("P8", "base", (14.05510989994301,)): (INCONCLUSIVE, 4.6e-34, SMALL_M),
    ("P8", "base", (15.350876695144033,)): (INCONCLUSIVE, 4.4e-32, SMALL_M),
    ("P8", "base", (16.766102647868415,)): (INCONCLUSIVE, 6.5e-30, SMALL_M),
    ("P8", "base", (18.31180092064591,)): (INCONCLUSIVE, 1.1e-27, SMALL_M),
    ("P8", "base", (20.0,)): (INCONCLUSIVE, 1.6e-25, SMALL_M),
    ("P8", "classical-drdk", (0.11,)): (FAIL, 1.3e-41, KE_CANCELLATION),
    ("P8", "classical-drdk", (0.12014110515583304,)):
        (INCONCLUSIVE, 9e-43, KE_CANCELLATION),
    ("P8", "classical-drdk", (0.13121713770968116,)):
        (INCONCLUSIVE, 3.3e-44, KE_CANCELLATION),
}

# (identity, variant, point values in ParamSpec order) ->
#     (shipped class, 50-digit oracle residual, mechanism): rows off the deck,
# found by seeded uniform draws over the declared box, whose oracle class
# differs from their shipped class.  Both P2 rows are INCONCLUSIVE where the
# oracle says FAIL; their sums have envelope ratio e^(2 theta - 2 pi a), about
# 0.995 and 0.998.  Their oracles take 2 s and 4 s, so, as for SLOW_ORACLE,
# the residuals are stored rather than recomputed.
OFF_DECK_DEFECTS = {
    ("P2", "sinh-squared", (0.0746, 0.232)): (INCONCLUSIVE, 4.8e-4, RATIO_GUARD),
    ("P2", "sinh-squared", (0.305, 0.957)): (INCONCLUSIVE, 0.13, SHORT_CAP),
}

# Rows whose oracle takes over half a second each, about 7.6 s for the five
# on a 2-core VM: the tests keep their stored residual rather than recompute
# it.
SLOW_ORACLE = {
    ("E7", "base", (26.683496156031545, 3.1)),
    ("E7", "base", (50.0, 3.1)),
    ("P11a", "base", (2, 0.17652826746038863, 0.5454545454545454)),
    ("P11a", "base", (3, 0.17652826746038863, 0.5454545454545454)),
    ("P11a", "base", (4, 0.17652826746038863, 0.5454545454545454)),
}

# The oracle scores every STRIDE-th row of each variant's deck as well as its
# minority rows: about 250 rows.  Cut this stride, never the minority set, if
# the module grows slow.
STRIDE = 13


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


def _point(identity, values):
    record = default_registry().get(identity)
    return dict(zip((p.name for p in record.params), values))


@functools.cache
def oracle_residual(identity, variant, values):
    """The 50-digit residual of a row, computed once per test session."""
    return oracle.residual(identity, variant, _point(identity, values))


@functools.cache
def shipped():
    """{(identity, variant): [(point values, shipped class), ...]} in deck order."""
    registry = default_registry()
    rows = {}
    for record in registry.records():
        points = deck(record)
        for v in record.variants:
            rows[record.identity_id, v.variant_id] = [
                (tuple(p.values()),
                 registry.evaluate(record.identity_id, v.variant_id, p).classification)
                for p in points]
    return rows


def test_deck_sizes():
    assert {r.identity_id: len(deck(r)) for r in EXPECT_PASS_RECORDS} == {
        "E4": 60, "E5": 60, "E5b": 60, "E5c": 60, "E7b": 144, "P1": 57,
        "P11a": 324}


@pytest.mark.parametrize("record", EXPECT_PASS_RECORDS, ids=lambda r: r.identity_id)
def test_expect_pass_holds_over_its_declared_box(record):
    non_pass = {(record.identity_id, v.variant_id, values): cls
                for v in record.variants
                for values, cls in shipped()[record.identity_id, v.variant_id]
                if cls is not PASS}
    assert non_pass == {key: cls for key, (cls, _, _) in KNOWN_DEFECTS.items()
                        if key[0] == record.identity_id}


@pytest.mark.parametrize("key", KNOWN_DEFECTS, ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_known_defect_keeps_its_class_and_its_oracle_residual(key):
    identity, variant, values = key
    cls, true, _ = KNOWN_DEFECTS[key]
    assert dict(shipped()[identity, variant])[values] is cls
    assert classify(true) is not cls
    if key not in SLOW_ORACLE:
        got = oracle.residual(identity, variant, _point(identity, values))
        assert got == pytest.approx(true, rel=0.05)


@pytest.mark.parametrize("key", OFF_DECK_DEFECTS, ids=lambda k: f"{k[0]}-{k[1]}-{k[2]}")
def test_off_deck_defect_keeps_its_class(key):
    identity, variant, values = key
    cls, true, _ = OFF_DECK_DEFECTS[key]
    assert values not in dict(shipped()[identity, variant])
    got = default_registry().evaluate(identity, variant, _point(identity, values))
    assert got.classification is cls
    assert got.note.startswith("NonConvergenceError: ")
    assert classify(true) is not cls


def refuted(key, rows):
    """{values: (shipped class, oracle residual)} of the scored rows in
    ``rows``, variant ``key``'s deck, that ``KNOWN_DEFECTS`` does not list
    and whose class the oracle refutes.  A row is scored if its class is not
    the variant's majority class, or if it is every ``STRIDE``-th row."""
    identity, variant = key
    majority = Counter(cls for _, cls in rows).most_common(1)[0][0]
    out = {}
    for i, (values, cls) in enumerate(rows):
        if (identity, variant, values) in KNOWN_DEFECTS:
            continue
        if cls is not majority or i % STRIDE == 0:
            true = oracle_residual(identity, variant, values)
            if classify(true) is not cls:
                out[values] = (cls, true)
    return out


@pytest.mark.parametrize("key", [(r.identity_id, v.variant_id)
                                 for r in default_registry().records()
                                 for v in r.variants],
                         ids=lambda k: f"{k[0]}-{k[1]}")
def test_oracle_agrees_with_every_unlisted_scored_row(key):
    assert refuted(key, shipped()[key]) == {}


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
    counts = {key: dict(Counter(cls for _, cls in rows))
              for key, rows in shipped().items() if key[0] == record.identity_id}
    assert counts == {key: c for key, c in CLASS_COUNTS.items()
                      if key[0] == record.identity_id}
