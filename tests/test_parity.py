"""Rewritten hot paths against the code they replaced, copied here as the
reference: the bilateral sums with one sinh denominator per term, P10's two
sums through ``PolynomialSpec``'s former methods, and ``render_json``.  Each
must give the same bits as its reference."""

import itertools
import json
import math
import random

import pytest

from ellid import DomainError, EllidError, PolynomialSpec, registry
from ellid.registry import Classification, ResidualReport, default_registry
from ellid.reporting import render_json
from ellid.series import _inv_expm1, exp_over_sinh, sum_series

# -- PolynomialSpec's former methods ------------------------------------------

def _eval_abs(f, x):
    """sum |f_n| |x|^n, an envelope for |f| on the disk of radius |x|."""
    ax = abs(x)
    acc = 0.0
    for c in reversed(f.coefficients):
        acc = acc * ax + abs(c)
    return acc


def _eval_imag_even(f, y):
    """f(iy) for an even polynomial, which is real: sum f_2k (-1)^k y^(2k)."""
    if not all(c == 0.0 for n, c in enumerate(f.coefficients) if n % 2 == 1):
        raise DomainError("imaginary-argument evaluation needs an even polynomial")
    acc = 0.0
    y2 = y * y
    for k in range((f.degree // 2), -1, -1):
        acc = acc * (-y2) + f.coefficient(2 * k)
    return acc


# -- the bilateral sums, one exp_over_sinh call per exponential ---------------


def _ref_p11a_rhs(fdeg, a, s):
    f = PolynomialSpec.monomial(fdeg)

    def pair(n):
        x = math.pi * a * n
        term = -(f.eval(n) * exp_over_sinh(-n * s, x)
                 + f.eval(-n) * exp_over_sinh(n * s, x)) / (2.0 * n)
        env = _eval_abs(f, n) * exp_over_sinh(n * abs(s), x) / n
        return term, env

    return sum_series(pair)


def _ref_poly_exp_bilateral_exp_sinh(f, a, s):
    def pair(n):
        x = math.pi * a * n
        plus = 0.0
        minus = 0.0
        env = 0.0
        for i, c in enumerate(f.coefficients):
            if c == 0.0:
                continue
            plus += c * exp_over_sinh(n * s + i * n, x)
            minus += c * exp_over_sinh(-n * s - i * n, x)
            env += abs(c) * exp_over_sinh(n * abs(s) + i * n, x)
        return -(minus + plus) / (2.0 * n), env / n

    return sum_series(pair)


def _ref_p12_bilateral(f, a, s, weight_half_n):
    def pair(n):
        x = math.pi ** 2 * a * n
        c = 2.0 * math.pi * n * a
        plus = f.eval(c) * exp_over_sinh(-2.0 * math.pi * n * s * a, x)
        minus_num = f.eval(-c) * exp_over_sinh(2.0 * math.pi * n * s * a, x)
        env = _eval_abs(f, c) * exp_over_sinh(2.0 * math.pi * n * abs(s) * a, x)
        if weight_half_n:
            return (plus + minus_num) / (2.0 * n), env / n
        return plus - minus_num, 2.0 * env

    return sum_series(pair)


def _p12_bilateral(f, a, s, weight_half_n):
    """The bilateral kernel at P12's reading, as ``_p12_rhs_printed`` and
    ``_p12_rhs_derived`` call it."""
    return registry._bilateral_exp_sinh(f, math.pi ** 2 * a, 2.0 * math.pi, a, s,
                                        weight_half_n)


def _box_points(identity, n, seed):
    """Every corner of the record's declared box and ``n`` seeded uniform
    points in it, all inside its constraint."""
    record = default_registry().get(identity)
    names = [p.name for p in record.params]
    corners = [dict(zip(names, c)) for c in itertools.product(
        *(p.choices or (p.lo, p.hi) for p in record.params))]
    rng = random.Random(seed)
    drawn = []
    while len(drawn) < n:
        drawn.append({p.name: rng.choice(p.choices) if p.choices else rng.uniform(p.lo, p.hi)
                      for p in record.params})
        if record.constraint is not None and not record.constraint(drawn[-1]):
            drawn.pop()
    return [p for p in corners if record.constraint is None or record.constraint(p)] + drawn


def _outcome(fn, *args):
    """The bits of a sum, or its error."""
    try:
        r = fn(*args)
    except EllidError as exc:
        return type(exc).__name__, str(exc)
    return r.value.hex(), r.terms_used, r.tail_bound.hex()


# P11b's two, and one with a negative coefficient, whose magnitude differs
_P11B_POLYS = (PolynomialSpec((0.0, 0.0, 1.0)), PolynomialSpec((0.0, 1.0, 1.0)),
               PolynomialSpec((0.5, -1.0, 1.0)))


def _cases(identity):
    """(hoisted sum, its reference, args) at each box point of ``identity``,
    and at its mirrors a -> -a and s -> -s, where an envelope needs its
    absolute values."""
    points = _box_points(identity, 500, seed=sum(map(ord, identity)))
    for p in points + [{**p, x: -p[x]} for x in ("a", "s") for p in points]:
        if identity == "P11a":
            yield registry._p11a_rhs, _ref_p11a_rhs, (p["fdeg"], p["a"], p["s"])
        elif identity == "P11b":
            for f in _P11B_POLYS:
                yield (registry._poly_exp_bilateral_exp_sinh,
                       _ref_poly_exp_bilateral_exp_sinh, (f, p["a"], p["s"]))
        else:
            for weight_half_n in (True, False):
                yield (_p12_bilateral, _ref_p12_bilateral,
                       (registry._P12_POLY, p["a"], p["s"], weight_half_n))


@pytest.mark.parametrize("identity", ["P11a", "P11b", "P12"])
def test_hoisted_bilateral_sum_gives_the_reference_bits(identity):
    mismatched = [args for fn, ref, args in _cases(identity)
                  if _outcome(fn, *args) != _outcome(ref, *args)]
    assert mismatched == []


# -- P10's two sums, with PolynomialSpec's former methods called in every term

def _ref_alt_poly_over_expm1(F, a):
    def term(n):
        inv = _inv_expm1(a * n)
        env = _eval_abs(F, n) * inv / n
        sign = -1.0 if n % 2 else 1.0
        return sign * F.eval(n) * inv / n, env

    return sum_series(term)


def _ref_imag_poly_over_sinh(F, b):
    def term(n):
        inv = exp_over_sinh(0.0, b * n * math.pi)  # 1/sinh
        env = _eval_abs(F, b * n) * inv / n
        return _eval_imag_even(F, b * n) * inv / n, env

    return sum_series(term)


# Beyond the monomials of the records: mixed signs with a -0.0 (even), and
# two odd polynomials, which F(ibn) refuses.
_P10_POLYS = (PolynomialSpec((1.0, -0.0, -2.5, 0.0, 0.75)), PolynomialSpec.monomial(3),
              PolynomialSpec((0.0, 1.0, 0.0, -1.0)))


def _p10_cases(identity):
    """(hoisted sum, its reference, args) at each box point of ``identity``,
    for the record's monomial and each of ``_P10_POLYS``, and at b = 0 and
    b = -1, where the envelope needs |bn|."""
    points = _box_points(identity, 500, seed=sum(map(ord, identity)))
    extra = [{"fdeg": fdeg, "b": b} for fdeg in (2, 4, 6) for b in (0.0, -1.0)]
    for p in points + extra:
        b = p["b"]
        for F in (PolynomialSpec.monomial(p["fdeg"]), *_P10_POLYS):
            yield registry._imag_poly_over_sinh, _ref_imag_poly_over_sinh, (F, b)
            # P10's a = 2 pi / b; at b = 0 the sum at a = 0
            a = 2.0 * math.pi / b if b else 0.0
            yield registry._alt_poly_over_expm1, _ref_alt_poly_over_expm1, (F, a)


@pytest.mark.parametrize("identity", ["P10", "P10a"])
def test_hoisted_p10_sum_gives_the_reference_bits(identity):
    cases = list(_p10_cases(identity))
    outcomes = [(_outcome(fn, *args), _outcome(ref, *args)) for fn, ref, args in cases]
    assert [args for (fn, ref, args), (got, want) in zip(cases, outcomes)
            if got != want] == []
    # an odd F fails at its first term: on the evenness check, or at b = 0
    # on the sinh denominator, which comes first
    errors = {want for _, want in outcomes if len(want) == 2}
    assert errors >= {
        ("DomainError", "imaginary-argument evaluation needs an even polynomial"),
        ("DomainError", "term at n=1 is undefined: float division by zero")}


# -- render_json before it skipped the sort of an engine row's terms -----------

def _ref_format_number(x):
    if isinstance(x, int):
        return str(x)
    return format(float(x), ".17g")


def _ref_json_number(x):
    if isinstance(x, float):
        return format(x, ".17g") if math.isfinite(x) else "null"
    return _ref_format_number(x)


_ref_json_str = json.encoder.encode_basestring_ascii


def _ref_json_params(params):
    inner = ", ".join(
        f"{_ref_json_str(k)}: "
        f"{_ref_json_str(v) if isinstance(v, str) else _ref_json_number(v)}"
        for k, v in sorted(params.items()))
    return "{" + inner + "}"


def _ref_render_json(reports):
    rows = []
    for r in reports:
        terms = ", ".join(f"{_ref_json_str(k)}: {int(v)}"
                          for k, v in sorted(r.terms.items()))
        rows.append(
            "{"
            f"\"identity\": {_ref_json_str(r.identity)}, "
            f"\"variant\": {_ref_json_str(r.variant)}, "
            f"\"params\": {_ref_json_params(r.params)}, "
            f"\"lhs\": {_ref_json_number(r.lhs)}, "
            f"\"rhs\": {_ref_json_number(r.rhs)}, "
            f"\"abs_residual\": {_ref_json_number(r.abs_residual)}, "
            f"\"rel_residual\": {_ref_json_number(r.rel_residual)}, "
            f"\"classification\": {_ref_json_str(r.classification.value)}, "
            f"\"terms\": {{{terms}}}, "
            f"\"note\": {_ref_json_str(r.note)}"
            "}")
    if not rows:
        return "[]\n"
    return "[\n  " + ",\n  ".join(rows) + "\n]\n"


_ROW = ResidualReport("X", "v\u00e9", {"s": "str", "a": 1, "b": 1.5}, 0.5, 0.25, 0.25,
                      0.25, Classification.FAIL, {"lhs": 3, "rhs": 4}, "")
_HAND_BUILT = [
    _ROW,
    _ROW._replace(lhs=math.nan, rhs=math.nan, abs_residual=math.nan, rel_residual=math.nan,
                  classification=Classification.INCONCLUSIVE, note='DomainError: "q"\n'),
    _ROW._replace(params={}, lhs=math.inf, rhs=-math.inf, abs_residual=math.inf),
    _ROW._replace(params={"z": True, "y": -0.0, "x": 1e-300}, lhs=1, rhs=2,
                  classification=Classification.PASS, note="note"),
    *(_ROW._replace(terms=terms) for terms in (
        {"rhs": 4, "lhs": 3}, {"lhs": 3}, {"rhs": 4}, {}, {"lhs": 1, "rhs": 2, "mid": 3},
        {"lhs": 2.9, "rhs": True}, {"lhs": 1, "rhs_": 2}, {"b": 1, "a": 2})),
    # values that are equal but render differently, under one key, each order
    *(_ROW._replace(params={"p": v})
      for v in (1, 1.0, True, 0.0, -0.0, math.nan, -0.0, 0.0, True, 1.0, 1)),
    _ROW._replace(abs_residual=3e-7, rel_residual=3e-7),
    _ROW._replace(abs_residual=0.0, rel_residual=-0.0),
    _ROW._replace(abs_residual=10 ** 20, rel_residual=1e20),
    _ROW._replace(abs_residual=True, rel_residual=1.0),
    _ROW._replace(lhs=3, rhs=1.5, abs_residual=1.5, rel_residual=0.5),
]


@pytest.mark.parametrize("reports", [[], _HAND_BUILT, *([r] for r in _HAND_BUILT)],
                         ids=["empty", "all", *(f"row{i}" for i in range(len(_HAND_BUILT)))])
def test_render_json_gives_the_reference_bytes(reports):
    assert render_json(reports) == _ref_render_json(reports)


def test_render_json_gives_the_reference_bytes_for_the_catalog():
    reports = default_registry().run_all()
    assert render_json(reports) == _ref_render_json(reports)
