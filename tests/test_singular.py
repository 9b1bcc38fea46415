"""Singular modulus solver and the period-ratio derivative oracles."""

import math
import random

import pytest

from ellid import (Convention, DomainError, EllipticArgument, NonConvergenceError,
                   RangeError, a_of_k, agm, dadk_candidates, dadk_fd, dK,
                   elliptic, ellint_K, singular, solve_k)
from ellid.elliptic import SINGULAR_CUTOFF
from libm import perturbed_libm
from ellid.singular import (SOLVE_A_MAX, SOLVE_A_MIN, SingularSolve,
                            _ratio_from_modulus)

PI = math.pi


def test_solve_symmetric_point():
    res = solve_k(1.0)
    assert abs(res.k.value - 1.0 / math.sqrt(2.0)) <= 1e-15
    assert res.residual <= 1e-12
    assert res.k.convention is Convention.MODULUS


def test_solve_k_two():
    res = solve_k(2.0)
    assert res.residual <= 1e-12
    # verify the ratio by direct AGM evaluation, no closed form hardcoded
    k = res.k.value
    ratio = agm(1.0, math.sqrt(1.0 - k * k)) / agm(1.0, k)
    assert abs(ratio - 2.0) <= 1e-12
    assert abs(k - 0.1715728752538099) < 1e-12


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_round_trips(a):
    res = solve_k(a)
    back = a_of_k(res.k)
    assert abs(back - a) <= 1e-11 * a
    res2 = solve_k(back)
    assert abs(res2.k.value - res.k.value) <= 1e-10 * max(res.k.value, 1e-6)


@pytest.mark.parametrize("a", [2.0, 4.0])
def test_reciprocal_gives_complement(a):
    k_big = solve_k(a).k.value
    k_small = solve_k(1.0 / a).k.value
    assert abs(k_big ** 2 + k_small ** 2 - 1.0) <= 1e-10


def test_solve_monotone_in_a():
    ks = [solve_k(a).k.value for a in (0.5, 0.8, 1.0, 1.5, 2.0, 4.0, 8.0)]
    assert all(b < a for a, b in zip(ks, ks[1:]))


def test_solve_range_errors():
    with pytest.raises(RangeError):
        solve_k(0.01)
    with pytest.raises(RangeError):
        solve_k(25.0)
    # inside the nominal range but beyond binary64 resolution of 1 - k
    with pytest.raises(RangeError):
        solve_k(0.06)


def test_solve_extremes_within_range():
    res = solve_k(20.0)
    assert res.residual <= 1e-12
    assert 0.0 < res.k.value < 1.0
    res = solve_k(0.12)
    assert res.residual <= 1e-12 * max(1.0, 0.12)
    assert res.k.value < 1.0 - 1e-12


# -- the window replay against a plain bisection --------------------------------

def _reference_solve_k(a: float) -> SingularSolve:
    """The plain solver: bisect g over [1e-15, 0.75] to one ulp, evaluating
    g at every midpoint, then the secant polish."""
    if not math.isfinite(a) or not SOLVE_A_MIN <= a <= SOLVE_A_MAX:
        raise RangeError(f"solve_k supports a in [{SOLVE_A_MIN}, {SOLVE_A_MAX}], got {a!r}")
    b = a if a >= 1.0 else 1.0 / a
    target = math.log(b)

    def g(k):
        return math.log(_ratio_from_modulus(k)) - target

    lo, hi = 1e-15, 0.75
    iterations = 0
    glo = g(lo)
    ghi = g(hi)
    if not (glo > 0.0 > ghi):
        raise RangeError(f"solve_k bracket failed for a={a!r}")
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        gm = g(mid)
        if gm > 0.0:
            lo, glo = mid, gm
        elif gm < 0.0:
            hi, ghi = mid, gm
        else:
            lo = hi = mid
            glo = ghi = gm
            break
    k_b = lo if abs(glo) <= abs(ghi) else hi
    gk = g(k_b)
    k_other, g_other = (hi, ghi) if k_b == lo else (lo, glo)
    for _ in range(2):
        denom = gk - g_other
        if denom == 0.0:
            break
        candidate = k_b - gk * (k_b - k_other) / denom
        if not 0.0 < candidate < 1.0 or candidate == k_b:
            break
        iterations += 1
        g_cand = g(candidate)
        k_other, g_other = k_b, gk
        k_b, gk = candidate, g_cand
        if gk == 0.0:
            break
    if a >= 1.0:
        k = k_b
        residual = abs(_ratio_from_modulus(k) - a)
    else:
        k = math.sqrt((1.0 - k_b) * (1.0 + k_b))
        if k > SINGULAR_CUTOFF:
            raise RangeError(
                f"a={a!r} puts the modulus within {1.0 - k!r} of 1, beyond "
                f"binary64 resolution of the singular band")
        residual = abs(1.0 / _ratio_from_modulus(k_b) - a)
    return SingularSolve(a, EllipticArgument.from_modulus(k), iterations, residual)


# The smallest a that solve_k accepts: the next float down is refused.
REFUSAL_EDGE = 0.10573990534757519


def _ulps_around(x: float, n: int) -> list[float]:
    below, above, out = x, x, [x]
    for _ in range(n):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 30.0)
        out += [below, above]
    return out


def _parity_draws() -> list[float]:
    rng = random.Random(20091)
    draws = [0.05, 0.106, 0.11, 20.0, 0.0, -1.0, 0.01, 25.0,
             math.nan, math.inf, -math.inf]
    for catalog_a in (0.5, 1.0, 2.0):
        draws += _ulps_around(catalog_a, 8)
    draws += _ulps_around(REFUSAL_EDGE, 24)
    draws += [rng.uniform(0.1055, 0.1065) for _ in range(100)]
    draws += [1.0 + sign * 10.0 ** -e for e in range(1, 16) for sign in (1, -1)]
    draws += [1.0 + rng.uniform(-0.05, 0.05) for _ in range(200)]
    draws += [rng.uniform(SOLVE_A_MIN, SOLVE_A_MAX) for _ in range(500)]
    lo, hi = math.log(SOLVE_A_MIN), math.log(SOLVE_A_MAX)
    draws += [math.exp(rng.uniform(lo, hi)) for _ in range(1500)]
    return draws


PARITY_DRAWS = _parity_draws()


def _outcome(solver, a):
    try:
        res = solver(a)
    except RangeError as exc:
        return ("RangeError", str(exc))
    return (res.k.value.hex(), res.k.convention, res.iterations,
            res.residual.hex())


def test_solve_k_matches_plain_bisection():
    refused = 0
    for a in PARITY_DRAWS:
        want = _outcome(_reference_solve_k, a)
        assert _outcome(solve_k, a) == want, a
        refused += want[0] == "RangeError"
    # the draws reach both outcomes, and the edge itself
    assert 12 < refused < len(PARITY_DRAWS) // 4
    assert _outcome(solve_k, REFUSAL_EDGE)[0] != "RangeError"
    assert _outcome(solve_k, math.nextafter(REFUSAL_EDGE, 0.0))[0] == "RangeError"


def test_solve_k_evaluates_g_near_the_root_only(monkeypatch):
    calls = [0]
    real_agm = singular.agm

    def counting_agm(x, y):
        calls[0] += 1
        return real_agm(x, y)

    monkeypatch.setattr(singular, "agm", counting_agm)
    solves = 0
    for a in PARITY_DRAWS:
        if math.isfinite(a) and SOLVE_A_MIN <= a <= SOLVE_A_MAX:
            solves += 1
            try:
                solve_k(a)
            except RangeError:
                pass
    # the plain bisection spends about 130 AGMs per solve on these draws,
    # the window replay 27.3 on average and 40 at most
    assert calls[0] <= 30 * solves


def test_solve_k_refuses_a_g_beyond_its_error_bound():
    # A sqrt off by up to 256 ulps breaks the bound _G_ERROR that the window
    # replay trusts; the bisection can then end on a midpoint it never
    # evaluated, which must be a NonConvergenceError, never a bare KeyError.
    refused = 0
    for seed in range(9):
        for a in (0.5, 1.0, 2.0, 3.7, 10.0):
            with perturbed_libm(seed, 256, ("sqrt",), (singular, elliptic)):
                try:
                    solve_k(a)
                except NonConvergenceError as exc:
                    assert "_G_ERROR" in str(exc)
                    refused += 1
    assert refused > 0


def test_g_rounding_error_within_bound():
    import mpmath
    rng = random.Random(7)
    lo, hi = math.log(1e-15), math.log(0.75)
    ks = [1e-15, 0.75] + [math.exp(rng.uniform(lo, hi)) for _ in range(300)]
    for a in (20.0, 8.0, 2.0, 1.0 + 1e-9, 1.0, 0.5, 0.11):
        target = math.log(max(a, 1.0 / a))

        def g(k):
            return math.log(_ratio_from_modulus(k)) - target

        wlo, gwlo, whi, gwhi = singular._window(g, 1e-15, g(1e-15), 0.75, g(0.75))
        assert gwlo > 2.0 * singular._G_ERROR and gwhi < -2.0 * singular._G_ERROR
        assert whi - wlo < 1e-9 * whi
        ks += _ulps_around(wlo, 2) + _ulps_around(whi, 2)
    with mpmath.workprec(200):
        for k in ks:
            m = mpmath.mpf(k) ** 2
            exact = mpmath.log(mpmath.ellipk(1 - m) / mpmath.ellipk(m))
            got = math.log(_ratio_from_modulus(k))
            assert abs(got - exact) <= singular._G_ERROR, k


def test_a_of_k_values():
    assert abs(a_of_k(EllipticArgument.from_modulus(1.0 / math.sqrt(2.0))) - 1.0) <= 1e-15
    assert abs(a_of_k(EllipticArgument.from_parameter(0.5)) - 1.0) <= 1e-15
    got = a_of_k(EllipticArgument.from_modulus(0.3))
    want = (ellint_K(EllipticArgument.from_parameter(1.0 - 0.09))
            / ellint_K(EllipticArgument.from_parameter(0.09)))
    assert abs(got - want) <= 1e-14
    assert abs(got - 1.6341379853290105) < 1e-14


def test_a_of_k_strictly_decreasing():
    grid = [0.04 + 0.045 * i for i in range(20)]
    vals = [a_of_k(EllipticArgument.from_modulus(k)) for k in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_a_of_k_domain():
    with pytest.raises(DomainError):
        a_of_k(EllipticArgument.from_modulus(0.0))


# -- derivative oracle and candidates -----------------------------------------

def test_dadk_fd_frozen_points():
    got = dadk_fd(EllipticArgument.from_parameter(0.5))
    assert abs(got.value - (-0.9138931620889272)) <= 1e-7
    got = dadk_fd(EllipticArgument.from_modulus(1.0 / math.sqrt(2.0)))
    assert abs(got.value - (-1.2924401043861942)) <= 1e-7


def test_dadk_fd_error_estimate_validated_by_halving():
    for value, conv in ((0.5, Convention.PARAMETER), (0.3, Convention.MODULUS)):
        arg = EllipticArgument(value, conv)
        d1 = dadk_fd(arg, step=1e-4)
        d2 = dadk_fd(arg, step=5e-5)
        assert abs(d1.value - d2.value) <= d1.error_estimate + d2.error_estimate
        assert d1.error_estimate <= 1e-7 * abs(d1.value)


def test_dadk_fd_symmetric_point_relation():
    # a = K'/K has derivative -2 (dK/darg)/K at the fixed point K' = K
    for arg in (EllipticArgument.from_parameter(0.5),
                EllipticArgument.from_modulus(1.0 / math.sqrt(2.0))):
        fd = dadk_fd(arg).value
        want = -2.0 * dK(arg) / ellint_K(arg)
        assert abs(fd - want) <= 1e-6 * abs(want)


def test_dadk_candidates_frozen():
    cands = dadk_candidates(EllipticArgument.from_parameter(0.5))
    assert abs(cands["stated-formula"] - (-0.9076651338075715)) < 1e-13
    cands = dadk_candidates(EllipticArgument.from_modulus(1.0 / math.sqrt(2.0)))
    assert abs(cands["classical"] - (-1.2924401043861942)) < 1e-13


@pytest.mark.parametrize("k", [0.3, 1.0 / math.sqrt(2.0), 0.7])
def test_classical_candidate_matches_fd(k):
    arg = EllipticArgument.from_modulus(k)
    fd = dadk_fd(arg).value
    classical = dadk_candidates(arg)["classical"]
    assert abs(fd - classical) <= 1e-6 * abs(classical)


def test_stated_formula_deviates_from_fd():
    # the deviation at the symmetric point is a bit under one percent
    arg = EllipticArgument.from_parameter(0.5)
    fd = dadk_fd(arg).value
    stated = dadk_candidates(arg)["stated-formula"]
    dev = abs(stated - fd) / abs(fd)
    assert 0.005 < dev < 0.009


def test_derivative_domain_guards():
    with pytest.raises(DomainError):
        dadk_fd(EllipticArgument.from_modulus(0.99))
    with pytest.raises(DomainError):
        dadk_candidates(EllipticArgument.from_modulus(0.01))
