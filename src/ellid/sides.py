"""The side evaluators of the catalog's identities.

Each function here computes one side of one record (``ellid.catalog``) from
the library primitives and the polynomial sums of ``ellid.registry``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .elliptic import (Convention, EllipticArgument, Nome, _ke, ellint_K,
                       ellint_K_extended)
from .errors import DomainError
from .registry import (PolynomialSpec, _alt_poly_over_expm1, _bilateral_exp_sinh,
                       _combine, _imag_poly_over_sinh, _poly_exp_bilateral_exp_sinh,
                       poly_weighted_log_theta4_sum)
from .series import (S2_alt_sin_sq_over_expm1, S2h_alt_sinh_sq_over_expm1,
                     S3_alt_n_over_expm1, S3sq_alt_nsq_over_expm1, S5_sech,
                     S6_alt_sin_over_expm1, S7_csch_sinh, S8_exp_over_cube,
                     S9_lambert_E2, S10_alt_sin_lambert, SeriesResult,
                     n_cosh_over_sinh_double, zeta_neg)
from .singular import dadk_fd, solve_k
from .theta import (ThetaKind, log_theta_derivative, q_product_P0, theta2,
                    theta4_imag, theta4_u_derivative_imag, theta_u_derivative)

# ---------------------------------------------------------------------------
# identity evaluators
#
# LHS and RHS of each entry share only the library primitives; no identity
# feeds one side's intermediate values to the other.  Each evaluator is a flat
# function, side(*constants, *params): a variant's constants (a nome
# reading, a sign, a scale, a test polynomial) are bound with ``partial`` in
# ``build_registry`` (``ellid.catalog``), so the record table is the one place
# that shows them.  The benchmark tracer wraps the series, theta and elliptic
# functions by module attribute, so a function bound at build time escapes
# it: the six sides that are ``ellid.series`` functions (S1, S4, S5, S5sq, S6,
# S6closed) go uncounted, and traced catalog ``series.calls`` reads 124 per
# op for 150 series sums.  For the same reason every function that calls
# ``sum_series`` stays in ``ellid.registry``, the one module whose binding of
# it the tracer wraps.  Counting in the engine rather than wrapping removes
# the reason, and this rule with it.  Variants of one record may hold the
# same evaluator object for a side; a run calls it once per point and gives
# every such variant its result, but never hands one side's result to the
# other side of a row (see ``registry._reports_at``).

@functools.lru_cache(maxsize=64)
def _ke_at(a: float) -> tuple[float, float, float]:
    """(k, K, E) at the singular modulus for ratio a; parameter convention.

    Memoised here rather than on the public ``solve_k``: a cached
    ``SingularSolve`` would echo in ``a`` whichever of two equal keys came
    first (1.0 after True, 1.5 after Fraction(3, 2)).  Bounded because a
    sweep never repeats an a.  Errors are not cached.
    """
    k = solve_k(a).k.value
    return (k, *_ke(EllipticArgument.from_parameter(k * k)))


# -- P1 ---------------------------------------------------------------------

def _p1_rhs(a, t):
    q = Nome.from_pi_exponent(a)
    prod = q_product_P0(q)
    th = theta4_imag(t, q)
    return _combine(math.log(prod.value) - math.log(th.value), prod, th)


# -- P2 ---------------------------------------------------------------------

def _p2_lhs(a, theta):
    r = S2_alt_sin_sq_over_expm1(2.0 * math.pi * a, theta)
    return _combine(4.0 * r.value, r)


def _p2_lhs_sinh(a, theta):
    r = S2h_alt_sinh_sq_over_expm1(2.0 * math.pi * a, theta)
    return _combine(4.0 * r.value, r)


def _p2_rhs(a, theta):
    q = Nome.from_pi_exponent(1.0 / a)
    num = theta4_imag(theta / a, q)
    den = theta4_imag(0.0, q)
    value = (math.log(num.value) - math.log(den.value) - math.log(math.cos(theta))
             - theta * theta / (a * math.pi))
    return _combine(value, num, den)


def _p2_rhs_theta2(a, theta):
    q = Nome.from_pi_exponent(a)
    num = theta2(theta, q)
    den = theta2(0.0, q)
    value = math.log(num.value) - math.log(den.value) - math.log(math.cos(theta))
    return _combine(value, num, den)


# -- P2b --------------------------------------------------------------------

def _p2b_lhs(nome: Callable[[float], Nome], z):
    return SeriesResult(theta4_u_derivative_imag(z, nome(z)))


def _p2b_rhs(nome: Callable[[float], Nome], z):
    th = theta4_imag(z, nome(z))
    return _combine(-2.0 * th.value, th)


# -- P3 ---------------------------------------------------------------------

def _p3_lhs(a):
    q = Nome.from_pi_exponent(2.0 * a)
    d = log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 2, math.pi * a, q)
    return SeriesResult(2.0 * math.pi ** 2 * d)


def _p3_rhs(a):
    _, K, E = _ke_at(a)
    return SeriesResult(K * E - K * K)


# -- E4 / E5 ----------------------------------------------------------------

def _e4_lhs(a):
    return S3_alt_n_over_expm1(2.0 * math.pi / a)


def _e4_rhs(a):
    _, K, E = _ke_at(a)
    return SeriesResult(0.125 - a / (4.0 * math.pi)
                        + a * a * K * (E - K) / (2.0 * math.pi ** 2))


def _e5_lhs(a):
    alt = S3_alt_n_over_expm1(2.0 * math.pi / a)
    hyp = n_cosh_over_sinh_double(a)
    value = -0.25 + a / (2.0 * math.pi) + 2.0 * alt.value + 2.0 * a * a * hyp.value
    return _combine(value, alt, hyp)


def _zero_rhs(*_):
    return SeriesResult(0.0)


# -- E5b / E5c --------------------------------------------------------------

def _e5b_rhs(b):
    _, K, E = _ke_at(b)
    return SeriesResult(K * (K - E) / math.pi ** 2)


def _e5c_rhs(x):
    r = S3_alt_n_over_expm1(2.0 * math.pi * x)
    return _combine(-4.0 * r.value, r)


# -- E7 ---------------------------------------------------------------------

def _e7_lhs(a, v):
    return SeriesResult(0.5 * a * math.tan(0.5 * v))


def _e7_rhs(inverted: bool, a, v):
    """The right side; ``inverted`` pairs the hyperbolic sum with 1/a."""
    s6 = S6_alt_sin_over_expm1(a, v)
    s7 = S7_csch_sinh(1.0 / a if inverted else a, v)
    return _combine(v + 2.0 * a * s6.value + 2.0 * math.pi * s7.value, s6, s7)


# -- E8 ---------------------------------------------------------------------

def _e8_lhs(scale: float, z, q):
    r = S10_alt_sin_lambert(z, Nome(q))
    return _combine(scale * r.value, r)


def _e8_rhs(tan_sign: float, z, q):
    nome = Nome(q)
    th = theta2(z, nome)
    dth = theta_u_derivative(ThetaKind.THETA2, z, nome)
    return _combine(tan_sign * math.tan(z) + dth / th.value, th)


# -- P4 / P4b ---------------------------------------------------------------

_P4_X_GRID = (0.0, 0.1, 0.2, 0.3)


def _p4_bracket(a: float, x: float) -> SeriesResult:
    t2 = theta2(x, Nome.from_pi_exponent(1.0 / a))
    t4 = theta4_imag(a * x, Nome.from_pi_exponent(a))
    return _combine(math.exp(x * x * a / math.pi) * t2.value / t4.value, t2, t4)


def _p4_lhs(a):
    vals = [_p4_bracket(a, x) for x in _P4_X_GRID]
    return _combine(max(v.value for v in vals), *vals)


def _p4_rhs(a):
    return SeriesResult(min(_p4_bracket(a, x).value for x in _P4_X_GRID))


def _p4b_lhs(a, z):
    r = S7_csch_sinh(2.0 / a, 2.0 * z)
    return _combine(2.0 * math.pi * r.value, r)


def _p4b_rhs(a, z):
    q = Nome.from_exponent(1.0 / a)
    th = theta2(z, q)
    dth = theta_u_derivative(ThetaKind.THETA2, z, q)
    return _combine(-2.0 * z - dth / (a * th.value), th)


# -- P5 ---------------------------------------------------------------------

def _p5_lhs(b):
    cube = S8_exp_over_cube(b)
    nsq = S3sq_alt_nsq_over_expm1(2.0 * math.pi / b)
    return _combine(-2.0 * cube.value + nsq.value, cube, nsq)


def _p5_lhs_shifted(b):
    cube = S8_exp_over_cube(b)
    nsq = S3sq_alt_nsq_over_expm1(2.0 * math.pi / b)
    lin = S3_alt_n_over_expm1(2.0 * math.pi / b)
    return _combine(-2.0 * cube.value + nsq.value + lin.value, cube, nsq, lin)


def _p5_rhs(b):
    _, K, E = _ke_at(b)
    return SeriesResult(0.125 - b / (4.0 * math.pi)
                + b * b * (E * K - K * K) / (2.0 * math.pi ** 2))


# -- P6 / P6b ---------------------------------------------------------------

def _p6_lhs(a):
    q = Nome.from_pi_exponent(0.5 / a)
    return SeriesResult(theta_u_derivative(ThetaKind.THETA2, 0.25 * math.pi, q))


def _p6_rhs(a):
    q = Nome.from_pi_exponent(0.5 / a)
    th = theta2(0.25 * math.pi, q)
    _, K, _ = _ke_at(a)
    return _combine(-(2.0 * a / math.pi) * th.value * K, th)


def _p6b_rhs(half: float, a):
    """K/pi + half, with half = +1/2 (stated) or -1/2."""
    _, K, _ = _ke_at(a)
    return SeriesResult(K / math.pi + half)


# -- P7 ---------------------------------------------------------------------

def _p7_lhs(dadk: Callable[[EllipticArgument, float, float], float], value, convention):
    """da/d(argument) by ``dadk``, ``singular._dadk_stated`` or ``_dadk_classical``."""
    arg = EllipticArgument(value, convention)
    return SeriesResult(dadk(arg, *_ke(arg)))


def _p7_rhs_fd(value, convention):
    return SeriesResult(dadk_fd(EllipticArgument(value, convention)).value)


# -- P8 ---------------------------------------------------------------------

def _p8_lhs(r):
    s = S9_lambert_E2(Nome.from_pi_exponent(r))
    return _combine(24.0 * s.value, s)


def _p8_rhs(drdm: Callable[[EllipticArgument, float, float], float], r):
    k, K, E = _ke_at(r)
    m = k * k
    d = drdm(EllipticArgument.from_parameter(m), K, E)
    denominator = math.pi * m * (1.0 - m) * K * d
    if denominator == 0.0:
        raise DomainError(f"pi m (1-m) K dr/dm is 0 at r={r!r} (dr/dm = {d!r})")
    return SeriesResult(1.0 + (6.0 * E + (m - 5.0) * K) / denominator)


# -- P9 ---------------------------------------------------------------------

def _p9_lhs_parameter(x):
    return SeriesResult(ellint_K_extended(x / (x - 1.0)) / math.sqrt(1.0 - x))


def _p9_rhs(convention: Convention, x):
    """K(x), with x read in ``convention``."""
    return SeriesResult(ellint_K(EllipticArgument(x, convention)))


def _p9_lhs_modulus(x):
    km = x / (x - 1.0)
    # |km| >= 1 has no real K in the modulus reading; refuse, the report
    # records the failure.
    if abs(km) >= 1.0:
        raise DomainError(f"modulus reading undefined: |x/(x-1)| = {abs(km)!r} >= 1")
    return SeriesResult(ellint_K_extended(km * km) / math.sqrt(1.0 - x))


# -- P10 / P10a -------------------------------------------------------------

def _p10a_zeta_term(F: PolynomialSpec) -> float:
    """sum_nu f_(2nu) (2^(2nu)-1) zeta(1-2nu)."""
    return sum(F.coefficient(2 * nu) * (2 ** (2 * nu) - 1) * zeta_neg(nu)
               for nu in range(1, F.degree // 2 + 1))


def _p10_lhs(head: Callable[[PolynomialSpec], float], fdeg, b):
    """head(F) + 2 sum (-1)^n F(n)/(n(e^(an)-1)) - sum F(ibn)/(n sinh(b n pi))."""
    F = PolynomialSpec.monomial(int(fdeg))
    h = head(F)
    alt = _alt_poly_over_expm1(F, 2.0 * math.pi / b)
    hyp = _imag_poly_over_sinh(F, b)
    return _combine(h + 2.0 * alt.value - hyp.value, alt, hyp)


# -- P11a / P11b ------------------------------------------------------------

def _p11a_lhs(fdeg, a, s):
    return poly_weighted_log_theta4_sum(PolynomialSpec.monomial(int(fdeg)), a, s)


def _p11a_rhs(fdeg, a, s):
    # The f(0) log P0 term is 0: f = x^fdeg with fdeg >= 2 has f(0) = 0.  The
    # sum is minus the kernel's, and 0.0 - keeps an exact zero at +0.0.
    bil = _bilateral_exp_sinh(PolynomialSpec.monomial(int(fdeg)), math.pi * a, 1.0, 1.0, s,
                              weight_half_n=True)
    return _combine(0.0 - bil.value, bil)


def _log_theta4_shift_sum(f: PolynomialSpec, a: float, s: float) -> SeriesResult:
    """sum_n f_n log theta4(i (s+n)/2, e^(-pi a))."""
    q = Nome.from_pi_exponent(a)
    total = 0.0
    parts = []
    for n, c in enumerate(f.coefficients):
        if c == 0.0:
            continue
        th = theta4_imag((s + n) / 2.0, q)
        total += c * math.log(th.value)
        parts.append(th)
    return _combine(total, *parts)


def _p11b_rhs(f: PolynomialSpec, a, s):
    bil = _poly_exp_bilateral_exp_sinh(f, a, s)
    prod = q_product_P0(Nome.from_pi_exponent(a))
    return _combine(f.eval(1.0) * math.log(prod.value) + bil.value, prod, bil)


# -- P12 --------------------------------------------------------------------

_P12_POLY = PolynomialSpec((0.0, 0.0, 1.0, 1.0))  # x^2 + x^3, f(0) = 0


def _p12_rhs_printed(a, s):
    """2a - 2a f(0) s + a pi sum_(n != 0) f(2 pi n a) e^(-2 pi n s a)/sinh(pi^2 a n),
    with the f(0) term dropped: it is 0 for P12's f."""
    bil = _bilateral_exp_sinh(_P12_POLY, math.pi ** 2 * a, 2.0 * math.pi, a, s,
                              weight_half_n=False)
    return _combine(2.0 * a + a * math.pi * bil.value, bil)


def _p12_rhs_derived(a, s):
    """2a f_1 s - 2a f_2 - sum_(n != 0) f(2 pi a n) e^(-2 pi a s n)/(2n sinh(pi^2 a n)),
    with f_1 = 0 and f_2 = 1 for P12's f."""
    bil = _bilateral_exp_sinh(_P12_POLY, math.pi ** 2 * a, 2.0 * math.pi, a, s,
                              weight_half_n=True)
    return _combine(-2.0 * a - bil.value, bil)


# -- P7b ----------------------------------------------------------------

def _p7b_lhs(x):
    q = Nome.from_pi_exponent(2.0 * x)
    d = log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 1, math.pi * x, q)
    return SeriesResult(2.0 * math.pi * d)


def _p7b_rhs_k(x):
    _, K, _ = _ke_at(x)
    return SeriesResult(0.5 * math.pi - K)


def _p7b_rhs_sech(x):
    r = S5_sech(x)
    return _combine(-math.pi * r.value, r)


def _p7b_rhs_plus_half(x):
    _, K, _ = _ke_at(x)
    return SeriesResult(-math.pi * (0.5 + K / math.pi))
