"""Error-controlled evaluators for the Lambert-type and hyperbolic series.

Every evaluator sums in fixed ascending order with compensated (Kahan)
accumulation, stops only when its term envelope and the geometric tail
estimate are both below tolerance, and returns a :class:`SeriesResult`
carrying the tail bound.  Identical inputs give bit-identical outputs.

Terms are written in exp-scaled form (e.g. 1/sinh x as 2 e^-x/(1 - e^-2x))
so nothing overflows even when a caller sweeps the index cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .elliptic import Nome
from .errors import DomainError, NonConvergenceError


@dataclass(frozen=True)
class TruncationPolicy:
    """Stop rule shared by all series evaluators.

    Summation stops once the term envelope is below ``tolerance``, the
    empirical term ratio is below ``ratio_guard`` and the geometric tail
    estimate is itself below ``tolerance``; hitting ``cap`` first is a
    non-convergence error.
    """

    tolerance: float = 1e-14
    cap: int = 10000
    ratio_guard: float = 0.99

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise DomainError(f"tolerance must be positive, got {self.tolerance!r}")
        if self.cap < 1:
            raise DomainError(f"cap must be >= 1, got {self.cap!r}")
        if not 0.0 < self.ratio_guard < 1.0:
            raise DomainError(f"ratio_guard must lie in (0, 1), got {self.ratio_guard!r}")


DEFAULT_POLICY = TruncationPolicy()


@dataclass(frozen=True)
class SeriesResult:
    """A value plus how it was summed: terms added and the dropped-tail bound.

    Closed-form values carry the defaults (no terms, no tail).
    """

    value: float
    terms_used: int = 0
    tail_bound: float = 0.0


def kahan_add(total: float, comp: float, term: float) -> tuple[float, float]:
    """One compensated-summation step; returns (new_total, new_comp)."""
    y = term - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def sum_series(term_fn: Callable[[int], tuple[float, float]],
               policy: TruncationPolicy = DEFAULT_POLICY,
               start: int = 1,
               initial: float = 0.0,
               relative: bool = False) -> SeriesResult:
    """Sum term_fn(n) for n = start, start+1, ... under the stop rule.

    ``term_fn`` returns (term, envelope) where the envelope is a positive
    bound on |term| that also drives the stop rule; using an envelope rather
    than |term| keeps an incidental zero of an oscillating factor from
    triggering a premature stop.

    ``relative`` selects the theta-function rule: the envelope threshold
    scales with max(1, |partial sum|) and the ratio guard is not applied
    (any decreasing envelope may stop).
    """
    total = initial
    comp = 0.0
    prev_env = math.inf
    guard = 1.0 if relative else policy.ratio_guard
    for n in range(start, start + policy.cap):
        try:
            term, env = term_fn(n)
        except OverflowError:
            raise NonConvergenceError(
                f"term overflow at n={n}; the series value is not "
                f"representable in binary64") from None
        total, comp = kahan_add(total, comp, term)
        if env == 0.0:
            return SeriesResult(total, n - start + 1, 0.0)
        # No stop on the first term: the geometric ratio is unknown there,
        # so any tail estimate would be fiction.
        if math.isfinite(prev_env) and prev_env > 0.0:
            ratio = env / prev_env
            if ratio < guard:
                tail = env * ratio / (1.0 - ratio)
                scale = max(1.0, abs(total)) if relative else 1.0
                if env < policy.tolerance * scale and tail <= policy.tolerance:
                    return SeriesResult(total, n - start + 1, tail)
        prev_env = env
    raise NonConvergenceError(
        f"series did not meet the stop rule within cap={policy.cap} "
        f"(last envelope {prev_env!r})")


# ---------------------------------------------------------------------------
# stable building blocks

def _inv_expm1(x: float) -> float:
    """1/(e^x - 1) for x > 0 without overflow or cancellation."""
    if x > 700.0:
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def _csch(x: float) -> float:
    """1/sinh(x) for x > 0."""
    e = math.exp(-x)
    return 2.0 * e / ((1.0 - e) * (1.0 + e))


def _sech(x: float) -> float:
    e = math.exp(-x)
    return 2.0 * e / (1.0 + e * e)


def _cosh_over_sinh(y: float, x: float) -> float:
    """cosh(y)/sinh(x) for x > 0, safe when both arguments are large."""
    ey = math.exp(-2.0 * abs(y))
    ex = math.exp(-2.0 * x)
    return math.exp(abs(y) - x) * (1.0 + ey) / (1.0 - ex)


def _sinh_over_sinh(y: float, x: float) -> float:
    """sinh(y)/sinh(x) for x > 0, y >= 0."""
    ey = math.exp(-2.0 * y)
    ex = math.exp(-2.0 * x)
    return math.exp(y - x) * (1.0 - ey) / (1.0 - ex)


def exp_over_sinh(y: float, x: float) -> float:
    """e^y / sinh(x) for x > 0; used by the bilateral identity sums."""
    ex = math.exp(-2.0 * x)
    return 2.0 * math.exp(y - x) / (1.0 - ex)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise DomainError(msg)


def _sign_of(v: float) -> float:
    return -1.0 if v < 0.0 else 1.0


# ---------------------------------------------------------------------------
# the series bank

def S1_cosh_over_sinh(a: float, t: float,
                      policy: TruncationPolicy = DEFAULT_POLICY,
                      half_scaling: bool = False) -> SeriesResult:
    """sum_{n>=1} cosh(2tn)/(n sinh(pi a n)); even in t.

    With ``half_scaling`` the numerator is cosh(tn) instead, the scaling the
    derivative identities (P11a) key off.  Term decay is e^((2|t| - pi a) n),
    so 2|t| < pi*a is required (|t| < pi*a in the half scaling).
    """
    _require(a > 0.0, f"S1 requires a > 0, got {a!r}")
    ta = abs(t) if half_scaling else 2.0 * abs(t)
    _require(ta < math.pi * a,
             f"S1 divergence: angle scale {ta!r} must stay below pi*a = {math.pi * a!r}")

    def term(n: int) -> tuple[float, float]:
        v = _cosh_over_sinh(ta * n, math.pi * a * n) / n
        return v, v

    return sum_series(term, policy)


def S2_alt_sin_sq_over_expm1(c: float, theta: float,
                             policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n sin(theta n)^2 / (n (e^(cn) - 1)); even in theta."""
    _require(c > 0.0, f"S2 requires c > 0, got {c!r}")
    th = abs(theta)

    def term(n: int) -> tuple[float, float]:
        env = _inv_expm1(c * n) / n
        s = math.sin(th * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * s * s * env, env

    return sum_series(term, policy)


def S2h_alt_sinh_sq_over_expm1(c: float, theta: float,
                               policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n sinh(theta n)^2 / (n (e^(cn) - 1)); needs 2|theta| < c."""
    _require(c > 0.0, f"S2h requires c > 0, got {c!r}")
    th = abs(theta)
    _require(2.0 * th < c,
             f"S2h divergence: 2|theta| = {2.0 * th!r} must stay below c = {c!r}")

    def term(n: int) -> tuple[float, float]:
        # sinh^2(y)/(e^x - 1) = e^(2y-x) (1 - e^(-2y))^2 / (4 (1 - e^(-x)))
        y = th * n
        x = c * n
        d = 1.0 - math.exp(-2.0 * y)
        env = math.exp(2.0 * y - x) * d * d / (4.0 * (1.0 - math.exp(-x))) / n
        sign = -1.0 if n % 2 else 1.0
        return sign * env, env

    return sum_series(term, policy)


def S3_alt_n_over_expm1(c: float,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n n / (e^(cn) - 1)."""
    _require(c > 0.0, f"S3 requires c > 0, got {c!r}")

    def term(n: int) -> tuple[float, float]:
        env = n * _inv_expm1(c * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * env, env

    return sum_series(term, policy)


def S3sq_alt_nsq_over_expm1(c: float,
                            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n n^2 / (e^(cn) - 1)."""
    _require(c > 0.0, f"S3sq requires c > 0, got {c!r}")

    def term(n: int) -> tuple[float, float]:
        env = n * n * _inv_expm1(c * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * env, env

    return sum_series(term, policy)


def S4_n_over_sinh(b: float,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum n / sinh(pi b n)."""
    _require(b > 0.0, f"S4 requires b > 0, got {b!r}")

    def term(n: int) -> tuple[float, float]:
        v = n * _csch(math.pi * b * n)
        return v, v

    return sum_series(term, policy)


def S5_sech(a: float,
            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum 1 / cosh(n pi a)."""
    _require(a > 0.0, f"S5 requires a > 0, got {a!r}")

    def term(n: int) -> tuple[float, float]:
        v = _sech(n * math.pi * a)
        return v, v

    return sum_series(term, policy)


def S5sq_sech2(x: float,
               policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum 1 / cosh(pi n x)^2."""
    _require(x > 0.0, f"S5sq requires x > 0, got {x!r}")

    def term(n: int) -> tuple[float, float]:
        s = _sech(math.pi * n * x)
        return s * s, s * s

    return sum_series(term, policy)


def S6_alt_sin_over_expm1(a: float, v: float,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n sin(nv) / (e^(an) - 1); odd in v, bit-exactly."""
    _require(a > 0.0, f"S6 requires a > 0, got {a!r}")
    sign_v = _sign_of(v)
    av = abs(v)

    def term(n: int) -> tuple[float, float]:
        env = _inv_expm1(a * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * math.sin(n * av) * env, env

    res = sum_series(term, policy)
    return SeriesResult(sign_v * res.value, res.terms_used, res.tail_bound)


def S6closed(a: float, v: float,
             policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """-(1/2) sum sin(v) / (cos(v) + cosh(an)), the closed form paired with S6."""
    _require(a > 0.0, f"S6closed requires a > 0, got {a!r}")
    sign_v = _sign_of(v)
    av = abs(v)
    sv = math.sin(av)
    cv = math.cos(av)

    def term(n: int) -> tuple[float, float]:
        # 1/(c + cosh x) = 2 e^-x / (1 + 2 c e^-x + e^-2x)
        e = math.exp(-a * n)
        inv = 2.0 * e / (1.0 + 2.0 * cv * e + e * e)
        return -0.5 * sv * inv, abs(0.5 * sv * inv) if sv != 0.0 else 2.0 * e

    res = sum_series(term, policy)
    return SeriesResult(sign_v * res.value, res.terms_used, res.tail_bound)


def S7_csch_sinh(a: float, v: float,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum csch(2 n pi^2 / a) sinh(2 pi n v / a); odd in v, needs |v| < pi."""
    _require(a > 0.0, f"S7 requires a > 0, got {a!r}")
    av = abs(v)
    _require(av < math.pi, f"S7 divergence: |v| = {av!r} must stay below pi")
    sign_v = _sign_of(v)

    def term(n: int) -> tuple[float, float]:
        val = _sinh_over_sinh(2.0 * math.pi * n * av / a, 2.0 * n * math.pi ** 2 / a)
        env = val if val != 0.0 else _csch(2.0 * n * math.pi ** 2 / a)
        return val, env

    res = sum_series(term, policy)
    return SeriesResult(sign_v * res.value, res.terms_used, res.tail_bound)


def S8_exp_over_cube(b: float,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum e^(2n pi/b) / (1 + e^(2n pi/b))^3, written as e^-2x/(1+e^-x)^3."""
    _require(b > 0.0, f"S8 requires b > 0, got {b!r}")

    def term(n: int) -> tuple[float, float]:
        x = 2.0 * n * math.pi / b
        e = math.exp(-x)
        v = e * e / (1.0 + e) ** 3
        return v, v

    return sum_series(term, policy)


def S9_lambert_E2(q: Nome,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum n q^n / (1 - q^n), the weight-2 Eisenstein-type Lambert series."""
    qq = q.q

    def term(n: int) -> tuple[float, float]:
        p = qq ** n
        v = n * p / (1.0 - p)
        return v, v

    return sum_series(term, policy)


def S10_alt_sin_lambert(z: float, q: Nome,
                        policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n sin(2nz) q^(2n) / (1 - q^(2n)); odd in z."""
    qq = q.q
    sign_z = _sign_of(z)
    az = abs(z)

    def term(n: int) -> tuple[float, float]:
        p = qq ** (2 * n)
        env = p / (1.0 - p) if p < 1.0 else math.inf
        sign = -1.0 if n % 2 else 1.0
        return sign * math.sin(2.0 * n * az) * env, env

    res = sum_series(term, policy)
    return SeriesResult(sign_z * res.value, res.terms_used, res.tail_bound)


def n_cosh_over_sinh_double(a: float,
                            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum n cosh(a n pi) / sinh(2 a n pi), as it appears in the E5 chain."""
    _require(a > 0.0, f"series requires a > 0, got {a!r}")

    def term(n: int) -> tuple[float, float]:
        v = n * _cosh_over_sinh(a * n * math.pi, 2.0 * a * n * math.pi)
        return v, v

    return sum_series(term, policy)


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta values
#
# Exact table of B_0, B_2, ..., B_40; enough for every polynomial instance the
# registry evaluates, with no recursion error to worry about.

_BERNOULLI_EVEN: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
    Fraction(-23749461029, 870),
    Fraction(8615841276005, 14322),
    Fraction(-7709321041217, 510),
    Fraction(2577687858367, 6),
    Fraction(-26315271553053477373, 1919190),
    Fraction(2929993913841559, 6),
    Fraction(-261082718496449122051, 13530),
)


def bernoulli_B2n(n: int) -> float:
    """B_(2n) from the exact table, n <= 20."""
    if not 0 <= n < len(_BERNOULLI_EVEN):
        raise DomainError(f"Bernoulli table covers B_0..B_40, got index 2n = {2 * n}")
    return float(_BERNOULLI_EVEN[n])


def bernoulli_B2n_exact(n: int) -> Fraction:
    if not 0 <= n < len(_BERNOULLI_EVEN):
        raise DomainError(f"Bernoulli table covers B_0..B_40, got index 2n = {2 * n}")
    return _BERNOULLI_EVEN[n]


def zeta_neg(nu: int) -> float:
    """zeta(1 - 2 nu) = -B_(2 nu) / (2 nu) for integer nu >= 1."""
    if nu < 1:
        raise DomainError(f"zeta_neg requires nu >= 1, got {nu!r}")
    return float(-bernoulli_B2n_exact(nu) / (2 * nu))


def zeta_even(k: int) -> float:
    """zeta(2k) = (-1)^(k+1) B_(2k) (2 pi)^(2k) / (2 (2k)!) for k >= 1."""
    if k < 1:
        raise DomainError(f"zeta_even requires k >= 1, got {k!r}")
    b = bernoulli_B2n_exact(k)
    sign = 1 if k % 2 == 1 else -1
    rational = sign * b / (2 * math.factorial(2 * k))
    return float(rational) * (2.0 * math.pi) ** (2 * k)
