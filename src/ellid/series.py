"""Error-controlled evaluators for the Lambert-type and hyperbolic series.

Every evaluator sums through ``sum_series``: fixed ascending order,
compensated (Kahan) accumulation, and the stop rule its docstring states.
It returns a :class:`SeriesResult` carrying the tail bound.  Identical
inputs give bit-identical outputs.

Terms are written in exp-scaled form (e.g. 1/sinh x as 2 e^-x/(1 - e^-2x))
so nothing overflows even when a caller sweeps the index cap.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .elliptic import Nome, _CheckedRecord, _finite_real
from .errors import DomainError, EllidError, NonConvergenceError


class _TruncationPolicyFields(NamedTuple):
    tolerance: float
    cap: int


class TruncationPolicy(_CheckedRecord, _TruncationPolicyFields):
    """Parameters of the stop rule shared by all series evaluators.

    ``sum_series`` states the rule; hitting ``cap`` first is a
    non-convergence error.
    """

    __slots__ = ()

    def __new__(cls, tolerance: float = 1e-14,
                cap: int = 10000) -> "TruncationPolicy":
        if not (_finite_real(tolerance) and tolerance > 0.0):
            raise DomainError(f"tolerance must be positive, got {tolerance!r}")
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise DomainError(f"cap must be an integer, got {cap!r}")
        if cap < 1:
            raise DomainError(f"cap must be >= 1, got {cap!r}")
        return tuple.__new__(cls, (tolerance, cap))


DEFAULT_POLICY = TruncationPolicy()

_RATIO_GUARD = 0.99  # sum_series's ratio guard in the absolute rule


class SeriesResult(NamedTuple):
    """A value plus how it was summed: terms added and the dropped-tail bound.

    Closed-form values carry the defaults (no terms, no tail).
    """

    value: float
    terms_used: int = 0
    tail_bound: float = 0.0


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

    The sum stops after term n, whose envelope is e_n, once

        e_n < tol * scale,  r = e_n / e_(n-1) < guard,  e_n r / (1 - r) <= tol

    with tol = ``policy.tolerance`` and 0 < e_(n-1) < inf, so never on the
    first term, where r is unknown.  By default scale = 1 and guard =
    0.99.  ``relative`` selects the theta-function rule: scale =
    max(1, |partial sum through n|) and guard = 1, so any decreasing
    envelope may stop.  The geometric tail e_n r / (1 - r) is
    the reported ``tail_bound``.  An envelope of exactly 0 stops at once
    with tail 0.  The envelope test runs first: it fails for almost every
    term, and the observed-ratio half, ``_observed_tail``, runs only once
    it holds.  The tests have no side effects, so their order changes no
    result.  ``theta._log_theta_pass`` applies this rule, with the same
    ``_observed_tail``, to each of its accumulators.
    """
    total = initial
    comp = 0.0
    prev_env = math.inf
    tol = policy.tolerance
    guard = 1.0 if relative else _RATIO_GUARD
    for n in range(start, start + policy.cap):
        try:
            term, env = term_fn(n)
        except EllidError:
            raise
        except (OverflowError, ValueError, ZeroDivisionError) as exc:
            raise _summation_error(n, exc) from None
        y = term - comp  # one Kahan step
        t = total + y
        comp = (t - total) - y
        total = t
        if env == 0.0:
            return SeriesResult(total, n - start + 1, 0.0)
        # The envelope test first: it fails for almost every term.  In
        # relative mode tol * max(1, |t|) is the larger of tol and tol * |t|
        # (a NaN |t| gives tol either way).
        if env < tol or relative and env < tol * abs(t):
            tail = _observed_tail(env, prev_env, guard, tol)
            if tail is not None:
                return SeriesResult(total, n - start + 1, tail)
        prev_env = env
    raise _summation_error(policy.cap, last_envelope=prev_env)


def _observed_tail(env: float, prev_env: float, guard: float,
                   tol: float) -> float | None:
    """The observed-ratio half of ``sum_series``'s stop rule: the tail
    env r / (1 - r), r = env / prev_env, if 0 < prev_env < inf, r < guard and
    the tail is at most tol; otherwise None.  prev_env is inf before the
    first term, where no ratio is known and so no tail estimate holds."""
    if 0.0 < prev_env < math.inf:
        ratio = env / prev_env
        if ratio < guard:
            tail = env * ratio / (1.0 - ratio)
            if tail <= tol:
                return tail
    return None


def _summation_error(n: int, exc: Exception | None = None,
                    last_envelope: float = math.nan) -> EllidError:
    """The error a summation raises, worded alike by every summing loop.

    With ``exc``, evaluating term ``n`` raised it: an ``OverflowError``
    means the value is not representable, a ``ValueError`` (math.cos(inf)
    and friends) or a ``ZeroDivisionError`` (a denominator such as
    1 - e^(-2x) that rounds to 0) an argument binary64 cannot evaluate.
    Without, the stop rule did not fire within the cap ``n``.
    """
    if exc is None:
        return NonConvergenceError(
            f"series did not meet the stop rule within cap={n} "
            f"(last envelope {last_envelope!r})")
    if isinstance(exc, OverflowError):
        return NonConvergenceError(
            f"term overflow at n={n}; the series value is not "
            f"representable in binary64")
    return DomainError(f"term at n={n} is undefined: {exc}")


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
    """e^y / sinh(x) for x > 0; used by ``registry._imag_poly_over_sinh``.
    ``registry._bilateral_exp_sinh`` and ``_poly_exp_bilateral_exp_sinh``
    inline it, to compute its denominator once per term."""
    ex = math.exp(-2.0 * x)
    return 2.0 * math.exp(y - x) / (1.0 - ex)


def _require_positive(what: str, name: str, x: float) -> None:
    """Refuse ``x`` unless x > 0: NaN, zero and negatives alike."""
    if not x > 0.0:
        raise DomainError(f"{what} requires {name} > 0, got {x!r}")


def _odd(v: float, res: SeriesResult) -> SeriesResult:
    """A series odd in v, summed at |v|: ``res`` negated if v < 0, else itself."""
    if v < 0.0:
        return SeriesResult(-1.0 * res.value, res.terms_used, res.tail_bound)
    return res


# ---------------------------------------------------------------------------
# the series bank

def S1_cosh_over_sinh(a: float, t: float,
                      policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum_{n>=1} cosh(2tn)/(n sinh(pi a n)); even in t.

    Term decay is e^((2|t| - pi a) n), so 2|t| < pi*a is required.
    """
    _require_positive("S1", "a", a)
    try:
        ta = 2.0 * abs(t)
    except OverflowError:  # an int too large for a float: inf, as for a huge float
        ta = math.inf
    try:
        pa = math.pi * a
    except OverflowError:  # an int too large for a float
        raise DomainError(f"S1 a={a!r} does not fit in a float") from None
    if not ta < pa:
        raise DomainError(
            f"S1 divergence: angle scale {ta!r} must stay below pi*a = {pa!r}")

    def term(n: int) -> tuple[float, float]:
        v = _cosh_over_sinh(ta * n, pa * n) / n
        return v, v

    return sum_series(term, policy)


def S2_alt_sin_sq_over_expm1(c: float, theta: float,
                             policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n sin(theta n)^2 / (n (e^(cn) - 1)); even in theta."""
    _require_positive("S2", "c", c)
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
    _require_positive("S2h", "c", c)
    th = abs(theta)
    try:
        scale = 2.0 * th
    except OverflowError:  # an int too large for a float: inf, as for a huge float
        scale = math.inf
    if not scale < c:
        raise DomainError(
            f"S2h divergence: 2|theta| = {scale!r} must stay below c = {c!r}")

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
    _require_positive("S3", "c", c)

    def term(n: int) -> tuple[float, float]:
        env = n * _inv_expm1(c * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * env, env

    return sum_series(term, policy)


def S3sq_alt_nsq_over_expm1(c: float,
                            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n n^2 / (e^(cn) - 1)."""
    _require_positive("S3sq", "c", c)

    def term(n: int) -> tuple[float, float]:
        env = n * n * _inv_expm1(c * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * env, env

    return sum_series(term, policy)


def S4_n_over_sinh(b: float,
                   policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum n / sinh(pi b n)."""
    _require_positive("S4", "b", b)

    def term(n: int) -> tuple[float, float]:
        v = n * _csch(math.pi * b * n)
        return v, v

    return sum_series(term, policy)


def S5_sech(a: float,
            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum 1 / cosh(n pi a)."""
    _require_positive("S5", "a", a)

    def term(n: int) -> tuple[float, float]:
        v = _sech(n * math.pi * a)
        return v, v

    return sum_series(term, policy)


def S5sq_sech2(x: float,
               policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum 1 / cosh(pi n x)^2."""
    _require_positive("S5sq", "x", x)

    def term(n: int) -> tuple[float, float]:
        s = _sech(math.pi * n * x)
        return s * s, s * s

    return sum_series(term, policy)


def S6_alt_sin_over_expm1(a: float, v: float,
                          policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum (-1)^n sin(nv) / (e^(an) - 1); odd in v, bit-exactly."""
    _require_positive("S6", "a", a)
    av = abs(v)

    def term(n: int) -> tuple[float, float]:
        env = _inv_expm1(a * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * math.sin(n * av) * env, env

    return _odd(v, sum_series(term, policy))


def S6closed(a: float, v: float,
             policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """-(1/2) sum sin(v) / (cos(v) + cosh(an)), the closed form paired with S6."""
    _require_positive("S6closed", "a", a)
    try:
        finite = math.isfinite(v)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise DomainError(f"S6closed requires a finite v, got {v!r}")
    av = abs(v)
    sv = math.sin(av)
    cv = math.cos(av)

    def term(n: int) -> tuple[float, float]:
        # 1/(c + cosh x) = 2 e^-x / (1 + 2 c e^-x + e^-2x)
        e = math.exp(-a * n)
        inv = 2.0 * e / (1.0 + 2.0 * cv * e + e * e)
        return -0.5 * sv * inv, abs(0.5 * sv * inv) if sv != 0.0 else 2.0 * e

    return _odd(v, sum_series(term, policy))


def S7_csch_sinh(a: float, v: float,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum csch(2 n pi^2 / a) sinh(2 pi n v / a); odd in v, needs |v| < pi."""
    _require_positive("S7", "a", a)
    av = abs(v)
    if not av < math.pi:
        raise DomainError(f"S7 divergence: |v| = {av!r} must stay below pi")

    def term(n: int) -> tuple[float, float]:
        val = _sinh_over_sinh(2.0 * math.pi * n * av / a, 2.0 * n * math.pi ** 2 / a)
        env = val if val != 0.0 else _csch(2.0 * n * math.pi ** 2 / a)
        return val, env

    return _odd(v, sum_series(term, policy))


def S8_exp_over_cube(b: float,
                     policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum e^(2n pi/b) / (1 + e^(2n pi/b))^3, written as e^-2x/(1+e^-x)^3."""
    _require_positive("S8", "b", b)

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
    az = abs(z)

    def term(n: int) -> tuple[float, float]:
        p = qq ** (2 * n)
        env = p / (1.0 - p)  # p < 1: Nome keeps q < 1
        sign = -1.0 if n % 2 else 1.0
        return sign * math.sin(2.0 * n * az) * env, env

    return _odd(z, sum_series(term, policy))


def n_cosh_over_sinh_double(a: float,
                            policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """sum n cosh(a n pi) / sinh(2 a n pi), as it appears in the E5 chain."""
    _require_positive("series", "a", a)

    def term(n: int) -> tuple[float, float]:
        v = n * _cosh_over_sinh(a * n * math.pi, 2.0 * a * n * math.pi)
        return v, v

    return sum_series(term, policy)


# ---------------------------------------------------------------------------
# Bernoulli numbers and zeta values
#
# Exact table of B_0, B_2, ..., B_40 as (numerator, denominator) pairs;
# enough for every polynomial instance the registry evaluates, with no
# recursion error to worry about.  int / int true division is correctly
# rounded, so each float below is the nearest binary64 to the exact rational.

_BERNOULLI_EVEN: tuple[tuple[int, int], ...] = (
    (1, 1),
    (1, 6),
    (-1, 30),
    (1, 42),
    (-1, 30),
    (5, 66),
    (-691, 2730),
    (7, 6),
    (-3617, 510),
    (43867, 798),
    (-174611, 330),
    (854513, 138),
    (-236364091, 2730),
    (8553103, 6),
    (-23749461029, 870),
    (8615841276005, 14322),
    (-7709321041217, 510),
    (2577687858367, 6),
    (-26315271553053477373, 1919190),
    (2929993913841559, 6),
    (-261082718496449122051, 13530),
)


def _bernoulli_pair(n: int) -> tuple[int, int]:
    if not 0 <= n < len(_BERNOULLI_EVEN):
        raise DomainError(f"Bernoulli table covers B_0..B_40, got index 2n = {2 * n}")
    return _BERNOULLI_EVEN[n]


def bernoulli_B2n(n: int) -> float:
    """B_(2n) from the exact table, n <= 20."""
    num, den = _bernoulli_pair(n)
    return num / den


def zeta_neg(nu: int) -> float:
    """zeta(1 - 2 nu) = -B_(2 nu) / (2 nu) for integer nu >= 1."""
    if nu < 1:
        raise DomainError(f"zeta_neg requires nu >= 1, got {nu!r}")
    num, den = _bernoulli_pair(nu)
    return -num / (den * 2 * nu)


def zeta_even(k: int) -> float:
    """zeta(2k) = (-1)^(k+1) B_(2k) (2 pi)^(2k) / (2 (2k)!) for k >= 1."""
    if k < 1:
        raise DomainError(f"zeta_even requires k >= 1, got {k!r}")
    num, den = _bernoulli_pair(k)
    sign = 1 if k % 2 == 1 else -1
    rational = sign * num / (den * 2 * math.factorial(2 * k))
    return rational * (2.0 * math.pi) ** (2 * k)
