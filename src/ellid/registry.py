"""The audit core: a catalog of identity records and the residual engine.

Each record carries one identity between series/theta/elliptic expressions,
a small fixed parameter grid, and possibly contested variants.  The two
sides of every entry are evaluated by independent machinery (a Lambert-type
sum is never checked against a rearrangement of itself), the residual is
classified against fixed thresholds, and the resulting reports are the
product: contested entries are adjudicated by computation, never silently
corrected.

Classification is a pure function of the relative residual
|lhs - rhs| / max(1, |lhs|, |rhs|):  PASS <= 1e-9 < INCONCLUSIVE <= 1e-6 < FAIL.
Evaluation errors (non-convergence, poles, domain violations at odd points)
are embedded as INCONCLUSIVE reports with a note, never as PASS.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from functools import partial
from typing import Callable, Mapping, NamedTuple, Sequence

from .elliptic import (Convention, EllipticArgument, Nome, ellint_E, ellint_K,
                       ellint_K_extended)
from .errors import (ConfigError, ConstraintError, DomainError, EllidError,
                     UnknownIdentityError)
from .series import (DEFAULT_POLICY, S1_cosh_over_sinh,
                     S2_alt_sin_sq_over_expm1, S2h_alt_sinh_sq_over_expm1,
                     S3_alt_n_over_expm1, S3sq_alt_nsq_over_expm1,
                     S4_n_over_sinh, S5_sech, S5sq_sech2,
                     S6_alt_sin_over_expm1, S6closed, S7_csch_sinh,
                     S8_exp_over_cube, S9_lambert_E2, S10_alt_sin_lambert,
                     SeriesResult, TruncationPolicy, _inv_expm1, exp_over_sinh,
                     n_cosh_over_sinh_double, sum_series, zeta_neg, zeta_even)
from .singular import (_dadk_classical, _dadk_stated, dadk_candidates, dadk_fd,
                       solve_k)
from .theta import (ThetaKind, _log_theta_pass, log_theta_derivative,
                    q_product_P0, theta2, theta4_imag, theta4_u_derivative_imag,
                    theta_u_derivative)

PASS_THRESHOLD = 1e-9
FAIL_THRESHOLD = 1e-6


class Classification(str, Enum):
    PASS = "PASS"
    INCONCLUSIVE = "INCONCLUSIVE"
    FAIL = "FAIL"


class Expectation(str, Enum):
    EXPECT_PASS = "ExpectPass"
    CONTESTED = "Contested"


def classify(rel_residual: float) -> Classification:
    """The classification bands; fixed, independent of any policy."""
    if not math.isfinite(rel_residual):
        return Classification.INCONCLUSIVE
    if rel_residual <= PASS_THRESHOLD:
        return Classification.PASS
    if rel_residual <= FAIL_THRESHOLD:
        return Classification.INCONCLUSIVE
    return Classification.FAIL


def _combine(value: float, *parts: SeriesResult) -> SeriesResult:
    """``value`` carrying the summed terms and tail bounds of its series parts."""
    return SeriesResult(value, sum(p.terms_used for p in parts),
                        sum(p.tail_bound for p in parts))


# ---------------------------------------------------------------------------
# polynomial test functions for the weighted-derivative identities

MAX_POLY_DEGREE = 8


class _PolynomialSpecFields(NamedTuple):
    coefficients: tuple[float, ...]


class PolynomialSpec(_PolynomialSpecFields):
    """A real polynomial f(x) = sum f_n x^n of degree <= 8.

    Carries the derived quantities the identity evaluators need: whether
    it is even, the factorial-scaled coefficients g_n = n! f_n, the envelope
    sum |f_n| |x|^n, and the real value of an even polynomial at a purely
    imaginary argument.
    """

    __slots__ = ()

    def __new__(cls, coefficients: tuple[float, ...]) -> "PolynomialSpec":
        if len(coefficients) == 0:
            raise DomainError("polynomial needs at least one coefficient")
        if len(coefficients) - 1 > MAX_POLY_DEGREE:
            raise DomainError(
                f"polynomial degree {len(coefficients) - 1} above cap {MAX_POLY_DEGREE}")
        if not all(math.isfinite(c) for c in coefficients):
            raise DomainError("polynomial coefficients must be finite")
        return tuple.__new__(cls, (coefficients,))

    @classmethod
    def monomial(cls, degree: int) -> "PolynomialSpec":
        """x^degree."""
        if degree < 0:
            raise DomainError(f"monomial degree must be >= 0, got {degree}")
        return cls((0.0,) * degree + (1.0,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> float:
        return self.coefficients[n] if 0 <= n < len(self.coefficients) else 0.0

    def eval(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def eval_abs(self, x: float) -> float:
        """sum |f_n| |x|^n, an envelope for |f| on the disk of radius |x|."""
        ax = abs(x)
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * ax + abs(c)
        return acc

    @property
    def is_even(self) -> bool:
        return all(c == 0.0 for n, c in enumerate(self.coefficients) if n % 2 == 1)

    def g_coefficients(self) -> tuple[float, ...]:
        """g_n = n! f_n."""
        return tuple(math.factorial(n) * c for n, c in enumerate(self.coefficients))

    def eval_imag_even(self, y: float) -> float:
        """f(iy) for an even polynomial, which is real: sum f_2k (-1)^k y^(2k)."""
        if not self.is_even:
            raise DomainError("imaginary-argument evaluation needs an even polynomial")
        acc = 0.0
        y2 = y * y
        for k in range((self.degree // 2), -1, -1):
            acc = acc * (-y2) + self.coefficient(2 * k)
        return acc


def _zeta_collapsed_coefficients(F: PolynomialSpec, what: str):
    """(k, c_2k) for each nonzero coefficient c_2k t^(2k) of the collapsed sum.

    Checks F first; ``what`` names the caller in the error texts.
    """
    if not F.is_even:
        raise DomainError(f"zeta-collapsed {what} requires an even polynomial")
    if F.coefficient(0) != 0.0 or F.coefficient(2) != 0.0:
        raise DomainError(
            "test function must satisfy F(0) = F'(0) = F''(0) = 0")
    g = F.g_coefficients()
    for k in range(2, F.degree // 2 + 1):
        g2k = g[2 * k]
        if g2k == 0.0:
            continue
        sign = -1.0 if k % 2 else 1.0
        yield k, g2k * sign * zeta_even(k) / (2.0 * math.pi) ** (2 * k)


def poly_even_zeta_sum(F: PolynomialSpec, t: float) -> float:
    """sum over n of G(t/(2 pi i n)) collapsed to even zeta values.

    For even polynomial G (coefficients g_2k = (2k)! f_2k) the n-sum is
    sum_k g_2k (-1)^k zeta(2k) (2 pi)^(-2k) t^(2k).  Requires the test
    function to vanish to second order at 0, so the sum starts at k = 2.
    """
    total = 0.0
    for k, c2k in _zeta_collapsed_coefficients(F, "sum"):
        total += c2k * t ** (2 * k)
    return total


def poly_even_zeta_integral(F: PolynomialSpec) -> float:
    """2 * integral from 1 to 2 of (1/t) sum_n G(t/(2 pi i n)) dt, termwise.

    Exact polynomial integration: 2 sum_k c_2k (2^(2k) - 1)/(2k) with c_2k
    the collapsed-sum coefficients.
    """
    total = 0.0
    for k, c2k in _zeta_collapsed_coefficients(F, "integral"):
        total += 2.0 * c2k * (2 ** (2 * k) - 1) / (2.0 * k)
    return total


def poly_weighted_log_theta4_sum(f: PolynomialSpec, a: float, s: float,
                                 policy: TruncationPolicy = DEFAULT_POLICY
                                 ) -> SeriesResult:
    """sum_n (-1)^n f_n d^n/ds^n log theta4(i s/2, e^(-pi a))."""
    return _poly_log_theta_sum(ThetaKind.THETA4_IMAG_HALF, f, s,
                               Nome.from_pi_exponent(a), policy)


def poly_weighted_log_theta2_sum(f: PolynomialSpec, a: float, s: float,
                                 policy: TruncationPolicy = DEFAULT_POLICY
                                 ) -> SeriesResult:
    """sum_n (-1)^n f_n d^n/ds^n log theta2(s, e^(-1/a))."""
    return _poly_log_theta_sum(ThetaKind.THETA2, f, s, Nome.from_exponent(1.0 / a),
                               policy)


def _poly_log_theta_sum(kind: ThetaKind, f: PolynomialSpec, s: float, q: Nome,
                        policy: TruncationPolicy) -> SeriesResult:
    """sum_n (-1)^n f_n d^n/ds^n log theta from one pass over the series.

    Values and errors are those of one ``log_theta_derivative`` call per
    nonzero coefficient, in ascending order.  The pass at the top order
    fails whenever one of those calls does.  If the lowest order's call
    succeeds, raw orders up to it and the scale stop at the same n in every
    pass, so the top pass's error is that of the first later call that
    fails; a failed top pass is therefore followed by a pass at the lowest
    order, which raises that order's own error or pole if it has one.
    """
    orders = [n for n, c in enumerate(f.coefficients) if c != 0.0]
    if not orders:
        return SeriesResult(0.0)
    try:
        g = _log_theta_pass(kind, orders[-1], s, q, policy)
    except EllidError:
        _log_theta_pass(kind, orders[0], s, q, policy)
        raise
    total = 0.0
    for n in orders:
        total += (-1.0 if n % 2 else 1.0) * f.coefficients[n] * g[n]
    return SeriesResult(total)


# ---------------------------------------------------------------------------
# bilateral sums shared by the polynomial identities

def _poly_bilateral_exp_sinh(f: PolynomialSpec, a: float, s: float) -> SeriesResult:
    """-sum_{n in Z, n != 0} f(n) e^(-ns) / (2n sinh(pi a n)); converges only
    for |s| < pi a, which P11a's constraint enforces."""

    def pair(n: int) -> tuple[float, float]:
        x = math.pi * a * n
        term = -(f.eval(n) * exp_over_sinh(-n * s, x)
                 + f.eval(-n) * exp_over_sinh(n * s, x)) / (2.0 * n)
        env = f.eval_abs(n) * exp_over_sinh(n * abs(s), x) / n
        return term, env

    return sum_series(pair)


def _poly_exp_bilateral_exp_sinh(f: PolynomialSpec, a: float, s: float) -> SeriesResult:
    """-sum_{n != 0} f(e^(-n)) e^(-ns) / (2n sinh(pi a n)).

    f(e^(+-n)) is expanded coefficientwise into exp_over_sinh terms so the
    n > 0 mirror (which carries f(e^n) ~ e^(deg*n)) never overflows; the sum
    converges only for deg + |s| < pi a, which P11b's constraint (deg 2) enforces.
    """

    def pair(n: int) -> tuple[float, float]:
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


# ---------------------------------------------------------------------------
# registry data model

class ParamSpec(NamedTuple):
    """One named grid parameter: default audit values plus its legal range."""
    name: str
    grid: tuple
    lo: float | None = None
    hi: float | None = None
    choices: tuple | None = None


# A side takes its record's parameter values, in ``ParamSpec`` order:
# ``side(*values)``.  It calls the primitives without a policy, so the audit
# sums every series at one policy, ``DEFAULT_POLICY``.
Evaluator = Callable[..., SeriesResult]


class Variant(NamedTuple):
    variant_id: str
    lhs: Evaluator
    rhs: Evaluator
    note: str = ""


class IdentityRecord(NamedTuple):
    identity_id: str
    anchor: str
    params: tuple[ParamSpec, ...]
    variants: tuple[Variant, ...]
    expected: Expectation
    constraint: Callable[[Mapping], bool] | None = None
    constraint_note: str = ""

    def variant(self, variant_id: str) -> Variant:
        for v in self.variants:
            if v.variant_id == variant_id:
                return v
        raise UnknownIdentityError(
            f"identity {self.identity_id!r} has no variant {variant_id!r}")

    def grid_points(self, grid: Mapping[str, Sequence] = {}) -> list[dict]:
        """Every point of the product of the parameter grids.

        ``grid`` maps a parameter name to the values that replace its own
        grid; a name this record lacks raises ``ConfigError``.  Points are
        not validated here: a run validates each one as it evaluates it.
        """
        names = [p.name for p in self.params]
        for name in grid:
            if name not in names:
                raise ConfigError(f"grid: {self.identity_id} has no parameter {name!r}")
        axes = [grid.get(p.name, p.grid) for p in self.params]
        return [dict(zip(names, combo)) for combo in itertools.product(*axes)]

    def validate_point(self, point: Mapping) -> tuple:
        """The point's values in ``ParamSpec`` order; a violation raises."""
        names = {p.name for p in self.params}
        if set(point.keys()) != names:
            raise ConstraintError(
                f"{self.identity_id}: expected parameters {sorted(names)}, "
                f"got {sorted(point.keys())}")
        values = []
        for p in self.params:
            v = point[p.name]
            values.append(v)
            if p.choices is not None:
                if v not in p.choices:
                    raise ConstraintError(
                        f"{self.identity_id}: {p.name}={v!r} not in {p.choices}")
                continue
            if not isinstance(v, (int, float)) or not math.isfinite(float(v)):
                raise ConstraintError(
                    f"{self.identity_id}: {p.name}={v!r} is not a finite number")
            if p.lo is not None and v < p.lo:
                raise ConstraintError(
                    f"{self.identity_id}: {p.name}={v!r} below {p.lo}")
            if p.hi is not None and v > p.hi:
                raise ConstraintError(
                    f"{self.identity_id}: {p.name}={v!r} above {p.hi}")
        if self.constraint is not None and not self.constraint(point):
            raise ConstraintError(
                f"{self.identity_id}: point {dict(point)!r} violates "
                f"{self.constraint_note or 'the domain constraint'}")
        return tuple(values)


class ResidualReport(NamedTuple):
    """One classified (identity, variant, grid point) row."""

    identity: str
    variant: str
    params: dict
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    classification: Classification
    terms: dict
    note: str


def _error_report(identity_id: str, variant_id: str, point: Mapping,
                  note: str) -> ResidualReport:
    """The INCONCLUSIVE row for a point whose evaluation failed with ``note``."""
    return ResidualReport(
        identity_id, variant_id, dict(point), math.nan, math.nan, math.nan,
        math.nan, Classification.INCONCLUSIVE, {"lhs": 0, "rhs": 0}, note)


def _side_at(side: Evaluator, values: tuple,
             seen: dict[int, SeriesResult | str]) -> SeriesResult | str:
    """One side's value at the point ``values``, or the note of its error.

    ``seen`` maps id(evaluator) to what earlier calls at this point gave.
    Only the note is kept: a kept exception would hold its traceback, whose
    frames hold the memo that holds the exception, a reference cycle per
    failed side.
    """
    if id(side) in seen:
        return seen[id(side)]
    try:
        result = side(*values)
    except (EllidError, ZeroDivisionError) as exc:
        result = f"{type(exc).__name__}: {exc}"
    seen[id(side)] = result
    return result


def _reports_at(record: IdentityRecord, variants: Sequence[Variant],
                point: Mapping) -> list[ResidualReport]:
    """The rows of ``variants`` of ``record`` at one point.

    The point is validated once; a violation raises ``ConstraintError``.
    Each distinct evaluator object (``v.lhs is w.lhs``) is called at most
    once per side, and every variant holding it gets its value, or its
    error note.  A row's lhs and rhs never share a call, even when they are
    one object.  A failed side, lhs first, gives one INCONCLUSIVE row with
    its error note; a row whose lhs fails does not call its rhs.
    """
    values = record.validate_point(point)
    lhs_seen, rhs_seen = {}, {}
    identity = record.identity_id
    reports = []
    for v in variants:
        lhs = _side_at(v.lhs, values, lhs_seen)
        rhs = lhs if isinstance(lhs, str) else _side_at(v.rhs, values, rhs_seen)
        if isinstance(rhs, str):
            reports.append(_error_report(identity, v.variant_id, point, rhs))
            continue
        abs_res = abs(lhs.value - rhs.value)
        rel_res = abs_res / max(1.0, abs(lhs.value), abs(rhs.value))
        reports.append(ResidualReport(
            identity, v.variant_id, dict(point), lhs.value, rhs.value,
            abs_res, rel_res, classify(rel_res),
            {"lhs": lhs.terms_used, "rhs": rhs.terms_used}, ""))
    return reports


def _sort_token(v) -> tuple:
    if isinstance(v, str):
        return (1, v)
    return (0, float(v))


def report_sort_key(r: ResidualReport) -> tuple:
    return (r.identity, r.variant,
            tuple((k, _sort_token(r.params[k])) for k in sorted(r.params)))


# ---------------------------------------------------------------------------
# identity evaluators
#
# LHS and RHS of each entry share only the library primitives; no identity
# feeds one side's intermediate values to the other.  Each evaluator is a flat
# function, side(*constants, *params): a variant's constants (a nome
# reading, a sign, a scale, a test polynomial) are bound with ``partial`` in
# ``build_registry``, so the record table is the one place that shows them.
# A partial binds registry functions only: the benchmark tracer wraps the
# series, theta and elliptic functions by module attribute, and a reference
# bound at build time would escape it.  Variants of one record may hold the
# same evaluator object for a side; a run calls it once per point and gives
# every such variant its result, but never hands one side's result to the
# other side of a row (see _reports_at).

@functools.lru_cache(maxsize=64)
def _ke_at(a: float) -> tuple[float, float, float]:
    """(k, K, E) at the singular modulus for ratio a; parameter convention.

    Memoised here rather than on the public ``solve_k``: a cached
    ``SingularSolve`` would echo in ``a`` whichever of two equal keys came
    first (1.0 after True, 1.5 after Fraction(3, 2)).  Bounded because a
    sweep never repeats an a.  Errors are not cached.
    """
    k = solve_k(a).k.value
    arg = EllipticArgument.from_parameter(k * k)
    return k, ellint_K(arg), ellint_E(arg)


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

def _p7_arg(value, convention) -> EllipticArgument:
    return EllipticArgument(value, Convention(convention))


def _p7_lhs(candidate: str, value, convention):
    """The ``dadk_candidates`` entry named ``candidate``."""
    return SeriesResult(dadk_candidates(_p7_arg(value, convention))[candidate])


def _p7_rhs_fd(value, convention):
    return SeriesResult(dadk_fd(_p7_arg(value, convention)).value)


# -- P8 ---------------------------------------------------------------------

def _p8_lhs(r):
    s = S9_lambert_E2(Nome.from_pi_exponent(r))
    return _combine(24.0 * s.value, s)


def _p8_rhs(drdm: Callable[[float, Convention, float, float], float], r):
    k, K, E = _ke_at(r)
    m = k * k
    d = drdm(m, Convention.PARAMETER, K, E)
    return SeriesResult(1.0 + (6.0 * E + (m - 5.0) * K)
                        / (math.pi * m * (1.0 - m) * K * d))


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

def _alt_poly_over_expm1(F: PolynomialSpec, a: float) -> SeriesResult:
    """sum (-1)^n F(n) / (n (e^(an) - 1))."""

    def term(n: int) -> tuple[float, float]:
        inv = _inv_expm1(a * n)
        env = F.eval_abs(n) * inv / n
        sign = -1.0 if n % 2 else 1.0
        return sign * F.eval(n) * inv / n, env

    return sum_series(term)


def _imag_poly_over_sinh(F: PolynomialSpec, b: float) -> SeriesResult:
    """sum F(ibn) / (n sinh(b n pi)) for even F (real values)."""

    def term(n: int) -> tuple[float, float]:
        inv = exp_over_sinh(0.0, b * n * math.pi)  # 1/sinh
        env = F.eval_abs(b * n) * inv / n
        return F.eval_imag_even(b * n) * inv / n, env

    return sum_series(term)


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
    # The f(0) log P0 term is 0: f = x^fdeg with fdeg >= 2 has f(0) = 0.
    return _poly_bilateral_exp_sinh(PolynomialSpec.monomial(int(fdeg)), a, s)


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


def _p12_bilateral(f: PolynomialSpec, a: float, s: float,
                   weight_half_n: bool) -> SeriesResult:
    """sum_{n != 0} f(2 pi n a) e^(-2 pi n s a) / w with w = 2n sinh(pi^2 a n)
    (weight_half_n) or w = sinh(pi^2 a n) (printed form); converges only for
    |s| < pi/2, which P12's range 0 <= s <= 1.5 enforces."""

    def pair(n: int) -> tuple[float, float]:
        x = math.pi ** 2 * a * n
        c = 2.0 * math.pi * n * a
        plus = f.eval(c) * exp_over_sinh(-2.0 * math.pi * n * s * a, x)
        # the n -> -n mirror: f(-c) e^(+2 pi n s a) / sinh(-x) terms
        minus_num = f.eval(-c) * exp_over_sinh(2.0 * math.pi * n * s * a, x)
        env = f.eval_abs(c) * exp_over_sinh(2.0 * math.pi * n * abs(s) * a, x)
        if weight_half_n:
            return (plus + minus_num) / (2.0 * n), env / n
        return plus - minus_num, 2.0 * env

    return sum_series(pair)


def _p12_rhs_printed(a, s):
    f = _P12_POLY
    bil = _p12_bilateral(f, a, s, weight_half_n=False)
    value = 2.0 * a - 2.0 * a * f.eval(0.0) * s + a * math.pi * bil.value
    return _combine(value, bil)


def _p12_rhs_derived(a, s):
    f = _P12_POLY
    bil = _p12_bilateral(f, a, s, weight_half_n=True)
    value = (2.0 * a * f.coefficient(1) * s - 2.0 * a * f.coefficient(2)
             - bil.value)
    return _combine(value, bil)


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


# ---------------------------------------------------------------------------
# the registry itself

def build_registry() -> "Registry":
    pi = math.pi
    # One object for each side that variants share, so a run evaluates it
    # once per point (see _reports_at).
    e8_lhs, e8_rhs = partial(_e8_lhs, 4.0), partial(_e8_rhs, 1.0)
    p12_lhs = partial(poly_weighted_log_theta2_sum, _P12_POLY)
    p11b_x2, p11b_x_x2 = PolynomialSpec((0.0, 0.0, 1.0)), PolynomialSpec((0.0, 1.0, 1.0))
    records = [
        IdentityRecord(
            "P1",
            "sum cosh(2tn)/(n sinh(pi a n)) = log P0 - log theta4(it, e^(-a pi))",
            (ParamSpec("a", (0.8, 1.0, 1.5), lo=0.05, hi=20.0),
             ParamSpec("t", (0.0, 0.1, 0.3), lo=0.0, hi=10.0)),
            (Variant("base", S1_cosh_over_sinh, _p1_rhs),),
            Expectation.EXPECT_PASS,
            constraint=lambda p: 2.0 * abs(p["t"]) < pi * p["a"],
            constraint_note="2|t| < pi*a"),
        IdentityRecord(
            "P2",
            "4 sum (-1)^n sin(theta n)^2/((e^(2 pi n a)-1) n) = "
            "log(theta4(i theta/a, e^(-pi/a)) / (theta4(0, e^(-pi/a)) cos theta)) "
            "- theta^2/(a pi)",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),
             ParamSpec("theta", (0.2, 0.5), lo=0.0, hi=1.2)),
            (Variant("base", _p2_lhs, _p2_rhs),
             Variant("sinh-squared", _p2_lhs_sinh, _p2_rhs,
                     note="proof text uses sinh^2 where the statement has sin^2"),
             Variant("theta2-direct", _p2_lhs, _p2_rhs_theta2,
                     note="same right side through theta2 at nome e^(-pi a), "
                          "no Gaussian correction term")),
            Expectation.CONTESTED,
            constraint=lambda p: abs(p["theta"]) < min(0.5 * pi, pi * p["a"]),
            constraint_note="|theta| < min(pi/2, pi*a)"),
        IdentityRecord(
            "P2b",
            "d theta4/du (iz, e^(-z)) + 2i theta4(iz, e^(-z)) = 0, "
            "read as the real series -4 sum (-1)^n n q^(n^2) sinh(2nz) "
            "+ 2 theta4(iz, q) = 0",
            (ParamSpec("z", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),),
            (Variant("base", partial(_p2b_lhs, Nome.from_exponent),
                     partial(_p2b_rhs, Nome.from_exponent)),
             Variant("nome-exp-pi-z", partial(_p2b_lhs, Nome.from_pi_exponent),
                     partial(_p2b_rhs, Nome.from_pi_exponent),
                     note="alternative reading with nome e^(-pi z)")),
            Expectation.CONTESTED),
        IdentityRecord(
            "P3",
            "2 d^2/dt^2 log theta4(i t pi/2, e^(-2 pi a)) at t=a = "
            "K(k_a) E(k_a) - K(k_a)^2",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p3_lhs, _p3_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "E4",
            "sum (-1)^n n/(e^(2 pi n/a)-1) = 1/8 - a/(4 pi) "
            "+ a^2 K(k_a)(E(k_a)-K(k_a))/(2 pi^2)",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _e4_lhs, _e4_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E5",
            "-1/4 + a/(2 pi) + 2 sum (-1)^n n/(e^(2 pi n/a)-1) "
            "+ 2 a^2 sum n cosh(a n pi)/sinh(2 a n pi) = 0",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),),
            (Variant("base", _e5_lhs, _zero_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E5b",
            "sum n/sinh(pi b n) = (K(k_b)/pi^2)(K(k_b) - E(k_b))",
            (ParamSpec("b", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", S4_n_over_sinh, _e5b_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E5c",
            "sum sech(pi n x)^2 = -4 sum (-1)^n n/(e^(2 pi n x)-1)",
            (ParamSpec("x", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),),
            (Variant("base", S5sq_sech2, _e5c_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E7",
            "(a/2) tan(v/2) = v + 2a sum (-1)^n sin(nv)/(e^(an)-1) "
            "+ 2 pi sum csch(2 n pi^2/a) sinh(2 pi n v/a)",
            (ParamSpec("a", (2.0, 4.0), lo=0.05, hi=50.0),
             ParamSpec("v", (0.5, 1.0, 2.0), lo=0.0, hi=3.1)),
            (Variant("base", _e7_lhs, partial(_e7_rhs, False)),
             Variant("inverted-a", _e7_lhs, partial(_e7_rhs, True),
                     note="hyperbolic sum with a replaced by 1/a, the other "
                          "plausible pairing")),
            Expectation.CONTESTED),
        IdentityRecord(
            "E7b",
            "sum (-1)^n sin(nv)/(e^(an)-1) = "
            "-(1/2) sum sin(v)/(cos(v)+cosh(an))",
            (ParamSpec("a", (1.0, 2.0), lo=0.05, hi=50.0),
             ParamSpec("v", (0.5, 1.0), lo=-10.0, hi=10.0)),
            (Variant("base", S6_alt_sin_over_expm1, S6closed),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E8",
            "4 sum (-1)^n sin(2nz) q^(2n)/(1-q^(2n)) = "
            "tan(z) + (d theta2/dz)/theta2(z, q)",
            (ParamSpec("z", (0.3, 0.6), lo=0.0, hi=1.4),
             ParamSpec("q", (0.2, math.exp(-pi)), lo=0.0, hi=0.9)),
            (Variant("base", e8_lhs, e8_rhs),
             Variant("minus-tan", e8_lhs, partial(_e8_rhs, -1.0),
                     note="sign variant on the tangent term"),
             Variant("half-scale", partial(_e8_lhs, 2.0), e8_rhs,
                     note="scale variant: factor 2 instead of 4")),
            Expectation.CONTESTED,
            # theta2 vanishes identically at q = 0.  A constraint, not a
            # raised lo, so that seeded uniform draws over [lo, hi] are unchanged.
            constraint=lambda p: p["q"] > 0.0,
            constraint_note="q > 0"),
        IdentityRecord(
            "P4",
            "e^(x^2 a/pi) theta2(x, e^(-pi/a)) / theta4(iax, e^(-a pi)) is "
            "constant in x (checked on x in {0, 0.1, 0.2, 0.3})",
            (ParamSpec("a", (1.0, 2.0), lo=0.05, hi=20.0),),
            (Variant("base", _p4_lhs, _p4_rhs,
                     note="lhs/rhs are the max/min of the bracket over the x grid"),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P4b",
            "2 pi sum sinh(2 n pi z a)/sinh(n pi^2 a) = "
            "-2z - (1/a) d/dz log theta2(z, e^(-1/a))",
            (ParamSpec("a", (1.0, 2.0), lo=0.05, hi=20.0),
             ParamSpec("z", (0.2, 0.5), lo=0.0, hi=1.5)),
            (Variant("base", _p4b_lhs, _p4b_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P5",
            "-2 sum e^(2 n pi/b)/(1+e^(2 n pi/b))^3 + sum (-1)^n n^2/(e^(2 n pi/b)-1) "
            "= 1/8 - b/(4 pi) + b^2 (E K - K^2)/(2 pi^2) at k_b",
            (ParamSpec("b", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p5_lhs, _p5_rhs),
             Variant("n-times-n-plus-1", _p5_lhs_shifted, _p5_rhs,
                     note="proof text carries (-1)^n n(n+1) in place of (-1)^n n^2")),
            Expectation.CONTESTED),
        IdentityRecord(
            "P6",
            "d/dz theta2(z, e^(-pi/(2a))) at z=pi/4 = "
            "-(2a/pi) theta2(pi/4, e^(-pi/(2a))) K(k_a)",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p6_lhs, _p6_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P6b",
            "sum sech(n pi a) = 1/2 + K(k_a)/pi",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", S5_sech, partial(_p6b_rhs, 0.5)),
             Variant("minus-half", S5_sech, partial(_p6b_rhs, -0.5),
                     note="closed form with -1/2; the desk-checked reading")),
            Expectation.CONTESTED),
        IdentityRecord(
            "P7",
            "da/d(arg) = (dK/d(arg))/(E K - K^2), audited against a "
            "Richardson finite-difference oracle in both conventions",
            (ParamSpec("value", (0.3, 0.5, 0.7), lo=0.05, hi=0.95),
             ParamSpec("convention", ("modulus", "parameter"),
                       choices=("modulus", "parameter"))),
            (Variant("base", partial(_p7_lhs, "stated-formula"), _p7_rhs_fd,
                     note="stated derivative formula vs the fd oracle"),
             Variant("classical", partial(_p7_lhs, "classical"), _p7_rhs_fd,
                     note="textbook period-ratio derivative vs the fd oracle")),
            Expectation.CONTESTED),
        IdentityRecord(
            "P7b",
            "2 d/dt log theta4(i t pi/2, e^(-2 pi x)) at t=x = "
            "-pi sum sech(n pi x) = pi/2 - K(k_x)",
            (ParamSpec("x", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p7b_lhs, _p7b_rhs_k),
             Variant("middle-sum", _p7b_lhs, _p7b_rhs_sech,
                     note="theta derivative against the sech sum alone"),
             Variant("plus-half-closed", _p7b_lhs, _p7b_rhs_plus_half,
                     note="sech sum replaced by the printed +1/2 closed form")),
            Expectation.CONTESTED),
        IdentityRecord(
            "P8",
            "24 sum n q^n/(1-q^n) = 1 + (6E + (m-5)K)/(pi m (1-m) K dr/dm) "
            "with q = e^(-pi r), m the parameter at ratio r",
            (ParamSpec("r", (1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p8_lhs, partial(_p8_rhs, _dadk_stated),
                     note="dr/dm from the stated derivative formula"),
             Variant("classical-drdk", _p8_lhs, partial(_p8_rhs, _dadk_classical),
                     note="dr/dm from the textbook period-ratio derivative")),
            Expectation.CONTESTED),
        IdentityRecord(
            "P9",
            "K(x/(x-1))/sqrt(1-x) = K(x), read in each convention",
            (ParamSpec("x", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7), lo=0.0, hi=0.7),),
            (Variant("parameter", _p9_lhs_parameter,
                     partial(_p9_rhs, Convention.PARAMETER),
                     note="descending transformation of the parameter"),
             Variant("modulus", _p9_lhs_modulus, partial(_p9_rhs, Convention.MODULUS),
                     note="modulus reading; x/(x-1) leaves the real domain "
                          "for x >= 1/2")),
            Expectation.CONTESTED),
        IdentityRecord(
            "P10",
            "2 int_1^2 (1/t) sum_n G(t/(2 pi i n)) dt + 2 sum (-1)^n F(n)/(n(e^(an)-1)) "
            "- sum F(ibn)/(n sinh(b n pi)) = 0, ab = 2 pi, F even vanishing "
            "to second order",
            (ParamSpec("fdeg", (4, 6), choices=(4, 6)),
             ParamSpec("b", (1.0, 2.0), lo=0.2, hi=10.0)),
            (Variant("base", partial(_p10_lhs, poly_even_zeta_integral), _zero_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P10a",
            "sum_nu f_(2nu) (2^(2nu)-1) zeta(1-2nu) + 2 sum (-1)^n f(n)/(n(e^(an)-1)) "
            "- sum f(ibn)/(n sinh(b n pi)) = 0, ab = 2 pi",
            (ParamSpec("fdeg", (2, 4), choices=(2, 4)),
             ParamSpec("b", (1.0, 2.0), lo=0.2, hi=10.0)),
            (Variant("base", partial(_p10_lhs, _p10a_zeta_term), _zero_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P11a",
            "sum (-1)^n f_n d^n/ds^n log theta4(i s/2, e^(-pi a)) = "
            "f(0) log P0 - sum_(n != 0) f(n) e^(-ns)/(2n sinh(pi a n))",
            (ParamSpec("fdeg", (2, 3, 4), choices=(2, 3, 4)),
             ParamSpec("a", (1.0, 2.0), lo=0.11, hi=20.0),
             ParamSpec("s", (0.0, 0.2), lo=0.0, hi=3.0)),
            (Variant("base", _p11a_lhs, _p11a_rhs),),
            Expectation.EXPECT_PASS,
            constraint=lambda p: abs(p["s"]) < pi * p["a"],
            constraint_note="|s| < pi*a"),
        IdentityRecord(
            "P11b",
            "sum f_n log theta4(i(s+n)/2, e^(-pi a)) = "
            "f(1) log P0 - sum_(n != 0) f(e^(-n)) e^(-ns)/(2n sinh(pi a n))",
            (ParamSpec("a", (1.0, 2.0), lo=0.11, hi=20.0),
             ParamSpec("s", (0.0, 0.5), lo=0.0, hi=0.6)),
            (Variant("base", partial(_log_theta4_shift_sum, p11b_x2),
                     partial(_p11b_rhs, p11b_x2), note="f(x) = x^2"),
             Variant("mixed-parity", partial(_log_theta4_shift_sum, p11b_x_x2),
                     partial(_p11b_rhs, p11b_x_x2), note="f(x) = x + x^2")),
            Expectation.CONTESTED,
            constraint=lambda p: 2.0 + abs(p["s"]) < pi * p["a"],
            constraint_note="deg f + |s| < pi*a"),
        IdentityRecord(
            "P12",
            "sum (-1)^n f_n d^n/ds^n log theta2(s, e^(-1/a)) = 2a - 2a f(0) s "
            "+ a pi sum_(n != 0) f(2 pi n a) e^(-2 pi n s a)/sinh(pi^2 a n), "
            "f(x) = x^2 + x^3",
            (ParamSpec("a", (1.0, 2.0), lo=0.2, hi=20.0),
             ParamSpec("s", (0.3, 0.6), lo=0.0, hi=1.5)),
            (Variant("base", p12_lhs, _p12_rhs_printed),
             Variant("derived-bilateral", p12_lhs, _p12_rhs_derived,
                     note="right side rebuilt by transforming theta2 to the "
                          "theta4 chain: 2a f_1 s - 2a f_2 "
                          "- sum f(2 pi a n) e^(-2 pi a s n)/(2n sinh(pi^2 a n))")),
            Expectation.CONTESTED),
    ]
    return Registry(records)


class Registry:
    """Immutable catalog of identity records plus the residual engine."""

    def __init__(self, records: Sequence[IdentityRecord]):
        self._records: dict[str, IdentityRecord] = {}
        for rec in records:
            if rec.identity_id in self._records:
                raise ValueError(f"duplicate identity id {rec.identity_id!r}")
            self._records[rec.identity_id] = rec

    def __len__(self) -> int:
        return len(self._records)

    def ids(self) -> list[str]:
        return sorted(self._records)

    def records(self) -> list[IdentityRecord]:
        return [self._records[i] for i in self.ids()]

    def get(self, identity_id: str) -> IdentityRecord:
        try:
            return self._records[identity_id]
        except KeyError:
            raise UnknownIdentityError(f"unknown identity {identity_id!r}") from None

    def evaluate(self, identity_id: str, variant_id: str,
                 point: Mapping) -> ResidualReport:
        """Evaluate one (identity, variant, grid point) into a report, at
        the audit's one policy.

        Unknown ids and constraint violations raise; numeric evaluation
        failures, including a division by an underflowed denominator, come
        back as INCONCLUSIVE reports with a note.  It is the path a run
        takes at one point, for one variant.  No side result is shared with
        other calls, but ``_ke_at`` memoises (k, K, E) by ratio across calls.
        """
        record = self.get(identity_id)
        return _reports_at(record, (record.variant(variant_id),), point)[0]

    def run(self, ids: Sequence[str] | None = None,
            grid: Mapping[str, Sequence] = {}) -> list[ResidualReport]:
        """Every variant of each record in ``ids`` (all records if None, each
        id once) at every point of ``grid_points(grid)``, sorted: a function
        of ``ids`` and ``grid`` alone.

        Unknown ids, unknown ``grid`` names and invalid points raise.  At each
        point the variants share their sides (see ``_reports_at``).  No side
        result is kept from one point to the next, but ``_ke_at`` memoises
        (k, K, E) by ratio across points and runs.
        """
        records = (self.records() if ids is None
                   else [self.get(i) for i in dict.fromkeys(ids)])
        reports = []
        for record in records:
            for point in record.grid_points(grid):
                reports.extend(_reports_at(record, record.variants, point))
        reports.sort(key=report_sort_key)
        return reports

    def run_all(self) -> list[ResidualReport]:
        """``run()``: the whole catalog at its own grids.  It stays a method
        of its own because the benchmark's catalog op calls it and its tracer
        spans it as ``registry.run_all``."""
        return self.run()


@functools.cache
def default_registry() -> Registry:
    return build_registry()
