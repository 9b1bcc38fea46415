"""The audit engine: identity records, the residual classifier and the
polynomial sums of the weighted-derivative identities.

Each record carries one identity between series/theta/elliptic expressions,
a small fixed parameter grid, and possibly contested variants.  The two
sides of every entry are evaluated by independent machinery (a Lambert-type
sum is never checked against a rearrangement of itself), the residual is
classified against fixed thresholds, and the resulting reports are the
product: contested entries are adjudicated by computation, never silently
corrected.

Classification is a pure function of the relative residual
|lhs - rhs| / max(1, |lhs|, |rhs|):  PASS <= 1e-9 < INCONCLUSIVE <= 1e-6 < FAIL.
Evaluation errors (non-convergence, poles, domain violations at odd points),
each an ``EllidError``, are embedded as INCONCLUSIVE reports with a note,
never as PASS.

The side evaluators live in ``ellid.sides`` and the record table,
``build_registry``, in ``ellid.catalog``; every function that calls
``sum_series`` stays here (see the comment above ``sides._ke_at``).
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Sequence

from .elliptic import Nome, _CheckedRecord, _finite_real
from .errors import (ConfigError, ConstraintError, DomainError, EllidError,
                     UnknownIdentityError)
from .series import (DEFAULT_POLICY, SeriesResult, TruncationPolicy, _inv_expm1,
                     exp_over_sinh, sum_series, zeta_even)
from .theta import ThetaKind, _log_theta_pass

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
    terms = tail = 0  # int 0 with no parts, as sum() gave
    for p in parts:
        terms += p.terms_used
        tail += p.tail_bound
    return SeriesResult(value, terms, tail)


# ---------------------------------------------------------------------------
# polynomial test functions for the weighted-derivative identities

MAX_POLY_DEGREE = 8


class _PolynomialSpecFields(NamedTuple):
    coefficients: tuple[float, ...]


class PolynomialSpec(_CheckedRecord, _PolynomialSpecFields):
    """A real polynomial f(x) = sum f_n x^n of degree <= 8.

    Keeps, from construction, the views of its coefficients that the
    identity sums read: highest degree first (``_rev``), their magnitudes
    (``_mag``), the even part f_2k highest k first, or None when f is not
    even (``_even``), and (n, f_n, |f_n|) for each nonzero f_n
    (``_nonzero``).  Horner over the first three gives f(x), the envelope
    sum |f_n| |x|^n and, for an even f, the real value f(iy).  The views
    belong to the instance: equal polynomials may differ in the sign of a
    zero coefficient, which f(x) keeps.
    """

    def __new__(cls, coefficients: tuple[float, ...]) -> "PolynomialSpec":
        if len(coefficients) == 0:
            raise DomainError("polynomial needs at least one coefficient")
        if len(coefficients) - 1 > MAX_POLY_DEGREE:
            raise DomainError(
                f"polynomial degree {len(coefficients) - 1} above cap {MAX_POLY_DEGREE}")
        if not all(map(_finite_real, coefficients)):
            raise DomainError("polynomial coefficients must be finite")
        self = tuple.__new__(cls, (coefficients,))
        self._rev = coefficients[::-1]
        self._mag = tuple(map(abs, self._rev))
        self._even = None if any(coefficients[1::2]) else coefficients[::2][::-1]
        self._nonzero = tuple((n, c, abs(c)) for n, c in enumerate(coefficients) if c != 0.0)
        return self

    @classmethod
    @functools.cache
    def monomial(cls, degree: int) -> "PolynomialSpec":
        """x^degree, one object per degree."""
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
        for c in self._rev:
            acc = acc * x + c
        return acc


def _zeta_collapsed_coefficients(F: PolynomialSpec, what: str):
    """(k, c_2k) for each nonzero coefficient c_2k t^(2k) of the collapsed sum.

    Checks F first; ``what`` names the caller in the error texts.
    """
    if F._even is None:
        raise DomainError(f"zeta-collapsed {what} requires an even polynomial")
    if F.coefficient(0) != 0.0 or F.coefficient(2) != 0.0:
        raise DomainError(
            "test function must satisfy F(0) = F'(0) = F''(0) = 0")
    for k in range(2, F.degree // 2 + 1):
        g2k = math.factorial(2 * k) * F.coefficients[2 * k]
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

    The value is that of one ``log_theta_derivative`` call per nonzero
    coefficient, summed in ascending order.  The sum runs one pass, at the
    top order, and fails with that pass's error: the error a
    ``log_theta_derivative`` call at the top order raises.
    """
    orders = [n for n, c in enumerate(f.coefficients) if c != 0.0]
    if not orders:
        return SeriesResult(0.0)
    g = _log_theta_pass(kind, orders[-1], s, q, policy)
    total = 0.0
    for n in orders:
        total += (-1.0 if n % 2 else 1.0) * f.coefficients[n] * g[n]
    return SeriesResult(total)


# ---------------------------------------------------------------------------
# bilateral sums shared by the polynomial identities

def _bilateral_exp_sinh(f: PolynomialSpec, xa: float, k: float, w: float, s: float,
                        weight_half_n: bool) -> SeriesResult:
    """sum_{n != 0} f(c) e^(-e) / D with x = xa n, c = k n w, e = k n s w, and
    D = 2n sinh(x) (weight_half_n) or D = sinh(x).  P11a reads it at
    (pi a, 1, 1) and P12 at (pi^2 a, 2 pi, a); it converges only inside
    their records' constraints."""
    rev, mag = f._rev, f._mag
    sa = abs(s)

    def pair(n: int) -> tuple[float, float]:
        # 2 e^(y - x) / d is exp_over_sinh(y, x), with d computed once per n
        x = xa * n
        d = 1.0 - math.exp(-2.0 * x)
        kn = k * n
        c = kn * w
        e = kn * s * w  # (-kn) s w is exactly -e
        mc, ac = -c, abs(c)
        fp = fm = env = 0.0  # f(c), f(-c) and |f|(|c|) by Horner
        for coef, m in zip(rev, mag):
            fp = fp * c + coef
            fm = fm * mc + coef
            env = env * ac + m
        plus = fp * (2.0 * math.exp(-e - x) / d)
        # the n -> -n mirror: f(-c) e^(+e) / sinh(-x) terms
        minus_num = fm * (2.0 * math.exp(e - x) / d)
        env = env * (2.0 * math.exp(kn * sa * w - x) / d)
        if weight_half_n:
            return (plus + minus_num) / (2.0 * n), env / n
        return plus - minus_num, 2.0 * env

    return sum_series(pair)


def _poly_exp_bilateral_exp_sinh(f: PolynomialSpec, a: float, s: float) -> SeriesResult:
    """-sum_{n != 0} f(e^(-n)) e^(-ns) / (2n sinh(pi a n)).

    f(e^(+-n)) is expanded coefficientwise into e^y / sinh(x) terms so the
    n > 0 mirror (which carries f(e^n) ~ e^(deg*n)) never overflows; the sum
    converges only for deg + |s| < pi a, which P11b's constraint (deg 2) enforces.
    """
    nonzero = f._nonzero
    pa, sa = math.pi * a, abs(s)

    def pair(n: int) -> tuple[float, float]:
        x = pa * n
        d = 1.0 - math.exp(-2.0 * x)  # as in _bilateral_exp_sinh
        ns, nsa = n * s, n * sa
        plus = 0.0
        minus = 0.0
        env = 0.0
        for i, c, m in nonzero:
            i_n = i * n
            plus += c * (2.0 * math.exp(ns + i_n - x) / d)
            minus += c * (2.0 * math.exp(-ns - i_n - x) / d)
            env += m * (2.0 * math.exp(nsa + i_n - x) / d)
        return -(minus + plus) / (2.0 * n), env / n

    return sum_series(pair)



# ---------------------------------------------------------------------------
# P10's sums over F(n) and F(ibn)

def _alt_poly_over_expm1(F: PolynomialSpec, a: float) -> SeriesResult:
    """sum (-1)^n F(n) / (n (e^(an) - 1))."""
    rev, mag = F._rev, F._mag

    def term(n: int) -> tuple[float, float]:
        inv = _inv_expm1(a * n)
        val = env = 0.0
        for c, m in zip(rev, mag):
            val = val * n + c
            env = env * n + m
        env = env * inv / n
        sign = -1.0 if n % 2 else 1.0
        return sign * val * inv / n, env

    return sum_series(term)


def _imag_poly_over_sinh(F: PolynomialSpec, b: float) -> SeriesResult:
    """sum F(ibn) / (n sinh(b n pi)) for even F (real values)."""
    mag, even = F._mag, F._even

    def term(n: int) -> tuple[float, float]:
        y = b * n
        inv = exp_over_sinh(0.0, y * math.pi)  # 1/sinh
        ay = abs(y)
        env = 0.0
        for m in mag:
            env = env * ay + m
        env = env * inv / n
        if even is None:  # raised after the sinh denominator, at the first term
            raise DomainError("imaginary-argument evaluation needs an even polynomial")
        my2 = -(y * y)
        val = 0.0
        for c in even:
            val = val * my2 + c
        return val * inv / n, env

    return sum_series(term)


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
        not validated here: a run validates each one when it first reaches
        it (see ``Registry.run``).
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
        if point.keys() != names:  # a keys view compares as a set
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
            lo, hi = p.lo, p.hi
            # a finite float inside both bounds passes every check below
            if (type(v) is float and lo is not None and hi is not None
                    and lo <= v <= hi and math.isfinite(v)):
                continue
            # a bool is an int, but no parameter reads True as 1: _finite_real
            # refuses it, and an int too large for a float
            if not (isinstance(v, (int, float)) and _finite_real(v)):
                raise ConstraintError(
                    f"{self.identity_id}: {p.name}={v!r} is not a finite number")
            if lo is not None and v < lo:
                raise ConstraintError(
                    f"{self.identity_id}: {p.name}={v!r} below {lo}")
            if hi is not None and v > hi:
                raise ConstraintError(
                    f"{self.identity_id}: {p.name}={v!r} above {hi}")
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


def _reports_at(identity: str, variants: Sequence[Variant], point: Mapping,
                values: tuple) -> list[ResidualReport]:
    """The rows of ``variants`` of record ``identity`` at one point, in
    ``variants`` order.

    ``values`` is what ``validate_point(point)`` returned; the caller
    validates.  Each distinct evaluator object (``v.lhs is w.lhs``) is
    called at most once per side, and every variant holding it gets its
    value, or its error note: ``lhs_seen`` and ``rhs_seen`` map
    id(evaluator) to what its call gave.  Only an ``EllidError`` becomes a
    note; any other exception propagates.  Only the note is kept: a kept
    exception would hold its traceback, whose frames hold the memo that
    holds the exception, a reference cycle per failed side.  A row's lhs
    and rhs never share a call, even when they are one object.  A failed
    side, lhs first, gives one INCONCLUSIVE row with its error note; a row
    whose lhs fails does not call its rhs.
    """
    lhs_seen, rhs_seen = {}, {}
    reports = []
    for v in variants:
        lhs = lhs_seen.get(id(v.lhs))
        if lhs is None:  # a side gives a SeriesResult: None is "not called yet"
            try:
                lhs = v.lhs(*values)
            except EllidError as exc:
                lhs = f"{type(exc).__name__}: {exc}"
            lhs_seen[id(v.lhs)] = lhs
        rhs = lhs if isinstance(lhs, str) else rhs_seen.get(id(v.rhs))
        if rhs is None:
            try:
                rhs = v.rhs(*values)
            except EllidError as exc:
                rhs = f"{type(exc).__name__}: {exc}"
            rhs_seen[id(v.rhs)] = rhs
        if isinstance(rhs, str):
            reports.append(_error_report(identity, v.variant_id, point, rhs))
            continue
        lv, rv = lhs.value, rhs.value
        abs_res = abs(lv - rv)
        rel_res = abs_res / max(1.0, abs(lv), abs(rv))
        reports.append(ResidualReport(
            identity, v.variant_id, dict(point), lv, rv,
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
# the registry itself

class Registry:
    """Immutable catalog of identity records plus the residual engine."""

    def __init__(self, records: Sequence[IdentityRecord]):
        self._records: dict[str, IdentityRecord] = {}
        # identity -> the plan of its default run: its grid_points(), their
        # validated values, and the indices of its rows in report order
        self._plans = {}
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

        Unknown ids and constraint violations raise; a side that raises an
        ``EllidError`` comes back as an INCONCLUSIVE report with a note.  It
        validates the point on every call, then evaluates as a run does at
        one point (``_reports_at``), for one variant.  No side result is
        shared with other calls, but ``_ke_at`` memoises (k, K, E) by ratio
        across calls.
        """
        record = self.get(identity_id)
        return _reports_at(identity_id, (record.variant(variant_id),), point,
                           record.validate_point(point))[0]

    def run(self, ids: Sequence[str] | None = None,
            grid: Mapping[str, Sequence] = {}) -> list[ResidualReport]:
        """Every variant of each record in ``ids`` (all records if None, each
        id once) at every point of ``grid_points(grid)``, in
        ``report_sort_key`` order: a function of ``ids`` and ``grid`` alone.

        Records run in the order given and points in product order.  A run
        validates each point when it reaches it, so an invalid point raises
        after the points before it were evaluated.  At a record's own grid
        only the first run does so, and it keeps the record's plan on the
        instance: its points, their validated values and the report order
        of its rows.  A ``grid`` override computes them on each run.
        Unknown ids and unknown ``grid`` names raise too.  At each point the
        variants share their sides (see ``_reports_at``), and every side is
        called at every point on every run.  No side result is kept from
        one point to the next, but ``_ke_at`` memoises (k, K, E) by ratio
        across points and runs.
        """
        records = (self.records() if ids is None
                   else [self.get(i) for i in dict.fromkeys(ids)])
        reports = {}
        for record in records:
            identity = record.identity_id
            points, values, order = (not grid and self._plans.get(identity)
                                     or (record.grid_points(grid), [], None))
            rows = []
            for i, point in enumerate(points):
                if i == len(values):  # not yet validated
                    values.append(record.validate_point(point))
                rows += _reports_at(identity, record.variants, point, values[i])
            if order is None:
                # a stable sort: rows with equal keys keep the order they were made in
                order = sorted(range(len(rows)), key=lambda e: report_sort_key(rows[e]))
                if not grid:
                    self._plans[identity] = points, values, order
            reports[identity] = [rows[e] for e in order]
        return [r for identity in sorted(reports) for r in reports[identity]]

    def run_all(self) -> list[ResidualReport]:
        """``run()``: the whole catalog at its own grids.  It stays a method
        of its own because the benchmark's catalog op calls it and its tracer
        spans it as ``registry.run_all``."""
        return self.run()


@functools.cache
def default_registry() -> Registry:
    from .catalog import build_registry  # the table imports this module
    return build_registry()
