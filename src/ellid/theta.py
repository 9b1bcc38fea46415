"""Jacobi theta functions, their derivatives, and the q-products.

Series conventions (argument u real unless stated otherwise):

    theta2(z, q) = 2 sum_{n>=0} q^((n+1/2)^2) cos((2n+1) z)
    theta3(z, q) = 1 + 2 sum_{n>=1} q^(n^2) cos(2nz)
    theta4(u, q) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) cos(2nu)

``theta4_imag`` evaluates theta4 at a purely imaginary first argument it,
where cos(2n it) = cosh(2nt) and the value is real.  The log-derivative
engine differentiates the series termwise (finite differences are hopeless
in binary64 at the orders the audits need) and converts raw derivatives to
derivatives of the logarithm through the binomial recurrence.  One pass sums
every raw order up to the one asked for, and the pole-test scale; each keeps
its own stop state, so the values are those of separate ``sum_series``
passes, and the errors are ``sum_series``'s.  A polynomial-weighted sum of
log-derivatives (the registry's P11a and P12 sides) takes all its orders
from one pass at its top order.
"""

from __future__ import annotations

import math
from enum import Enum

from .elliptic import Nome
from .errors import DomainError, NonConvergenceError, PoleError, UnsupportedOrderError
from .series import (DEFAULT_POLICY, SeriesResult, TruncationPolicy,
                     _observed_tail, _odd, _summation_error, sum_series)

MAX_LOG_DERIVATIVE_ORDER = 12

# Below this fraction of the series scale a theta value counts as a pole for
# the purposes of log-derivatives.
POLE_THRESHOLD = 1e-8


def _finite_imag_argument(t: float) -> None:
    """Refuse a non-finite imaginary argument before summing.

    Its hyperbolic terms are inf or NaN, so no stop rule could fire and the
    sum would run to the cap; the error is the one the cap would give.  An
    int too large for a float is refused alike.
    """
    try:
        finite = math.isfinite(t)
    except OverflowError:  # an int too large for a float
        finite = False
    if not finite:
        raise NonConvergenceError(
            f"series cannot converge at the non-finite imaginary argument {t!r}")


class ThetaKind(str, Enum):
    THETA2 = "theta2"
    THETA4 = "theta4"
    # theta4(i s/2, q) as a real function of s; the scaling the derivative
    # identities use.
    THETA4_IMAG_HALF = "theta4-imag-half"


def theta4(u: float, q: Nome,
           policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """theta4 at real argument u."""
    qq = q.q

    def term(n: int) -> tuple[float, float]:
        env = 2.0 * qq ** (n * n)
        sign = -1.0 if n % 2 else 1.0
        return sign * env * math.cos(2.0 * n * u), env

    return sum_series(term, policy, 1, 1.0, relative=True)


def theta4_imag(t: float, q: Nome,
                policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """theta4 at the imaginary argument it: 1 + 2 sum (-1)^n q^(n^2) cosh(2nt).

    Even in t bit for bit (|t| is summed).  The terms may grow before the
    q^(n^2) factor takes over; the stop rule never fires on the growing side.
    """
    qq = q.q
    ta = abs(t)
    if qq == 0.0:
        return SeriesResult(1.0, 1, 0.0)
    _finite_imag_argument(t)
    lq = math.log(qq)

    def term(n: int) -> tuple[float, float]:
        w = lq * n * n
        y = 2.0 * n * ta
        env = math.exp(w + y) + math.exp(w - y)
        sign = -1.0 if n % 2 else 1.0
        return sign * env, env

    return sum_series(term, policy, 1, 1.0, relative=True)


def theta2(z: float, q: Nome,
           policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """theta2 at real argument z."""
    qq = q.q

    def term(n: int) -> tuple[float, float]:
        env = 2.0 * qq ** ((n + 0.5) ** 2)
        return env * math.cos((2 * n + 1) * z), env

    return sum_series(term, policy, 0, 0.0, relative=True)


def theta3(z: float, q: Nome,
           policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """theta3 at real argument z (all-positive signs)."""
    qq = q.q

    def term(n: int) -> tuple[float, float]:
        env = 2.0 * qq ** (n * n)
        return env * math.cos(2.0 * n * z), env

    return sum_series(term, policy, 1, 1.0, relative=True)


def theta_u_derivative(kind: ThetaKind, z: float, q: Nome,
                       policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """Termwise d/du of theta2 or theta4 at real argument z."""
    qq = q.q
    if kind is ThetaKind.THETA4:
        def term(n: int) -> tuple[float, float]:
            env = 4.0 * n * qq ** (n * n)
            sign = 1.0 if n % 2 else -1.0  # -4 * (-1)^n
            return sign * env * math.sin(2.0 * n * z), env

        return sum_series(term, policy, 1, 0.0, relative=True).value
    if kind is ThetaKind.THETA2:
        def term(n: int) -> tuple[float, float]:
            env = 2.0 * (2 * n + 1) * qq ** ((n + 0.5) ** 2)
            return -env * math.sin((2 * n + 1) * z), env

        return sum_series(term, policy, 0, 0.0, relative=True).value
    raise DomainError(f"u-derivative supports theta2/theta4, got {kind!r}")


def theta4_u_derivative_imag(t: float, q: Nome,
                             policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """The real series (d theta4/du)(it, q) / i = -4 sum (-1)^n n q^(n^2) sinh(2nt)."""
    qq = q.q
    if qq == 0.0:
        return 0.0
    _finite_imag_argument(t)
    ta = abs(t)
    lq = math.log(qq)

    def term(n: int) -> tuple[float, float]:
        w = lq * n * n
        y = 2.0 * n * ta
        ep = math.exp(w + y)
        em = math.exp(w - y)
        sh = 0.5 * (ep - em)
        env = 4.0 * n * 0.5 * (ep + em)
        sign = 4.0 if n % 2 else -4.0  # -4 * (-1)^n
        return sign * n * sh, env

    return _odd(t, sum_series(term, policy, 1, 0.0, relative=True)).value


def log_theta_derivative(kind: ThetaKind, order: int, s: float, q: Nome,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> float:
    """d^order/ds^order of log theta for the tagged series build.

    The builds are theta4(i s/2, q) = 1 + 2 sum (-1)^n q^(n^2) cosh(ns) and
    theta2(s, q).  Raw derivatives come from termwise differentiation;
    log-derivatives follow from solving f^(n) = sum_j C(n-1, j) g^(j+1)
    f^(n-1-j) for g^(n), which is O(n^2) and stable for the supported orders.
    """
    if kind not in (ThetaKind.THETA2, ThetaKind.THETA4_IMAG_HALF):
        raise DomainError(f"log-derivative supports theta2/theta4-imag-half, got {kind!r}")
    if isinstance(order, bool) or not isinstance(order, int) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_LOG_DERIVATIVE_ORDER:
        raise UnsupportedOrderError(
            f"order {order} above the supported cap {MAX_LOG_DERIVATIVE_ORDER}")
    return _log_theta_pass(kind, order, s, q, policy)[order]


def _log_theta_pass(kind: ThetaKind, top: int, s: float, q: Nome,
                    policy: TruncationPolicy) -> list[float]:
    """[d^j/ds^j log theta for j = 0..top] from one pass over n.

    The pass feeds top+2 accumulators: the raw derivatives of orders 0..top
    and the absolute-value envelope of the order-0 series, the scale of the
    pole test.  Each n's exponentials (or q-power, cosine and sine) are
    computed once.  Each accumulator keeps the Kahan state and stop rule of
    ``sum_series(..., relative=True)``, whose docstring states the rule and
    whose ``_observed_tail`` it calls, and freezes when its own rule fires,
    so every value has the bits a separate pass would give, and so does
    g^(j), which depends only on f^(0..j).

    Errors are ``sum_series``'s: a term that cannot be evaluated raises at
    once, and a pass that misses the stop rule within the cap raises
    ``NonConvergenceError`` naming its first unfinished accumulator, in the
    order raw 0..top, then scale.  Only a finished pass meets the pole test.
    The theta4 build refuses a non-finite s before the pass, as
    ``theta4_imag`` does.
    """
    imag = kind is ThetaKind.THETA4_IMAG_HALF
    qq = q.q
    last = top + 1  # index of the scale accumulator
    sums = [0.0] * (top + 2)
    if imag:
        sums[0] = sums[last] = 1.0  # theta4's constant term
    if qq == 0.0:
        sums[last] = 1.0  # no series to sum; the pole test sees scale 1
    else:
        if imag:
            _finite_imag_argument(s)
        lq = math.log(qq) if imag else 0.0
        tol = policy.tolerance
        comps = [0.0] * (top + 2)
        prevs = [math.inf] * (top + 2)
        active = list(range(top + 2))  # accumulators whose stop rule has not fired
        start = 1 if imag else 0
        for n in range(start, start + policy.cap):
            try:
                if imag:
                    fn = float(n)
                    w = lq * n * n
                    y = n * s
                    ep = math.exp(w + y)
                    em = math.exp(w - y)
                    esum = ep + em  # also e^(w+|y|) + e^(w-|y|)
                    hyp = (0.5 * esum, 0.5 * (ep - em))
                    sign = -2.0 if n % 2 else 2.0
                else:
                    fn = float(2 * n + 1)
                    qn = qq ** ((n + 0.5) ** 2)
                    x = fn * s
                    c = math.cos(x)
                    sn = math.sin(x)
                    osc = (c, -sn, -c, sn)  # d/ds cycles cos -> -sin -> -cos -> sin
            except (OverflowError, ValueError, ZeroDivisionError) as exc:  # e.g. cos(inf)
                raise _summation_error(n, exc) from None
            still = []
            for j in active:
                if j == last:
                    term = env = esum if imag else 2.0 * qn
                elif imag:
                    p = fn ** j
                    term = sign * p * hyp[j % 2]
                    env = p * esum  # 2 n^j cosh, with the 2 and 1/2 cancelled exactly
                else:
                    env = 2.0 * fn ** j * qn
                    term = env * osc[j % 4]
                # sum_series(relative=True): Kahan step, then its stop rule
                total = sums[j]
                yk = term - comps[j]
                t = total + yk
                comps[j] = (t - total) - yk
                sums[j] = t
                if env == 0.0:
                    continue
                if ((env < tol or env < tol * abs(t))  # tol * max(1, |t|)
                        and _observed_tail(env, prevs[j], 1.0, tol) is not None):
                    continue
                prevs[j] = env
                still.append(j)
            active = still
            if not active:
                break
        if active:
            raise _summation_error(policy.cap, last_envelope=prevs[active[0]])

    f0 = sums[0]
    scale = sums[last]
    if f0 <= 0.0 or abs(f0) < POLE_THRESHOLD * scale:
        raise PoleError(
            f"{kind.value} value {f0!r} at s={s!r} is too close to zero "
            f"(scale {scale!r}) for a log-derivative")

    g = [math.log(f0)] + [0.0] * top  # g[j] holds d^j/ds^j log theta
    for n in range(1, top + 1):
        acc = sums[n]
        for j in range(0, n - 1):
            acc -= math.comb(n - 1, j) * g[j + 1] * sums[n - 1 - j]
        g[n] = acc / f0
    return g


# ---------------------------------------------------------------------------
# q-products

def _log_product(ratio: float, policy: TruncationPolicy) -> SeriesResult:
    """prod_{n>=1} (1 - ratio^n), accumulated as sum log1p(-ratio^n).

    The dropped log-tail is bounded by ratio^(N+1)/(1 - ratio), which is also
    the reported tail bound (relative, and to first order absolute, error of
    the product).
    """
    logsum = 0.0
    comp = 0.0
    x = ratio
    tol = policy.tolerance
    for n in range(1, policy.cap + 1):
        y = math.log1p(-x) - comp  # one Kahan step
        t = logsum + y
        comp = (t - logsum) - y
        logsum = t
        x_next = x * ratio
        # 0 <= ratio < 1, so the tail is at least x_next: test that first.
        if x_next <= tol:
            tail = x_next / (1.0 - ratio)
            if tail <= tol:
                return SeriesResult(math.exp(logsum), n, tail)
        x = x_next
    raise NonConvergenceError(f"q-product did not converge within cap={policy.cap}")


def q_product_P0(q: Nome,
                 policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """prod (1 - q^(2n)); the log-product with ratio q^2."""
    return _log_product(q.q * q.q, policy)


def euler_product(q: Nome,
                  policy: TruncationPolicy = DEFAULT_POLICY) -> SeriesResult:
    """prod (1 - q^n); the log-product with ratio q."""
    return _log_product(q.q, policy)
