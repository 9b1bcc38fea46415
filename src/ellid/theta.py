"""Jacobi theta functions, their derivatives, and the q-products.

Series conventions (argument u real unless stated otherwise):

    theta2(z, q) = 2 sum_{n>=0} q^((n+1/2)^2) cos((2n+1) z)
    theta3(z, q) = 1 + 2 sum_{n>=1} q^(n^2) cos(2nz)
    theta4(u, q) = 1 + 2 sum_{n>=1} (-1)^n q^(n^2) cos(2nu)

``theta4_imag`` evaluates theta4 at a purely imaginary first argument it,
where cos(2n it) = cosh(2nt) and the value is real.  The log-derivative
engine differentiates the series termwise (finite differences are hopeless
in binary64 at the orders the audits need) and converts raw derivatives to
derivatives of the logarithm through the binomial recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .elliptic import Nome
from .errors import DomainError, NonConvergenceError, PoleError, UnsupportedOrderError
from .series import (DEFAULT_POLICY, SeriesResult, TruncationPolicy, kahan_add,
                     sum_series)

MAX_LOG_DERIVATIVE_ORDER = 12

# Below this fraction of the series scale a theta value counts as a pole for
# the purposes of log-derivatives.
POLE_THRESHOLD = 1e-8


@dataclass(frozen=True)
class LogThetaDerivative:
    order: int
    at: float
    nome: Nome
    value: float


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
    if qq == 0.0:
        return SeriesResult(0.0, 1, 0.0)

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
        if qq == 0.0:
            return 0.0

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
    sign_t = -1.0 if t < 0.0 else 1.0
    ta = abs(t)
    lq = math.log(qq)

    def term(n: int) -> tuple[float, float]:
        w = lq * n * n
        y = 2.0 * n * ta
        sh = 0.5 * (math.exp(w + y) - math.exp(w - y))
        env = 4.0 * n * 0.5 * (math.exp(w + y) + math.exp(w - y))
        sign = 4.0 if n % 2 else -4.0  # -4 * (-1)^n
        return sign * n * sh, env

    return sign_t * sum_series(term, policy, 1, 0.0, relative=True).value


# ---------------------------------------------------------------------------
# raw s-derivatives of the two theta builds the derivative identities need

def _theta4_imag_half_raw(s: float, q: Nome, order: int,
                          policy: TruncationPolicy) -> float:
    """d^order/ds^order of theta4(i s/2, q) = 1 + 2 sum (-1)^n q^(n^2) cosh(ns)."""
    qq = q.q
    if qq == 0.0:
        return 1.0 if order == 0 else 0.0
    lq = math.log(qq)
    even = order % 2 == 0

    def term(n: int) -> tuple[float, float]:
        w = lq * n * n
        y = n * s
        ay = abs(y)
        hyp = 0.5 * (math.exp(w + y) + math.exp(w - y)) if even \
            else 0.5 * (math.exp(w + y) - math.exp(w - y))
        env = 2.0 * float(n) ** order * 0.5 * (math.exp(w + ay) + math.exp(w - ay))
        sign = -1.0 if n % 2 else 1.0
        return 2.0 * sign * float(n) ** order * hyp, env

    initial = 1.0 if order == 0 else 0.0
    return sum_series(term, policy, 1, initial, relative=True).value


def _theta2_raw(s: float, q: Nome, order: int,
                policy: TruncationPolicy) -> float:
    """d^order/ds^order of theta2(s, q) by termwise differentiation."""
    qq = q.q
    if qq == 0.0:
        return 0.0
    phase = order % 4  # cos -> -sin -> -cos -> sin cycle

    def term(n: int) -> tuple[float, float]:
        m = 2 * n + 1
        amp = 2.0 * float(m) ** order * qq ** ((n + 0.5) ** 2)
        x = m * s
        if phase == 0:
            osc = math.cos(x)
        elif phase == 1:
            osc = -math.sin(x)
        elif phase == 2:
            osc = -math.cos(x)
        else:
            osc = math.sin(x)
        return amp * osc, amp

    return sum_series(term, policy, 0, 0.0, relative=True).value


def _series_scale(kind: ThetaKind, s: float, q: Nome,
                  policy: TruncationPolicy) -> float:
    """Absolute-value envelope of the order-0 series, for the pole test."""
    qq = q.q
    if qq == 0.0:
        return 1.0
    if kind is ThetaKind.THETA4_IMAG_HALF:
        lq = math.log(qq)

        def term(n: int) -> tuple[float, float]:
            w = lq * n * n
            y = abs(n * s)
            env = math.exp(w + y) + math.exp(w - y)
            return env, env

        return sum_series(term, policy, 1, 1.0, relative=True).value

    def term(n: int) -> tuple[float, float]:
        env = 2.0 * qq ** ((n + 0.5) ** 2)
        return env, env

    return sum_series(term, policy, 0, 0.0, relative=True).value


def log_theta_derivative(kind: ThetaKind, order: int, s: float, q: Nome,
                         policy: TruncationPolicy = DEFAULT_POLICY) -> LogThetaDerivative:
    """d^order/ds^order of log theta for the tagged series build.

    Raw derivatives come from termwise differentiation; log-derivatives
    follow from solving f^(n) = sum_j C(n-1, j) g^(j+1) f^(n-1-j) for
    g^(n), which is O(n^2) and stable for the supported orders.
    """
    if kind not in (ThetaKind.THETA2, ThetaKind.THETA4_IMAG_HALF):
        raise DomainError(f"log-derivative supports theta2/theta4-imag-half, got {kind!r}")
    if not isinstance(order, int) or order < 0:
        raise DomainError(f"order must be a nonnegative integer, got {order!r}")
    if order > MAX_LOG_DERIVATIVE_ORDER:
        raise UnsupportedOrderError(
            f"order {order} above the supported cap {MAX_LOG_DERIVATIVE_ORDER}")

    raw = _theta4_imag_half_raw if kind is ThetaKind.THETA4_IMAG_HALF else _theta2_raw
    f = [raw(s, q, j, policy) for j in range(order + 1)]
    scale = _series_scale(kind, s, q, policy)
    if f[0] <= 0.0 or abs(f[0]) < POLE_THRESHOLD * scale:
        raise PoleError(
            f"{kind.value} value {f[0]!r} at s={s!r} is too close to zero "
            f"(scale {scale!r}) for a log-derivative")

    if order == 0:
        return LogThetaDerivative(0, s, q, math.log(f[0]))

    g = [0.0] * (order + 1)  # g[j] holds d^j/ds^j log theta, j >= 1
    for n in range(1, order + 1):
        acc = f[n]
        for j in range(0, n - 1):
            acc -= math.comb(n - 1, j) * g[j + 1] * f[n - 1 - j]
        g[n] = acc / f[0]
    return LogThetaDerivative(order, s, q, g[order])


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
    for n in range(1, policy.cap + 1):
        logsum, comp = kahan_add(logsum, comp, math.log1p(-x))
        x_next = x * ratio
        tail = x_next / (1.0 - ratio)
        if tail <= policy.tolerance:
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
