"""Singular modulus: solve K(k')/K(k) = a for k, and derivative oracles.

The ratio K(k')/K(k) is strictly decreasing in k, so ``solve_k`` brackets the
root by bisection and polishes with secant steps.  Newton on k is avoided on
purpose: dK/dk stiffens badly as k -> 1.

For a < 1 the solver works on the reciprocal problem and complements, since
the direct root then sits within a few ulp of 1 where bisection loses all
resolution.  K(k')/K(k) itself is evaluated through the AGM pair

    K(k) = pi / (2 agm(1, k')),   K(k') = pi / (2 agm(1, k)),

which needs no complement subtraction at all.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .elliptic import (Convention, EllipticArgument, SINGULAR_CUTOFF, agm,
                       ellint_E, ellint_K)
from .errors import DomainError, RangeError

SOLVE_A_MIN = 0.05
SOLVE_A_MAX = 20.0


class SingularSolve(NamedTuple):
    a: float
    k: EllipticArgument  # modulus convention
    iterations: int
    residual: float


class DerivativeEstimate(NamedTuple):
    value: float
    error_estimate: float


def _ratio_from_modulus(k: float) -> float:
    """K(k')/K(k) = agm(1, k') / agm(1, k) for 0 < k < 1."""
    kprime = math.sqrt((1.0 - k) * (1.0 + k))
    return agm(1.0, kprime) / agm(1.0, k)


def solve_k(a: float) -> SingularSolve:
    """Solve K(sqrt(1-k^2))/K(k) = a for the modulus k.

    Supported a-range is [0.05, 20]; inside it, values of a below roughly
    0.106 still have to be refused because the modulus they demand rounds
    into the singular band next to 1 in binary64.
    """
    if not math.isfinite(a) or not SOLVE_A_MIN <= a <= SOLVE_A_MAX:
        raise RangeError(f"solve_k supports a in [{SOLVE_A_MIN}, {SOLVE_A_MAX}], got {a!r}")

    # Work on b = max(a, 1/a) >= 1, whose root lies in (0, 1/sqrt(2)].
    b = a if a >= 1.0 else 1.0 / a
    target = math.log(b)

    def g(k: float) -> float:
        return math.log(_ratio_from_modulus(k)) - target

    lo, hi = 1e-15, 0.75
    iterations = 0
    glo = g(lo)
    ghi = g(hi)
    if not (glo > 0.0 > ghi):
        raise RangeError(f"solve_k bracket failed for a={a!r}")
    # Bisection to full binary64 resolution; g is strictly decreasing.
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
    # Secant polish; with the bracket already exhausted this only ever picks
    # the better endpoint, but it keeps the contract explicit.
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


def a_of_k(arg: EllipticArgument) -> float:
    """K(complement)/K(argument) under the argument's own convention."""
    if not 0.0 < arg.value < 1.0 or arg.value > SINGULAR_CUTOFF:
        raise DomainError(f"a_of_k requires 0 < value < 1, got {arg.value!r}")
    k = arg.k
    return _ratio_from_modulus(k)


def dadk_fd(arg: EllipticArgument, step: float = 1e-4) -> DerivativeEstimate:
    """Richardson-extrapolated central difference of a_of_k.

    The two-step Neville combination (4 D(h/2) - D(h))/3 cancels the h^2
    term; the reported error estimate is the extrapolation difference plus
    a rounding floor eps/h.
    """
    if not 0.05 <= arg.value <= 0.95:
        raise DomainError(f"dadk_fd supports arguments in [0.05, 0.95], got {arg.value!r}")
    conv = arg.convention

    def f(x: float) -> float:
        return a_of_k(EllipticArgument(x, conv))

    x = arg.value
    h = step

    def central(hh: float) -> float:
        return (f(x + hh) - f(x - hh)) / (2.0 * hh)

    d1 = central(h)
    d2 = central(0.5 * h)
    value = (4.0 * d2 - d1) / 3.0
    rounding_floor = 4.0 * 2.2e-16 * max(1.0, abs(f(x))) / h
    error = abs(d2 - d1) / 3.0 + rounding_floor
    return DerivativeEstimate(value, error)


def dadk_candidates(arg: EllipticArgument) -> list[tuple[str, float]]:
    """Closed-form candidates for da/d(argument), for comparison to dadk_fd.

    "stated-formula" is (dK/darg)/(E K - K^2) read in the argument's own
    convention, the derivative claim the registry audits; "classical" is the
    textbook derivative of the period ratio, -pi/(2 k k'^2 K^2) in the
    modulus convention and the chain-ruled -pi/(4 m (1-m) K^2) in the
    parameter convention.
    """
    if not 0.05 <= arg.value <= 0.95:
        raise DomainError(f"dadk_candidates supports arguments in [0.05, 0.95], got {arg.value!r}")
    K = ellint_K(arg)
    E = ellint_E(arg)
    if arg.convention is Convention.MODULUS:
        k = arg.value
        kp2 = (1.0 - k) * (1.0 + k)
        stated = ((E - kp2 * K) / (k * kp2)) / (E * K - K * K)
        classical = -math.pi / (2.0 * k * kp2 * K * K)
    else:
        m = arg.value
        stated = ((E - (1.0 - m) * K) / (2.0 * m * (1.0 - m))) / (E * K - K * K)
        classical = -math.pi / (4.0 * m * (1.0 - m) * K * K)
    return [("stated-formula", stated), ("classical", classical)]
