"""Singular modulus: solve K(k')/K(k) = a for k, and derivative oracles.

The ratio K(k')/K(k) is strictly decreasing in k, so ``solve_k`` bisects
g(k) = log(K(k')/K(k)) - log max(a, 1/a) down to one ulp and keeps the end
with the smaller |g|, the exit midpoint on a tie.  Newton on k is avoided on
purpose: dK/dk stiffens badly as k -> 1.
The bisection is replayed rather than run: Jacobi's nome product for
k = theta2^2/theta3^2 places a narrow window around the root whose ends
have |g| above twice the rounding-error bound ``_G_ERROR``; a midpoint
outside the window has a sign that monotonicity already fixes, so g is
evaluated only inside it, and a step outside it only moves an end.  The
result, ``iterations`` and every refusal are those of the plain bisection,
from under a sixth of its AGMs.  The product only decides where g is
evaluated, never the result, and is written here rather than taken from
``ellid.theta``, whose sums the audited right-hand sides use.

For a < 1 the solver works on the reciprocal problem and complements, since
the direct root then sits within a few ulp of 1 where bisection loses all
resolution.  K(k')/K(k) itself is evaluated through the AGM pair

    K(k) = pi / (2 agm(1, k')),   K(k') = pi / (2 agm(1, k)),

which needs no complement subtraction at all.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .elliptic import (Convention, EllipticArgument, SINGULAR_CUTOFF,
                       _complement_parameter, _dK_from, _finite_real, _ke, agm)
from .errors import DomainError, NonConvergenceError, RangeError

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


# The bracket [1e-15, 0.75] that solve_k bisects, and K(k')/K(k) and its log
# at both ends: none of them depends on a, so each solve starts from a copy of
# the ratio map.  The logs are 3.130 and -0.057, so g = log(K(k')/K(k)) -
# log b brackets the root for every b in [1, 20] (log 20 = 2.996).
_BRACKET = (1e-15, 0.75)
_BRACKET_RATIO_AT = {k: _ratio_from_modulus(k) for k in _BRACKET}
_BRACKET_LOGS = tuple(math.log(_BRACKET_RATIO_AT[k]) for k in _BRACKET)

# Bound on the rounding error of the computed log(K(k')/K(k)) for k in the
# bracket [1e-15, 0.75]: 64 u (u = 2^-53).  Each AGM step adds at most about
# 1.5 u of relative error and none is amplified (the AGM is monotone and
# homogeneous of degree 1); agm(1, k) takes 9 steps at k = 1e-15.  The largest
# error seen against a 200-bit oracle is about 7 u.
_G_ERROR = 2.0 ** -47


def _window(g, b: float, lo: float, glo: float, hi: float,
            ghi: float) -> tuple[float, float, float, float]:
    """(wlo, g(wlo), whi, g(whi)) with lo <= wlo < whi <= hi around the root.

    g(wlo) > 2 eps and g(whi) < -2 eps, eps = ``_G_ERROR``.  The centre is
    the root in closed form, Jacobi's

        k = theta2^2/theta3^2 = 4 sqrt(q) prod_n ((1 + q^2n)/(1 + q^(2n-1)))^4

    at the nome q = exp(-pi b) (DLMF 22.2.2, 20.5.1-20.5.3), taken to
    v = log log(4/k); the product stops once its factors round to 1, after
    six at b = 1 and none from b ~ 12 on.  In v, g rises with slope at
    least 1 on the bracket (1.58 at b = 1, tending to 1 as k -> 0, where
    g ~ v + log(2/pi) - log b), and the computed centre is within 2e-15
    of the root for b in [1, 20], so g at v -+ 4 eps clears 2 eps on either
    side.  An end that does not clear leaves its side at the bracket end.
    """
    q = math.exp(-math.pi * b)
    k = 4.0 * math.sqrt(q)
    odd = q  # q^(2n-1); bound: b >= 1 gives q <= e^(-pi), so at most 6 steps
    while 1.0 + odd != 1.0:
        k *= ((1.0 + odd * q) / (1.0 + odd)) ** 4
        odd *= q * q
    centre = math.log(math.log(4.0 / k))
    half = 4.0 * _G_ERROR
    two_eps = 2.0 * _G_ERROR
    wlo, gwlo, whi, gwhi = lo, glo, hi, ghi
    for v in (centre - half, centre + half):
        k = 4.0 * math.exp(-math.exp(v))
        gk = g(k)
        if gk > two_eps and k > wlo:
            wlo, gwlo = k, gk
        elif gk < -two_eps and k < whi:
            whi, gwhi = k, gk
    return wlo, gwlo, whi, gwhi


def solve_k(a: float) -> SingularSolve:
    """Solve K(sqrt(1-k^2))/K(k) = a for the modulus k.

    Supported a-range is [0.05, 20]; inside it, values of a below roughly
    0.106 still have to be refused because the modulus they demand rounds
    into the singular band next to 1 in binary64.

    The result is the one a plain bisection of g(k) = log(K(k')/K(k)) -
    log b over [1e-15, 0.75] to one ulp gives, ``iterations`` included,
    ending on the end with the smaller |g| or, on a tie, on the exit
    midpoint.  But g is evaluated only at the midpoints that fall inside a
    narrow window around the root (see ``_window``).  With eps = ``_G_ERROR`` a
    bound on the rounding error of the computed log(K(k')/K(k)), the window
    ends have computed g(wlo) > 2 eps and g(whi) < -2 eps.  The exact g is
    strictly decreasing, so at every k < wlo it exceeds g(wlo) - eps > eps,
    and the computed g, within eps of it, is positive; likewise negative at
    every k > whi.  The bisection takes the same branch there without
    evaluating g: such a step moves lo or hi and counts its iteration, and
    the g at each end is the window end's until a step inside the window
    moves it.  The window is centred on the closed-form root k =
    theta2^2/theta3^2 at the nome exp(-pi b), so placing it costs two
    evaluations of g; where the centre lands decides only which points are
    evaluated, never the result.
    """
    # a float needs no _finite_real: the range test refuses NaN and +-inf
    if not (type(a) is float or _finite_real(a)) or not SOLVE_A_MIN <= a <= SOLVE_A_MAX:
        raise RangeError(f"solve_k supports a in [{SOLVE_A_MIN}, {SOLVE_A_MAX}], got {a!r}")

    # Work on b = max(a, 1/a) >= 1, whose root lies in (0, 1/sqrt(2)].
    b = a if a >= 1.0 else 1.0 / a
    target = math.log(b)
    ratio_at = _BRACKET_RATIO_AT.copy()

    def g(k: float) -> float:
        ratio = ratio_at[k] = _ratio_from_modulus(k)
        return math.log(ratio) - target

    lo, hi = _BRACKET
    iterations = 0
    wlo, glo, whi, ghi = _window(g, b, lo, _BRACKET_LOGS[0] - target,
                                 hi, _BRACKET_LOGS[1] - target)
    # Bisection to full binary64 resolution; g is strictly decreasing.  A
    # midpoint outside the window has the sign of the window end on its
    # side, so it moves lo or hi and nothing else.  The loop ends on two
    # adjacent floats around the root, so an end that no evaluated midpoint
    # set is the window end on its side: a midpoint below wlo or above whi
    # is never one of them, and a bracket end only when the window end did
    # not leave it.  glo and ghi therefore start at the window ends' g,
    # change only where g is evaluated, and are computed values at exit.
    # Bound: each pass halves [lo, hi]; a NaN g is neither > 0 nor < 0: exit.
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if mid <= wlo:
            lo = mid
        elif mid >= whi:
            hi = mid
        else:
            gm = g(mid)
            if gm > 0.0:
                lo, glo = mid, gm
            elif gm < 0.0:
                hi, ghi = mid, gm
            else:
                lo = hi = mid
                glo = ghi = gm
                break
    # k_b is the end with the smaller |g|.  On a tie, common because g takes
    # few distinct values next to the root, it is the exit midpoint: the end
    # with the even significand, where a secant step through both ends
    # lands, or lo = hi on an exact zero of g or a NaN.  A move from lo to
    # hi counts one iteration, the step's.
    if abs(glo) < abs(ghi):
        k_b = lo
    elif abs(ghi) < abs(glo):
        k_b = hi
    else:
        k_b = mid
        iterations += mid != lo

    ratio = ratio_at.get(k_b)
    if ratio is None:
        # Only a g whose rounding error exceeds _G_ERROR misplaces the
        # window so that the loop ends on a midpoint it never evaluated.
        raise NonConvergenceError(
            f"solve_k for a={a!r} ended on an unevaluated k={k_b!r}; the "
            f"computed g is off by more than _G_ERROR = {_G_ERROR!r}")
    if a >= 1.0:
        k = k_b
        residual = abs(ratio - a)
    else:
        k = math.sqrt((1.0 - k_b) * (1.0 + k_b))
        if k > SINGULAR_CUTOFF:
            raise RangeError(
                f"a={a!r} puts the modulus within {1.0 - k!r} of 1, beyond "
                f"binary64 resolution of the singular band")
        residual = abs(1.0 / ratio - a)
    return SingularSolve(a, EllipticArgument.from_modulus(k), iterations, residual)


def a_of_k(arg: EllipticArgument) -> float:
    """K(complement)/K(argument) under the argument's own convention."""
    if not 0.0 < arg.value < 1.0:
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

    try:
        d1 = central(h)
    except OverflowError:  # x + step, an int step too large for a float
        raise DomainError(f"dadk_fd step {step!r} does not fit in a float") from None
    d2 = central(0.5 * h)
    value = (4.0 * d2 - d1) / 3.0
    rounding_floor = 4.0 * 2.2e-16 * max(1.0, abs(f(x))) / h
    error = abs(d2 - d1) / 3.0 + rounding_floor
    return DerivativeEstimate(value, error)


def dadk_candidates(arg: EllipticArgument) -> dict[str, float]:
    """Closed-form candidates for da/d(argument), for comparison to dadk_fd.

    A mapping from name to value, read in the argument's own convention:
    "stated-formula" is ``_dadk_stated``, the derivative claim the registry
    audits, and "classical" is ``_dadk_classical``.
    """
    if not 0.05 <= arg.value <= 0.95:
        raise DomainError(f"dadk_candidates supports arguments in [0.05, 0.95], got {arg.value!r}")
    K, E = _ke(arg)
    return {"stated-formula": _dadk_stated(arg, K, E),
            "classical": _dadk_classical(arg, K, E)}


def _dadk_stated(arg: EllipticArgument, K: float, E: float) -> float:
    """The stated da/d(argument), (dK/darg)/(E K - K^2), from K and E there.

    E K - K^2 rounds to 0 where K and E agree to every bit or nearly (P8's
    m at r >~ 12.58); such a point is refused with a ``DomainError``.
    """
    denominator = E * K - K * K
    if denominator == 0.0:
        raise DomainError(f"E K - K^2 is 0 at {arg.convention.value} {arg.value!r} "
                          f"(E = {E!r}, K = {K!r})")
    return _dK_from(arg, K, E) / denominator


def _dadk_classical(arg: EllipticArgument, K: float, E: float) -> float:
    """The textbook da/d(argument): -pi/(2 k k'^2 K^2) for the modulus, the
    chain-ruled -pi/(4 m (1-m) K^2) for the parameter.  E is not used."""
    c = _complement_parameter(arg)
    if arg.convention is Convention.MODULUS:
        return -math.pi / (2.0 * arg.value * c * K * K)
    return -math.pi / (4.0 * arg.value * c * K * K)
