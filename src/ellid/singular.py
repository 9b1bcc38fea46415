"""Singular modulus: solve K(k')/K(k) = a for k, and derivative oracles.

The ratio K(k')/K(k) is strictly decreasing in k, so ``solve_k`` bisects
g(k) = log(K(k')/K(k)) - log max(a, 1/a) down to one ulp and polishes with
secant steps.  Newton on k is avoided on purpose: dK/dk stiffens badly as
k -> 1.
The bisection is replayed rather than run: a secant estimate of the root,
made from g alone, places a narrow window whose ends have |g| above twice
the rounding-error bound ``_G_ERROR``; a midpoint outside the window has a
sign that monotonicity already fixes, so g is evaluated only inside it.
The result, ``iterations`` and every refusal are those of the plain
bisection, from under a quarter of its AGMs.  The estimate does not start
from the theta inversion k = theta2^2/theta3^2, which would tie the solver
to the theta code that the audited right-hand sides are checked against.

For a < 1 the solver works on the reciprocal problem and complements, since
the direct root then sits within a few ulp of 1 where bisection loses all
resolution.  K(k')/K(k) itself is evaluated through the AGM pair

    K(k) = pi / (2 agm(1, k')),   K(k') = pi / (2 agm(1, k)),

which needs no complement subtraction at all.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .elliptic import (Convention, EllipticArgument, SINGULAR_CUTOFF, _dK_from,
                       agm, ellint_E, ellint_K)
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
# at both ends: none of them depends on a.
_BRACKET = (1e-15, 0.75)
_BRACKET_RATIOS = tuple(_ratio_from_modulus(k) for k in _BRACKET)
_BRACKET_LOGS = tuple(math.log(r) for r in _BRACKET_RATIOS)

# Bound on the rounding error of the computed log(K(k')/K(k)) for k in the
# bracket [1e-15, 0.75]: 64 u (u = 2^-53).  Each AGM step adds at most about
# 1.5 u of relative error and none is amplified (the AGM is monotone and
# homogeneous of degree 1); agm(1, k) takes 9 steps at k = 1e-15.  The largest
# error seen against a 200-bit oracle is about 7 u.
_G_ERROR = 2.0 ** -47

# The root estimate stops once |g| is this small.  Near the root the secant
# error shrinks superlinearly, so its next prediction, used unevaluated as
# the window centre, is then close enough: over 120000 fuzzed solves every
# window came out narrower than 2e-12 relative, where a tolerance of 2^-20
# left one window in eight wide.
_ESTIMATE_TOL = 2.0 ** -36
_ESTIMATE_STEPS = 8


def _window(g, lo: float, glo: float, hi: float,
            ghi: float) -> tuple[float, float, float, float]:
    """(wlo, g(wlo), whi, g(whi)) with lo <= wlo < whi <= hi around the root.

    g(wlo) > 2 eps and g(whi) < -2 eps, eps = ``_G_ERROR``.  The bracket ends
    qualify, and every evaluation that clears 2 eps tightens its side, so
    a step that misses leaves that side at an earlier point, at worst the
    bracket end.  The estimate is a bisection-safeguarded secant in
    v = log log(4/k), where g rises almost linearly (g ~ v + log(2/pi) -
    log b as k -> 0); two evaluations 4 eps/g'(v) either side of its last
    prediction then make the window.
    """
    two_eps = 2.0 * _G_ERROR
    wlo, gwlo, whi, gwhi = lo, glo, hi, ghi

    def at(v: float) -> float:
        nonlocal wlo, gwlo, whi, gwhi
        k = 4.0 * math.exp(-math.exp(v))
        gk = g(k)
        if gk > two_eps and k > wlo:
            wlo, gwlo = k, gk
        elif gk < -two_eps and k < whi:
            whi, gwhi = k, gk
        return gk

    vlo, vhi = math.log(math.log(4.0 / hi)), math.log(math.log(4.0 / lo))
    vmin, vmax = vlo, vhi
    va, fa, vb, fb = vlo, ghi, vhi, glo
    for _ in range(_ESTIMATE_STEPS):
        v = 0.5 * (vmin + vmax)
        if fb != fa:
            secant = vb - fb * (vb - va) / (fb - fa)
            if vmin < secant < vmax:
                v = secant
        fv = at(v)
        if fv > 0.0:
            vmax = v
        else:
            vmin = v
        va, fa, vb, fb = vb, fb, v, fv
        if abs(fv) <= _ESTIMATE_TOL:
            break
    slope = (fb - fa) / (vb - va)
    if slope > 0.0:
        centre = vb - fb / slope
        half = 4.0 * _G_ERROR / slope
        if vlo < centre - half and centre + half < vhi:
            at(centre - half)
            at(centre + half)
    return wlo, gwlo, whi, gwhi


def solve_k(a: float) -> SingularSolve:
    """Solve K(sqrt(1-k^2))/K(k) = a for the modulus k.

    Supported a-range is [0.05, 20]; inside it, values of a below roughly
    0.106 still have to be refused because the modulus they demand rounds
    into the singular band next to 1 in binary64.

    The result is the one a plain bisection of g(k) = log(K(k')/K(k)) -
    log b over [1e-15, 0.75] to one ulp gives, ``iterations`` included,
    but g is evaluated only at the midpoints that fall inside a narrow
    window around the root (see ``_window``).  With eps = ``_G_ERROR`` a
    bound on the rounding error of the computed log(K(k')/K(k)), the window
    ends have computed g(wlo) > 2 eps and g(whi) < -2 eps.  The exact g is
    strictly decreasing, so at every k < wlo it exceeds g(wlo) - eps > eps,
    and the computed g, within eps of it, is positive; likewise negative at
    every k > whi.  The bisection takes the same branch there without
    evaluating g.  The estimate that places the window uses only g itself,
    never the theta inversion k = theta2^2/theta3^2, which would tie the
    solver to the theta code that the audited right-hand sides are checked
    against.
    """
    if not math.isfinite(a) or not SOLVE_A_MIN <= a <= SOLVE_A_MAX:
        raise RangeError(f"solve_k supports a in [{SOLVE_A_MIN}, {SOLVE_A_MAX}], got {a!r}")

    # Work on b = max(a, 1/a) >= 1, whose root lies in (0, 1/sqrt(2)].
    b = a if a >= 1.0 else 1.0 / a
    target = math.log(b)
    ratio_at = dict(zip(_BRACKET, _BRACKET_RATIOS))

    def g(k: float) -> float:
        ratio = ratio_at[k] = _ratio_from_modulus(k)
        return math.log(ratio) - target

    lo, hi = _BRACKET
    iterations = 0
    glo = _BRACKET_LOGS[0] - target
    ghi = _BRACKET_LOGS[1] - target
    if not (glo > 0.0 > ghi):
        raise RangeError(f"solve_k bracket failed for a={a!r}")
    wlo, gwlo, whi, gwhi = _window(g, lo, glo, hi, ghi)
    # Bisection to full binary64 resolution; g is strictly decreasing.  A
    # midpoint outside the window takes the value of the window end on its
    # side, which has the right sign.  The loop ends on two adjacent floats,
    # and a midpoint below wlo or above whi is never one of them unless it
    # is the window end itself, so glo and ghi are computed values at exit.
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        iterations += 1
        if mid <= wlo:
            gm = gwlo
        elif mid >= whi:
            gm = gwhi
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
    # Secant polish.  lo and hi are adjacent floats, so the step can only
    # land on one of them.  It changes the result on a tie |g(lo)| ==
    # |g(hi)|, which is common because g takes few distinct values next to
    # the root: the step then lands on the half-way point, which rounds to
    # even and can move k from lo to hi.  Over 20000 draws of a it stepped
    # in 1094 solves, each a tie, and moved k_b every time.
    k_b, gk = (lo, glo) if abs(glo) <= abs(ghi) else (hi, ghi)
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


def dadk_candidates(arg: EllipticArgument) -> dict[str, float]:
    """Closed-form candidates for da/d(argument), for comparison to dadk_fd.

    A mapping from name to value, read in the argument's own convention:
    "stated-formula" is ``_dadk_stated``, the derivative claim the registry
    audits, and "classical" is ``_dadk_classical``.
    """
    if not 0.05 <= arg.value <= 0.95:
        raise DomainError(f"dadk_candidates supports arguments in [0.05, 0.95], got {arg.value!r}")
    K = ellint_K(arg)
    E = ellint_E(arg)
    return {"stated-formula": _dadk_stated(arg.value, arg.convention, K, E),
            "classical": _dadk_classical(arg.value, arg.convention, K, E)}


def _dadk_stated(value: float, convention: Convention, K: float, E: float) -> float:
    """The stated da/d(argument), (dK/darg)/(E K - K^2), from K and E there."""
    return _dK_from(value, convention, K, E) / (E * K - K * K)


def _dadk_classical(value: float, convention: Convention, K: float, E: float) -> float:
    """The textbook da/d(argument): -pi/(2 k k'^2 K^2) for the modulus, the
    chain-ruled -pi/(4 m (1-m) K^2) for the parameter.  E is not used."""
    if convention is Convention.MODULUS:
        kp2 = (1.0 - value) * (1.0 + value)
        return -math.pi / (2.0 * value * kp2 * K * K)
    return -math.pi / (4.0 * value * (1.0 - value) * K * K)
