"""Complete elliptic integrals via the arithmetic-geometric mean.

Two argument conventions coexist for K and E: the modulus k and the parameter
m = k^2, and the source material for the audited identities mixes them freely.
Every entry point therefore takes a tagged :class:`EllipticArgument`, so call
sites always say which convention they mean and nothing here guesses.

All functions are pure, binary64 only, and safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import DomainError, SingularArgumentError

_EPS = sys.float_info.epsilon

# K(k) diverges logarithmically as k -> 1; past this cutoff a binary64 value
# of K carries no meaning.
SINGULAR_CUTOFF = 1.0 - 1e-12


class Convention(str, Enum):
    MODULUS = "modulus"      # argument is k
    PARAMETER = "parameter"  # argument is m = k^2


class _EllipticArgumentFields(NamedTuple):
    value: float
    convention: Convention


class EllipticArgument(_EllipticArgumentFields):
    """A modulus-or-parameter value in [0, 1) with an explicit convention tag.

    The open interval near 1 (above ``SINGULAR_CUTOFF``) is rejected at
    construction.  The exact value 1.0 is admitted so that E(1) = 1 stays
    expressible; ellint_K still refuses it as singular.
    """

    __slots__ = ()

    def __new__(cls, value: float, convention: Convention) -> "EllipticArgument":
        v = value
        if not math.isfinite(v):
            raise DomainError(f"elliptic argument must be finite, got {v!r}")
        if v < 0.0:
            raise DomainError(f"elliptic argument must be >= 0, got {v!r}")
        if v > 1.0:
            raise DomainError(f"elliptic argument must be <= 1, got {v!r}")
        if SINGULAR_CUTOFF < v < 1.0:
            raise SingularArgumentError(
                f"elliptic argument {v!r} is inside the singular band "
                f"({SINGULAR_CUTOFF!r}, 1.0)")
        return tuple.__new__(cls, (value, convention))

    @classmethod
    def _make(cls, iterable) -> "EllipticArgument":
        """Built through ``__new__``, so ``_replace`` validates too."""
        return cls(*iterable)

    @classmethod
    def from_modulus(cls, k: float) -> "EllipticArgument":
        return cls(k, Convention.MODULUS)

    @classmethod
    def from_parameter(cls, m: float) -> "EllipticArgument":
        return cls(m, Convention.PARAMETER)

    @property
    def k(self) -> float:
        """The modulus, whichever convention the value was given in."""
        if self.convention is Convention.MODULUS:
            return self.value
        return math.sqrt(self.value)

    @property
    def m(self) -> float:
        """The parameter m = k^2."""
        if self.convention is Convention.PARAMETER:
            return self.value
        return self.value * self.value

    def complement(self) -> "EllipticArgument":
        """The complementary argument in this argument's own convention.

        Modulus: k' = sqrt(1 - k^2), formed as sqrt((1-k)(1+k)) to keep
        accuracy near k = 1.  Parameter: 1 - m.
        """
        v = self.value
        if self.convention is Convention.MODULUS:
            return EllipticArgument(math.sqrt((1.0 - v) * (1.0 + v)), self.convention)
        return EllipticArgument(1.0 - v, self.convention)


class _NomeFields(NamedTuple):
    q: float


class Nome(_NomeFields):
    """A nome q in [0, 1).

    q = 0 is admitted as the empty-series degenerate case.
    """

    __slots__ = ()

    def __new__(cls, q: float) -> "Nome":
        if not math.isfinite(q) or not 0.0 <= q < 1.0:
            raise DomainError(f"nome must lie in [0, 1), got {q!r}")
        return tuple.__new__(cls, (q,))

    @classmethod
    def _make(cls, iterable) -> "Nome":
        """Built through ``__new__``, so ``_replace`` validates too."""
        return cls(*iterable)

    @classmethod
    def from_pi_exponent(cls, a: float) -> "Nome":
        """q = exp(-pi*a) for a > 0."""
        if not a > 0.0:
            raise DomainError(f"pi-exponent must be positive, got {a!r}")
        return cls(math.exp(-math.pi * a))

    @classmethod
    def from_exponent(cls, c: float) -> "Nome":
        """q = exp(-c) for c > 0."""
        if not c > 0.0:
            raise DomainError(f"exponent must be positive, got {c!r}")
        return cls(math.exp(-c))


def agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive reals.

    Iterates (a, b) <- ((a+b)/2, sqrt(a*b)) until |a-b| <= 4*eps*a.  The
    first iteration is symmetric in (x, y), so agm(x, y) == agm(y, x)
    bit for bit.
    """
    if not (math.isfinite(x) and math.isfinite(y)) or x <= 0.0 or y <= 0.0:
        raise DomainError(f"agm requires positive finite inputs, got ({x!r}, {y!r})")
    a, b = x, y
    while abs(a - b) > 4.0 * _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _complement_parameter(arg: EllipticArgument) -> float:
    """1 - m computed without forming m when the tag is a modulus."""
    if arg.convention is Convention.MODULUS:
        k = arg.value
        return (1.0 - k) * (1.0 + k)
    return 1.0 - arg.value


def ellint_K(arg: EllipticArgument) -> float:
    """Complete elliptic integral of the first kind, K = pi / (2*agm(1, k'))."""
    if arg.value > SINGULAR_CUTOFF:
        raise SingularArgumentError(
            f"K is singular for {arg.convention.value} {arg.value!r}")
    kprime = math.sqrt(_complement_parameter(arg))
    return math.pi / (2.0 * agm(1.0, kprime))


def ellint_K_extended(m: float) -> float:
    """K as a function of the parameter for any m < 1, negative m included.

    Same AGM route as ellint_K; exists for audits of the descending
    transformation, whose transformed argument m/(m-1) is negative.
    """
    if not math.isfinite(m) or m > SINGULAR_CUTOFF:
        raise SingularArgumentError(f"K is singular or undefined for parameter {m!r}")
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - m)))


def ellint_E(arg: EllipticArgument) -> float:
    """Complete elliptic integral of the second kind.

    AGM descent with the correction sum E = K * (1 - sum 2^(n-1) c_n^2),
    c_0 = k, c_n = (a_(n-1) - b_(n-1))/2; the sum is accumulated in
    compensated form.  E(1) = 1 is returned directly.
    """
    if arg.value == 1.0:
        return 1.0
    if arg.value > SINGULAR_CUTOFF:
        raise SingularArgumentError(
            f"E rejects the singular band near 1 ({arg.convention.value} {arg.value!r})")
    k = arg.k
    a, b = 1.0, math.sqrt(_complement_parameter(arg))
    total = 0.5 * k * k
    comp = 0.0
    pow2 = 0.5
    while abs(a - b) > 4.0 * _EPS * a:
        c = 0.5 * (a - b)
        pow2 *= 2.0
        term = pow2 * c * c
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return (1.0 - total) * math.pi / (2.0 * a)


def dK(arg: EllipticArgument) -> float:
    """Derivative of K with respect to the argument in its own convention.

    Modulus:   dK/dk = (E - k'^2 K) / (k k'^2)
    Parameter: dK/dm = (E - (1-m) K) / (2 m (1-m))
    """
    if not 0.0 < arg.value < 1.0 or arg.value > SINGULAR_CUTOFF:
        raise DomainError(
            f"dK requires 0 < value < 1, got {arg.convention.value} {arg.value!r}")
    return _dK_from(arg.value, arg.convention, ellint_K(arg), ellint_E(arg))


def _dK_from(value: float, convention: Convention, K: float, E: float) -> float:
    """dK/dk or dK/dm, per ``convention``, at ``value`` from K and E there."""
    if convention is Convention.MODULUS:
        kp2 = (1.0 - value) * (1.0 + value)
        return (E - kp2 * K) / (value * kp2)
    return (E - (1.0 - value) * K) / (2.0 * value * (1.0 - value))


def legendre_defect(arg: EllipticArgument) -> float:
    """E*K' + E'*K - K*K' - pi/2 with primes at the complementary argument.

    Identically zero in exact arithmetic; the returned magnitude is the
    implementation's own error and is used as a self-check oracle.
    """
    if not 0.0 < arg.value < 1.0 or arg.value > SINGULAR_CUTOFF:
        raise DomainError(
            f"legendre_defect requires 0 < value < 1, got {arg.value!r}")
    comp = arg.complement()
    K = ellint_K(arg)
    E = ellint_E(arg)
    Kc = ellint_K(comp)
    Ec = ellint_E(comp)
    return E * Kc + Ec * K - K * Kc - 0.5 * math.pi
