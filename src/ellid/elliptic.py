"""Complete elliptic integrals via the arithmetic-geometric mean.

Two argument conventions coexist for K and E: the modulus k and the parameter
m = k^2, and the source material for the audited identities mixes them freely.
Every entry point therefore takes a tagged :class:`EllipticArgument`, so call
sites always say which convention they mean and nothing here guesses.  Its
tag is a :class:`Convention` member: a string tag is converted, any other is
refused, and a checked record refuses a bool.  Every formula that depends on
the tag takes the argument, and only ``_complement_parameter`` forms k'^2 = 1 - m.

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


def _finite_real(x) -> bool:
    """A finite real number, not a bool: the checked records' test of a value
    that their float shortcut does not take.  An int too large for a float is
    not one."""
    try:
        return not isinstance(x, bool) and math.isfinite(x)
    except (TypeError, OverflowError):
        return False


class _CheckedRecord:
    """Base of the records that validate in ``__new__``: ``_make`` and
    ``_replace`` build through it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _EllipticArgumentFields(NamedTuple):
    value: float
    convention: Convention


class EllipticArgument(_CheckedRecord, _EllipticArgumentFields):
    """A modulus-or-parameter value in [0, 1) with an explicit convention tag.

    The open interval near 1 (above ``SINGULAR_CUTOFF``) is rejected at
    construction.  The exact value 1.0 is admitted so that E(1) = 1 stays
    expressible; ellint_K still refuses it as singular.
    """

    __slots__ = ()

    def __new__(cls, value: float, convention: Convention) -> "EllipticArgument":
        # A float in [0, SINGULAR_CUTOFF] passes every check below, and a
        # member needs no conversion: both skip the work they would do.
        if type(value) is not float or not 0.0 <= value <= SINGULAR_CUTOFF:
            if not _finite_real(value):
                raise DomainError(f"elliptic argument must be finite, got {value!r}")
            if value < 0.0:
                raise DomainError(f"elliptic argument must be >= 0, got {value!r}")
            if value > 1.0:
                raise DomainError(f"elliptic argument must be <= 1, got {value!r}")
            if SINGULAR_CUTOFF < value < 1.0:
                raise SingularArgumentError(
                    f"elliptic argument {value!r} is inside the singular band "
                    f"({SINGULAR_CUTOFF!r}, 1.0)")
        if type(convention) is not Convention:
            try:
                convention = Convention(convention)
            except ValueError:
                raise DomainError(f"elliptic convention must be 'modulus' or "
                                  f"'parameter', got {convention!r}") from None
        return tuple.__new__(cls, (value, convention))

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
        """The complementary argument in this argument's own convention:
        k' = sqrt(1 - k^2) for a modulus, 1 - m for a parameter."""
        c = _complement_parameter(self)
        if self.convention is Convention.MODULUS:
            c = math.sqrt(c)
        return EllipticArgument(c, self.convention)


class _NomeFields(NamedTuple):
    q: float


class Nome(_CheckedRecord, _NomeFields):
    """A nome q in [0, 1).

    q = 0 is admitted as the empty-series degenerate case.
    """

    __slots__ = ()

    def __new__(cls, q: float) -> "Nome":
        # a float needs no _finite_real: the range test refuses NaN and inf
        if not (type(q) is float or _finite_real(q)) or not 0.0 <= q < 1.0:
            raise DomainError(f"nome must lie in [0, 1), got {q!r}")
        return tuple.__new__(cls, (q,))

    @classmethod
    def from_pi_exponent(cls, a: float) -> "Nome":
        """q = exp(-pi*a) for a > 0."""
        try:
            positive = a > 0.0
        except TypeError:  # not a number: refused as a NaN is
            positive = False
        if not positive:
            raise DomainError(f"pi-exponent must be positive, got {a!r}")
        try:
            q = math.exp(-math.pi * a)
        except OverflowError:  # an int too large for a float
            raise DomainError(f"pi-exponent {a!r} does not fit in a float") from None
        return cls(q)

    @classmethod
    def from_exponent(cls, c: float) -> "Nome":
        """q = exp(-c) for c > 0."""
        try:
            positive = c > 0.0
        except TypeError:  # not a number: refused as a NaN is
            positive = False
        if not positive:
            raise DomainError(f"exponent must be positive, got {c!r}")
        try:
            q = math.exp(-c)
        except OverflowError:  # an int too large for a float
            raise DomainError(f"exponent {c!r} does not fit in a float") from None
        return cls(q)


def agm(x: float, y: float) -> float:
    """Arithmetic-geometric mean of two positive reals.

    Iterates (a, b) <- ((a+b)/2, sqrt(a*b)) until |a-b| <= 4*eps*a.  The
    first iteration is symmetric in (x, y), so agm(x, y) == agm(y, x)
    bit for bit.
    """
    try:
        finite = math.isfinite(x) and math.isfinite(y)
    except (TypeError, OverflowError):  # not a number, or an int past float
        finite = False
    if not finite or x <= 0.0 or y <= 0.0:
        raise DomainError(f"agm requires positive finite inputs, got ({x!r}, {y!r})")
    a, b = x, y
    while abs(a - b) > 4.0 * _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def _complement_parameter(arg: EllipticArgument) -> float:
    """k'^2 = 1 - m, as (1-k)(1+k) for a modulus to keep accuracy near k = 1."""
    if arg.convention is Convention.MODULUS:
        k = arg.value
        return (1.0 - k) * (1.0 + k)
    return 1.0 - arg.value


def ellint_K(arg: EllipticArgument) -> float:
    """Complete elliptic integral of the first kind, K = pi / (2*agm(1, k'))."""
    return _ke(arg)[0]


def ellint_K_extended(m: float) -> float:
    """K as a function of the parameter for any m < 1, negative m included.

    Same AGM route as ellint_K; exists for audits of the descending
    transformation, whose transformed argument m/(m-1) is negative.
    """
    if not _finite_real(m) or m > SINGULAR_CUTOFF:
        raise SingularArgumentError(f"K is singular or undefined for parameter {m!r}")
    return math.pi / (2.0 * agm(1.0, math.sqrt(1.0 - m)))


def ellint_E(arg: EllipticArgument) -> float:
    """Complete elliptic integral of the second kind; E(1) = 1 exactly."""
    if arg.value == 1.0:
        return 1.0
    return _ke(arg)[1]


def _ke(arg: EllipticArgument) -> tuple[float, float]:
    """(K, E) from one AGM descent from (1, k'), the only loop for either.

    It is ``agm``'s update and stop test, so K = pi/(2 (a_N + b_N)/2) has
    ``agm``'s bits.  E = (pi/(2 a_N)) (1 - sum 2^(n-1) c_n^2), c_0 = k, c_n =
    (a_(n-1) - b_(n-1))/2, the sum compensated.  Refuses K's singular band.
    """
    if arg.value > SINGULAR_CUTOFF:
        raise SingularArgumentError(
            f"K is singular for {arg.convention.value} {arg.value!r}")
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
    return math.pi / (2.0 * (0.5 * (a + b))), (1.0 - total) * math.pi / (2.0 * a)


def dK(arg: EllipticArgument) -> float:
    """Derivative of K with respect to the argument in its own convention.

    Modulus:   dK/dk = (E - k'^2 K) / (k k'^2)
    Parameter: dK/dm = (E - (1-m) K) / (2 m (1-m))
    """
    if not 0.0 < arg.value < 1.0:
        raise DomainError(
            f"dK requires 0 < value < 1, got {arg.convention.value} {arg.value!r}")
    return _dK_from(arg, *_ke(arg))


def _dK_from(arg: EllipticArgument, K: float, E: float) -> float:
    """dK/dk or dK/dm, per the argument's convention, from K and E there."""
    c = _complement_parameter(arg)
    if arg.convention is Convention.MODULUS:
        return (E - c * K) / (arg.value * c)
    return (E - c * K) / (2.0 * arg.value * c)


def legendre_defect(arg: EllipticArgument) -> float:
    """E*K' + E'*K - K*K' - pi/2 with primes at the complementary argument.

    Identically zero in exact arithmetic; the returned magnitude is the
    implementation's own error and is used as a self-check oracle.
    """
    if not 0.0 < arg.value < 1.0:
        raise DomainError(
            f"legendre_defect requires 0 < value < 1, got {arg.value!r}")
    K, E = _ke(arg)
    Kc, Ec = _ke(arg.complement())
    return E * Kc + Ec * K - K * Kc - 0.5 * math.pi
