"""50-digit reference values of both sides of the audited records.

Each side is evaluated from its printed formula with mpmath alone: direct
summation of the series, ``jtheta`` and its derivatives for the theta
functions, ``qp`` for the q-product, ``ellipk`` and ``ellipe`` for the
integrals, ``diff`` for dK/dm and for the derivative of the period ratio,
and ``zeta`` for the zeta heads.  The singular modulus comes from the theta
inversion m = (theta2(0, q) / theta3(0, q))^4 at q = e^(-pi a); the
inversion is not a side, so it may use theta functions that a right side is
checked against.  Nothing here calls ellid, so the true residual of a row
says whether the class binary64 gave it is the one its identity deserves.
A side that is undefined at a row is NaN, and so is the row's residual.
"""

import math

import mpmath
from mpmath import mpf

DIGITS = 50


def _series(term):
    """sum term(n) for n >= 1, to well below DIGITS digits of an O(1) value."""
    total = mpf(0)
    small = mpf(10) ** -(DIGITS + 10)
    for n in range(1, 100000):
        t = term(n)
        total += t
        if abs(t) < small and n > 3:
            return total
    raise ArithmeticError("oracle series did not converge")


def _kem(a):
    """(K, E, m) at the singular modulus for the period ratio K'/K = a."""
    q = mpmath.exp(-mpmath.pi * a)
    m = (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4
    return mpmath.ellipk(m), mpmath.ellipe(m), m


def _bilateral(term):
    """sum term(n) over n != 0."""
    return _series(lambda n: term(n) + term(-n))


def _log_jtheta(order, kind, z, q, dz=1):
    """d^order/ds^order log jtheta(kind, z, q), where z moves by dz per unit s.

    From the derivatives d_j of f = jtheta: with h = log f, f' = h' f gives
    d_n = sum_(j < n) C(n-1, j) h^(j+1) d_(n-1-j).
    """
    d = [dz ** j * mpmath.jtheta(kind, z, q, j) for j in range(order + 1)]
    h = [mpmath.log(d[0])]
    for n in range(1, order + 1):
        h.append((d[n] - sum(math.comb(n - 1, j) * h[j + 1] * d[n - 1 - j]
                             for j in range(n - 1))) / d[0])
    return h[order]


def _log_theta4_imag_half(order, s, q):
    """d^order/ds^order log theta4(i s/2, q)."""
    return mpmath.re(_log_jtheta(order, 4, 0.5j * s, q, 0.5j))


def _alt_n_over_expm1(c, power):
    return _series(lambda n: (-1) ** n * mpf(n) ** power / mpmath.expm1(c * n))


def _theta4_imag(t, q):
    """theta4(i t, q), which is real."""
    return mpmath.re(mpmath.jtheta(4, 1j * t, q))


def _csch_sinh(a, v):
    """sum csch(2 n pi^2 / a) sinh(2 pi n v / a)."""
    return _series(lambda n: mpmath.sinh(2 * mpmath.pi * n * v / a)
                   / mpmath.sinh(2 * n * mpmath.pi ** 2 / a))


def _alt_sin_over_expm1(a, v):
    return _series(lambda n: (-1) ** n * mpmath.sin(n * v) / mpmath.expm1(a * n))


def _p1(variant, p):
    a, t = mpf(p["a"]), mpf(p["t"])
    q = mpmath.exp(-mpmath.pi * a)
    lhs = _series(lambda n: mpmath.cosh(2 * t * n) / (n * mpmath.sinh(mpmath.pi * a * n)))
    return lhs, mpmath.log(mpmath.qp(q * q, q * q)) - mpmath.log(_theta4_imag(t, q))


def _p2(variant, p):
    a, th = mpf(p["a"]), mpf(p["theta"])
    c = 2 * mpmath.pi * a
    sq = mpmath.sinh if variant == "sinh-squared" else mpmath.sin
    lhs = 4 * _series(lambda n: (-1) ** n * sq(th * n) ** 2 / (n * mpmath.expm1(c * n)))
    if variant == "theta2-direct":
        q = mpmath.exp(-mpmath.pi * a)
        return lhs, (mpmath.log(mpmath.jtheta(2, th, q) / mpmath.jtheta(2, 0, q))
                     - mpmath.log(mpmath.cos(th)))
    q = mpmath.exp(-mpmath.pi / a)
    return lhs, (mpmath.log(_theta4_imag(th / a, q) / mpmath.jtheta(4, 0, q))
                 - mpmath.log(mpmath.cos(th)) - th * th / (a * mpmath.pi))


def _p2b(variant, p):
    z = mpf(p["z"])
    q = mpmath.exp(-mpmath.pi * z if variant == "nome-exp-pi-z" else -z)
    # (d theta4/du)(iz, q) / i and theta4(iz, q)
    return mpmath.re(mpmath.jtheta(4, 1j * z, q, 1) / 1j), -2 * _theta4_imag(z, q)


def _e5(variant, p):
    a = mpf(p["a"])
    hyp = _series(lambda n: n * mpmath.cosh(a * n * mpmath.pi)
                  / mpmath.sinh(2 * a * n * mpmath.pi))
    return (-mpf(1) / 4 + a / (2 * mpmath.pi)
            + 2 * _alt_n_over_expm1(2 * mpmath.pi / a, 1) + 2 * a * a * hyp), mpf(0)


def _e5c(variant, p):
    x = mpf(p["x"])
    return (_series(lambda n: mpmath.sech(mpmath.pi * n * x) ** 2),
            -4 * _alt_n_over_expm1(2 * mpmath.pi * x, 1))


def _e7(variant, p):
    a, v = mpf(p["a"]), mpf(p["v"])
    paired = 1 / a if variant == "inverted-a" else a
    return (a / 2 * mpmath.tan(v / 2),
            v + 2 * a * _alt_sin_over_expm1(a, v) + 2 * mpmath.pi * _csch_sinh(paired, v))


def _e7b(variant, p):
    a, v = mpf(p["a"]), mpf(p["v"])
    closed = _series(lambda n: mpmath.sin(v) / (mpmath.cos(v) + mpmath.cosh(a * n)))
    return _alt_sin_over_expm1(a, v), -closed / 2


def _e8(variant, p):
    z, q = mpf(p["z"]), mpf(p["q"])
    scale = 2 if variant == "half-scale" else 4
    tan_sign = -1 if variant == "minus-tan" else 1
    lhs = scale * _series(lambda n: (-1) ** n * mpmath.sin(2 * n * z)
                          * q ** (2 * n) / (1 - q ** (2 * n)))
    return lhs, tan_sign * mpmath.tan(z) + _log_jtheta(1, 2, z, q)


def _p4b(variant, p):
    a, z = mpf(p["a"]), mpf(p["z"])
    return (2 * mpmath.pi * _csch_sinh(2 / a, 2 * z),
            -2 * z - _log_jtheta(1, 2, z, mpmath.exp(-1 / a)) / a)


def _p3(variant, p):
    a = mpf(p["a"])
    lhs = 2 * mpmath.pi ** 2 * _log_theta4_imag_half(
        2, mpmath.pi * a, mpmath.exp(-2 * mpmath.pi * a))
    K, E, _ = _kem(a)
    return lhs, K * E - K * K


def _e4(variant, p):
    a = mpf(p["a"])
    lhs = _alt_n_over_expm1(2 * mpmath.pi / a, 1)
    K, E, _ = _kem(a)
    return lhs, (mpf(1) / 8 - a / (4 * mpmath.pi)
                 + a * a * K * (E - K) / (2 * mpmath.pi ** 2))


def _e5b(variant, p):
    b = mpf(p["b"])
    lhs = _series(lambda n: n / mpmath.sinh(mpmath.pi * b * n))
    K, E, _ = _kem(b)
    return lhs, K * (K - E) / mpmath.pi ** 2


def _p5(variant, p):
    b = mpf(p["b"])
    c = 2 * mpmath.pi / b
    cube = _series(lambda n: mpmath.exp(c * n) / (1 + mpmath.exp(c * n)) ** 3)
    lhs = -2 * cube + _alt_n_over_expm1(c, 2)
    if variant == "n-times-n-plus-1":
        lhs += _alt_n_over_expm1(c, 1)
    K, E, _ = _kem(b)
    return lhs, (mpf(1) / 8 - b / (4 * mpmath.pi)
                 + b * b * (E * K - K * K) / (2 * mpmath.pi ** 2))


def _p6(variant, p):
    a = mpf(p["a"])
    q = mpmath.exp(-mpmath.pi / (2 * a))
    z = mpmath.pi / 4
    K, _, _ = _kem(a)
    return (mpmath.jtheta(2, z, q, 1),
            -(2 * a / mpmath.pi) * mpmath.jtheta(2, z, q) * K)


def _sech_sum(x):
    return _series(lambda n: mpmath.sech(n * mpmath.pi * x))


def _p6b(variant, p):
    a = mpf(p["a"])
    K, _, _ = _kem(a)
    half = mpf(1) / 2 if variant == "base" else -mpf(1) / 2
    return _sech_sum(a), K / mpmath.pi + half


def _p7b(variant, p):
    x = mpf(p["x"])
    lhs = 2 * mpmath.pi * _log_theta4_imag_half(
        1, mpmath.pi * x, mpmath.exp(-2 * mpmath.pi * x))
    K, _, _ = _kem(x)
    if variant == "middle-sum":
        return lhs, -mpmath.pi * _sech_sum(x)
    if variant == "plus-half-closed":
        return lhs, -mpmath.pi * (mpf(1) / 2 + K / mpmath.pi)
    return lhs, mpmath.pi / 2 - K


def _p8(variant, p):
    r = mpf(p["r"])
    q = mpmath.exp(-mpmath.pi * r)
    lhs = 24 * _series(lambda n: n * q ** n / (1 - q ** n))
    K, E, m = _kem(r)
    if variant == "base":  # the stated da/dm, (dK/dm)/(E K - K^2)
        drdm = mpmath.diff(mpmath.ellipk, m) / (E * K - K * K)
    else:  # the classical period-ratio derivative
        drdm = -mpmath.pi / (4 * m * (1 - m) * K * K)
    return lhs, 1 + (6 * E + (m - 5) * K) / (mpmath.pi * m * (1 - m) * K * drdm)


def _p4(variant, p):
    a = mpf(p["a"])

    def bracket(x):
        return (mpmath.exp(x * x * a / mpmath.pi)
                * mpmath.jtheta(2, x, mpmath.exp(-mpmath.pi / a))
                / _theta4_imag(a * x, mpmath.exp(-mpmath.pi * a)))

    values = [bracket(mpf(x) / 10) for x in range(4)]
    return max(values), min(values)


def _p7(variant, p):
    x = mpf(p["value"])
    modulus = p["convention"] == "modulus"

    def m_of(y):
        """The argument y as a parameter."""
        return y * y if modulus else y

    m = m_of(x)
    K, E = mpmath.ellipk(m), mpmath.ellipe(m)
    if variant == "base":  # (dK/d(arg)) / (E K - K^2)
        lhs = mpmath.diff(lambda y: mpmath.ellipk(m_of(y)), x) / (E * K - K * K)
    elif modulus:  # the classical derivative of the period ratio
        lhs = -mpmath.pi / (2 * x * (1 - x * x) * K * K)
    else:
        lhs = -mpmath.pi / (4 * m * (1 - m) * K * K)
    # the true derivative of the period ratio K(k')/K(k)
    return lhs, mpmath.diff(lambda y: mpmath.ellipk(1 - m_of(y)) / mpmath.ellipk(m_of(y)), x)


def _p9(variant, p):
    x = mpf(p["x"])
    t = x / (x - 1)
    if variant == "parameter":
        return mpmath.ellipk(t) / mpmath.sqrt(1 - x), mpmath.ellipk(x)
    # the modulus reading: K of modulus t has no real value for |t| >= 1
    lhs = mpmath.nan if abs(t) >= 1 else mpmath.ellipk(t * t) / mpmath.sqrt(1 - x)
    return lhs, mpmath.ellipk(x * x)


def _p10_series(d, b):
    """2 sum (-1)^n F(n)/(n(e^(an)-1)) - sum F(ibn)/(n sinh(b n pi)), F = x^d."""
    a = 2 * mpmath.pi / b
    alt = _series(lambda n: (-1) ** n * mpf(n) ** d / (n * mpmath.expm1(a * n)))
    hyp = _series(lambda n: mpmath.re((1j * b * n) ** d)
                  / (n * mpmath.sinh(b * n * mpmath.pi)))
    return 2 * alt - hyp


def _p10(variant, p):
    d, b = int(p["fdeg"]), mpf(p["b"])
    # G(x) = d! x^d for F = x^d, so sum_n G(t/(2 pi i n)) = d! (t/(2 pi i))^d zeta(d)
    head = 2 * mpmath.quad(lambda t: mpmath.re(
        mpmath.factorial(d) * (t / (2j * mpmath.pi)) ** d * mpmath.zeta(d)) / t, [1, 2])
    return head + _p10_series(d, b), mpf(0)


def _p10a(variant, p):
    d, b = int(p["fdeg"]), mpf(p["b"])
    return (2 ** d - 1) * mpmath.zeta(1 - d) + _p10_series(d, b), mpf(0)


def _p11a(variant, p):
    d, a, s = int(p["fdeg"]), mpf(p["a"]), mpf(p["s"])
    q = mpmath.exp(-mpmath.pi * a)
    lhs = (-1) ** d * _log_theta4_imag_half(d, s, q)

    def f(x):
        return x ** d

    rhs = f(0) * mpmath.log(mpmath.qp(q * q, q * q)) - _bilateral(
        lambda n: f(n) * mpmath.exp(-n * s) / (2 * n * mpmath.sinh(mpmath.pi * a * n)))
    return lhs, rhs


def _poly(coefficients, x):
    return sum(c * x ** n for n, c in enumerate(coefficients))


_P11B_POLYS = {"base": (0, 0, 1), "mixed-parity": (0, 1, 1)}


def _p11b(variant, p):
    a, s = mpf(p["a"]), mpf(p["s"])
    f = _P11B_POLYS[variant]
    q = mpmath.exp(-mpmath.pi * a)
    lhs = sum(c * mpmath.log(_theta4_imag((s + n) / 2, q))
              for n, c in enumerate(f) if c)
    rhs = _poly(f, 1) * mpmath.log(mpmath.qp(q * q, q * q)) - _bilateral(
        lambda n: _poly(f, mpmath.exp(-n)) * mpmath.exp(-n * s)
        / (2 * n * mpmath.sinh(mpmath.pi * a * n)))
    return lhs, rhs


_P12_POLY = (0, 0, 1, 1)  # x^2 + x^3


def _p12(variant, p):
    a, s = mpf(p["a"]), mpf(p["s"])
    f = _P12_POLY
    q = mpmath.exp(-1 / a)
    lhs = sum((-1) ** n * c * _log_jtheta(n, 2, s, q) for n, c in enumerate(f) if c)
    pi = mpmath.pi
    if variant == "base":  # the printed right side
        rhs = 2 * a - 2 * a * _poly(f, 0) * s + a * pi * _bilateral(
            lambda n: _poly(f, 2 * pi * n * a) * mpmath.exp(-2 * pi * n * s * a)
            / mpmath.sinh(pi ** 2 * a * n))
    else:  # derived through the theta4 chain
        rhs = 2 * a * f[1] * s - 2 * a * f[2] - _bilateral(
            lambda n: _poly(f, 2 * pi * a * n) * mpmath.exp(-2 * pi * a * s * n)
            / (2 * n * mpmath.sinh(pi ** 2 * a * n)))
    return lhs, rhs


_SIDES = {"P1": _p1, "P2": _p2, "P2b": _p2b, "P3": _p3, "E4": _e4, "E5": _e5,
          "E5b": _e5b, "E5c": _e5c, "E7": _e7, "E7b": _e7b, "E8": _e8,
          "P4": _p4, "P4b": _p4b, "P5": _p5, "P6": _p6, "P6b": _p6b, "P7": _p7,
          "P7b": _p7b, "P8": _p8, "P9": _p9, "P10": _p10, "P10a": _p10a,
          "P11a": _p11a, "P11b": _p11b, "P12": _p12}

# The records the oracle has both sides of.
RECORDS = tuple(_SIDES)


def sides(identity: str, variant: str, params: dict):
    """(lhs, rhs) of the row as mpf at DIGITS digits; use them inside
    ``mpmath.workdps(DIGITS)`` to keep those digits."""
    with mpmath.workdps(DIGITS):
        return _SIDES[identity](variant, params)


def residual(identity: str, variant: str, params: dict) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|) of the row, from 50-digit sides."""
    lhs, rhs = sides(identity, variant, params)
    with mpmath.workdps(DIGITS):
        return float(abs(lhs - rhs) / max(1, abs(lhs), abs(rhs)))
