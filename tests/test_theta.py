"""Theta kernel: series values, derivatives, log-derivative engine, products."""

import math

import pytest

from ellid import (DomainError, EllidError, EllipticArgument, Nome, NonConvergenceError,
                   PoleError, PolynomialSpec, ThetaKind, UnsupportedOrderError,
                   default_registry, ellint_K, euler_product, log_theta_derivative,
                   poly_weighted_log_theta2_sum, poly_weighted_log_theta4_sum,
                   q_product_P0, solve_k, theta2, theta3, theta4, theta4_imag,
                   theta4_u_derivative_imag, theta_u_derivative)
from ellid import registry as registry_module
from ellid import theta as theta_module
from ellid.series import TruncationPolicy, sum_series

PI = math.pi


def direct_theta4(u, q, n_max=50):
    return 1.0 + 2.0 * sum((-1) ** n * q ** (n * n) * math.cos(2 * n * u)
                           for n in range(1, n_max))


def direct_theta4_imag(t, q, n_max=50):
    return 1.0 + 2.0 * sum((-1) ** n * q ** (n * n) * math.cosh(2 * n * t)
                           for n in range(1, n_max))


def direct_theta2(z, q, n_max=50):
    return 2.0 * sum(q ** ((n + 0.5) ** 2) * math.cos((2 * n + 1) * z)
                     for n in range(0, n_max))


def direct_theta3(z, q, n_max=50):
    return 1.0 + 2.0 * sum(q ** (n * n) * math.cos(2 * n * z)
                           for n in range(1, n_max))


Q01 = Nome(0.1)
QPI = Nome.from_pi_exponent(1.0)


# -- values -------------------------------------------------------------------

def test_theta4_empty_series():
    for u in (0.0, 0.7, 2.0):
        assert theta4(u, Nome(0.0)).value == 1.0
    assert theta4_imag(0.4, Nome(0.0)).value == 1.0


def test_theta4_values():
    got = theta4(0.0, Q01)
    assert abs(got.value - 0.8001999980000002) < 1e-16
    assert abs(got.value - direct_theta4(0.0, 0.1)) < 1e-16
    got = theta4(PI / 2, Q01)
    assert abs(got.value - 1.2002000020000002) < 3e-16
    assert abs(got.value - direct_theta4(PI / 2, 0.1)) < 1e-15


def test_theta4_imag_matches_real_at_zero():
    a = theta4_imag(0.0, Nome(0.2)).value
    b = theta4(0.0, Nome(0.2)).value
    assert abs(a - b) <= 4e-16


def test_theta4_imag_value():
    got = theta4_imag(0.3, QPI)
    want = direct_theta4_imag(0.3, math.exp(-PI))
    assert abs(got.value - want) < 1e-14
    assert abs(got.value - 0.8975554346571060) < 1e-15


def test_theta4_imag_unrepresentable_raises_cleanly():
    from ellid import NonConvergenceError
    with pytest.raises(NonConvergenceError):
        theta4_imag(400.0, Nome(0.5))


def test_theta4_imag_even_exact():
    q = Nome(0.37)
    assert theta4_imag(0.8, q).value == theta4_imag(-0.8, q).value


def test_theta2_values():
    assert theta2(0.3, Nome(0.0)).value == 0.0
    assert abs(theta2(PI / 2, Nome(0.3)).value) <= 1e-15
    got = theta2(0.0, Q01)
    assert abs(got.value - 1.1359306015682802) < 1e-15
    assert abs(got.value - direct_theta2(0.0, 0.1)) < 1e-15
    got = theta2(PI / 4, Nome.from_pi_exponent(0.5))
    assert got.value > 0.0
    assert abs(got.value - direct_theta2(PI / 4, math.exp(-PI / 2))) < 1e-13
    assert abs(got.value - 0.9135791381561168) < 1e-15


@pytest.mark.parametrize("z", [0.0, -0.0, 0.3, -2.0, 1e300, -1e300, 3.0])
def test_theta2_at_zero_nome_is_the_first_term(z):
    # the first envelope is 0, so the series stops there with +0.0
    q = Nome(0.0)
    got = theta2(z, q)
    assert got == (0.0, 1, 0.0) and math.copysign(1.0, got.value) == 1.0
    d = theta_u_derivative(ThetaKind.THETA2, z, q)
    assert d == 0.0 and math.copysign(1.0, d) == 1.0


def test_theta2_at_zero_nome_and_nonfinite_z_acts_as_at_any_nome():
    for q in (Nome(0.0), Nome(0.3)):
        for z in (math.inf, -math.inf):
            with pytest.raises(DomainError):
                theta2(z, q)
        assert math.isnan(theta2(math.nan, q).value)


def test_theta3_values():
    assert theta3(1.3, Nome(0.0)).value == 1.0
    got = theta3(0.0, QPI)
    assert abs(got.value - 1.0864348112133080) < 1e-15
    assert abs(got.value - direct_theta3(0.0, math.exp(-PI))) < 1e-15


def test_theta3_shift_equals_theta4():
    assert theta3(PI / 2, Q01).value == theta4(0.0, Q01).value


def test_theta3_squared_matches_period_ratio():
    # theta3(0, e^-pi a)^2 = 2 K(k_a)/pi with k_a from the modulus solver
    for a in (0.5, 1.0, 2.0):
        t3 = theta3(0.0, Nome.from_pi_exponent(a)).value
        k = solve_k(a).k
        K = ellint_K(EllipticArgument.from_parameter(k.value ** 2))
        assert abs(t3 * t3 - 2.0 * K / PI) <= 1e-11


def test_tail_bounds_below_tolerance():
    pol = TruncationPolicy(tolerance=1e-14)
    for ev in (theta4(0.3, Q01, pol), theta4_imag(0.5, QPI, pol),
               theta2(0.2, Q01, pol), theta3(0.1, QPI, pol)):
        assert ev.tail_bound <= 1e-14


# -- u-derivatives -------------------------------------------------------------

def test_u_derivative_trivial_zeros():
    assert theta_u_derivative(ThetaKind.THETA4, 0.0, Q01) == 0.0
    assert theta_u_derivative(ThetaKind.THETA2, 0.0, Q01) == 0.0


def test_theta2_derivative_value():
    got = theta_u_derivative(ThetaKind.THETA2, PI / 2, Q01)
    want = -2.0 * sum((2 * n + 1) * 0.1 ** ((n + 0.5) ** 2)
                      * math.sin((2 * n + 1) * PI / 2) for n in range(40))
    assert got < 0.0
    assert abs(got - want) < 1e-15
    assert abs(got - (-1.0909477942746563)) < 1e-15


def test_theta4_derivative_value():
    got = theta_u_derivative(ThetaKind.THETA4, 0.5, QPI)
    assert abs(got - 0.1454276651847398) < 1e-15


def test_u_derivative_wrong_kind():
    with pytest.raises(DomainError):
        theta_u_derivative(ThetaKind.THETA4_IMAG_HALF, 0.1, Q01)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("z", [0.1, 0.5, 1.0])
def test_u_derivative_matches_finite_differences(a, z):
    q = Nome.from_pi_exponent(a)
    h = 1e-5
    for kind, fn in ((ThetaKind.THETA4, theta4), (ThetaKind.THETA2, theta2)):
        got = theta_u_derivative(kind, z, q)
        d1 = (fn(z + h, q).value - fn(z - h, q).value) / (2 * h)
        d2 = (fn(z + h / 2, q).value - fn(z - h / 2, q).value) / h
        fd = (4.0 * d2 - d1) / 3.0
        assert abs(got - fd) <= 1e-8 * max(abs(fd), 1e-3)


def test_theta4_u_derivative_imag_value():
    z = 1.0
    q = Nome.from_exponent(z)
    got = theta4_u_derivative_imag(z, q)
    want = -4.0 * sum((-1) ** n * n * math.exp(-z) ** (n * n) * math.sinh(2 * n * z)
                      for n in range(1, 40))
    assert abs(got - want) < 1e-13
    assert theta4_u_derivative_imag(-z, q) == -got
    assert theta4_u_derivative_imag(0.0, q) == 0.0


# -- log-theta derivatives ------------------------------------------------------

def test_log_derivative_order_zero_is_log():
    d = log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 0, 0.2, QPI)
    assert d == math.log(theta4_imag(0.1, QPI).value)
    d2 = log_theta_derivative(ThetaKind.THETA2, 0, 0.3, Nome.from_exponent(1.0))
    assert d2 == math.log(theta2(0.3, Nome.from_exponent(1.0)).value)


def test_log_derivative_odd_order_vanishes_at_zero():
    d = log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 1, 0.0, QPI)
    assert d == 0.0
    d3 = log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 3, 0.0, QPI)
    assert d3 == 0.0


def test_log_derivative_frozen_chain():
    # orders 0..4 of log theta4(i s/2, e^-pi) at s = 0.2
    want = (-0.09228484567662083, -0.019077034125706116, -0.09701628728996095,
            -0.024603589435170566, -0.12645534678090744)
    for order, w in enumerate(want):
        got = log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, order, 0.2, QPI)
        assert abs(got - w) < 1e-14


@pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
def test_log_derivative_order_consistency(order):
    # numeric d/ds of order n matches order n+1
    q = QPI
    s, h = 0.3, 1e-4

    def D(n, at):
        return log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, n, at, q)

    fd = (D(order, s + h) - D(order, s - h)) / (2 * h)
    got = D(order + 1, s)
    assert abs(got - fd) <= 1e-6 * max(abs(got), 1e-6)


def test_log_derivative_theta2_order_consistency():
    q = Nome.from_exponent(0.5)
    s, h = 0.4, 1e-4
    for order in (0, 1, 2, 3):
        fd = (log_theta_derivative(ThetaKind.THETA2, order, s + h, q)
              - log_theta_derivative(ThetaKind.THETA2, order, s - h, q)) / (2 * h)
        got = log_theta_derivative(ThetaKind.THETA2, order + 1, s, q)
        assert abs(got - fd) <= 1e-6 * max(abs(got), 1e-6)


def test_log_derivative_pole():
    # theta2 vanishes at s = pi/2
    with pytest.raises(PoleError):
        log_theta_derivative(ThetaKind.THETA2, 1, PI / 2, Nome(0.3))


def test_log_derivative_order_cap():
    with pytest.raises(UnsupportedOrderError):
        log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 13, 0.1, QPI)
    with pytest.raises(DomainError):
        log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, -1, 0.1, QPI)
    with pytest.raises(DomainError):
        log_theta_derivative(ThetaKind.THETA4, 1, 0.1, QPI)


def _per_order_sums(kind, order, s, q, policy):
    """Raw derivatives 0..order, then the pole-test scale, one
    sum_series(relative=True) pass each: the unfused reference."""
    qq = q.q
    imag = kind is ThetaKind.THETA4_IMAG_HALF
    if qq == 0.0:
        return [1.0 if imag and j == 0 else 0.0 for j in range(order + 1)], 1.0
    if imag:
        lq = math.log(qq)

        def raw(j):
            def term(n):
                w = lq * n * n
                y = n * s
                ay = abs(y)
                if j % 2 == 0:
                    hyp = 0.5 * (math.exp(w + y) + math.exp(w - y))
                else:
                    hyp = 0.5 * (math.exp(w + y) - math.exp(w - y))
                env = 2.0 * float(n) ** j * 0.5 * (math.exp(w + ay) + math.exp(w - ay))
                sign = -1.0 if n % 2 else 1.0
                return 2.0 * sign * float(n) ** j * hyp, env
            return term

        def scale_term(n):
            w = lq * n * n
            y = abs(n * s)
            env = math.exp(w + y) + math.exp(w - y)
            return env, env

        start, scale_initial = 1, 1.0
    else:
        def raw(j):
            def term(n):
                m = 2 * n + 1
                amp = 2.0 * float(m) ** j * qq ** ((n + 0.5) ** 2)
                x = m * s
                osc = (math.cos(x), -math.sin(x), -math.cos(x), math.sin(x))[j % 4]
                return amp * osc, amp
            return term

        def scale_term(n):
            env = 2.0 * qq ** ((n + 0.5) ** 2)
            return env, env

        start, scale_initial = 0, 0.0
    f = [sum_series(raw(j), policy, start, 1.0 if imag and j == 0 else 0.0,
                    relative=True).value for j in range(order + 1)]
    scale = sum_series(scale_term, policy, start, scale_initial, relative=True).value
    return f, scale


def _reference_log_derivative(kind, order, s, q, policy):
    f, scale = _per_order_sums(kind, order, s, q, policy)
    if f[0] <= 0.0 or abs(f[0]) < theta_module.POLE_THRESHOLD * scale:
        raise PoleError(
            f"{kind.value} value {f[0]!r} at s={s!r} is too close to zero "
            f"(scale {scale!r}) for a log-derivative")
    if order == 0:
        return math.log(f[0])
    g = [0.0] * (order + 1)
    for n in range(1, order + 1):
        acc = f[n]
        for j in range(0, n - 1):
            acc -= math.comb(n - 1, j) * g[j + 1] * f[n - 1 - j]
        g[n] = acc / f[0]
    return g[order]


def _outcome(fn):
    try:
        return "value", fn().hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__, str(exc)


PARITY_POINTS = [
    (0.3, Nome(0.0), TruncationPolicy()),      # q = 0
    (0.3, Nome(1e-300), TruncationPolicy()),  # terms underflow
    (0.3, QPI, TruncationPolicy()),
    (1.1, Q01, TruncationPolicy()),
    (-0.7, QPI, TruncationPolicy()),                       # negative s
    (-2.5, Nome(0.5), TruncationPolicy()),
    (PI / 2, Nome(0.3), TruncationPolicy()),    # theta2 zero
    (PI, QPI, TruncationPolicy()),                         # theta4(i s/2) zero
    (0.7, Q01, TruncationPolicy(cap=3)),                   # starved caps
    (0.7, Q01, TruncationPolicy(cap=4)),
    (0.7, Q01, TruncationPolicy(cap=5)),
    (1.1, Nome(0.5), TruncationPolicy(cap=9)),
    (-800.0, Nome(0.5), TruncationPolicy()),    # term overflow
]


@pytest.mark.parametrize("pole_threshold", ["shipped", "inf"])
@pytest.mark.parametrize("kind", [ThetaKind.THETA2, ThetaKind.THETA4_IMAG_HALF])
def test_fused_log_derivative_matches_per_order_passes(kind, pole_threshold,
                                                      monkeypatch):
    # With an infinite pole threshold every convergent point raises a
    # PoleError whose text carries f(0) and the scale, so the scale's bits
    # are compared too.
    if pole_threshold == "inf":
        monkeypatch.setattr(theta_module, "POLE_THRESHOLD", math.inf)
    seen = set()
    for s, q, policy in PARITY_POINTS:
        outcomes = set()
        for order in range(13):
            got = _outcome(lambda: log_theta_derivative(kind, order, s, q, policy))
            want = _outcome(lambda: _reference_log_derivative(kind, order, s, q, policy))
            assert got == want, (s, q, policy, order)
            outcomes.add(want[0])
        seen |= outcomes
        if outcomes == {"value", NonConvergenceError.__name__}:
            seen.add("some orders starved")
    expected = {"value", "PoleError", "NonConvergenceError", "some orders starved"}
    if pole_threshold == "inf":
        expected = {"PoleError", "NonConvergenceError"}
    assert expected <= seen



POLY_COEFFICIENTS = [
    (1.0,),
    (0.0, 0.0, 1.0),
    (0.0, 0.0, 1.0, 1.0),
    (1.0,) + (0.0,) * 7 + (1.0,),
    (0.0, 2.5, 0.0, -1.0, 0.0, 0.0, 0.5),
    (1.0,) * 9,
]

POLY_PARITY_POINTS = PARITY_POINTS + [
    (PI, QPI, TruncationPolicy(cap=4)),                  # pole; orders >= 4 starve
    (PI / 2, Nome(0.3), TruncationPolicy(cap=6)),  # pole; orders >= 2 starve
    (3e307, Nome(1e-3), TruncationPolicy()),  # cos(inf) from order 7 up
    (5e307, Nome(1e-8), TruncationPolicy()),  # pole; cos(inf) at order 8
]


def _per_order_poly_outcome(kind, f, s, q, policy):
    """The unfused reference for sum (-1)^n f_n d^n/ds^n log theta: the sum of
    one log_theta_derivative call per nonzero coefficient, or, if the call
    at the top order fails, that call's error."""
    orders = [n for n, c in enumerate(f.coefficients) if c != 0.0]
    top = _outcome(lambda: log_theta_derivative(kind, orders[-1], s, q, policy))
    if top[0] != "value":
        return top
    total = 0.0
    for n in orders:
        total += (-1.0 if n % 2 else 1.0) * f.coefficients[n] * log_theta_derivative(
            kind, n, s, q, policy)
    return "value", total.hex()


@pytest.mark.parametrize("pole_threshold", ["shipped", "inf"])
@pytest.mark.parametrize("kind", [ThetaKind.THETA2, ThetaKind.THETA4_IMAG_HALF])
def test_polynomial_log_theta_sum_matches_per_order_calls(kind, pole_threshold,
                                                         monkeypatch):
    if pole_threshold == "inf":
        monkeypatch.setattr(theta_module, "POLE_THRESHOLD", math.inf)
    seen = set()
    for s, q, policy in POLY_PARITY_POINTS:
        for coefficients in POLY_COEFFICIENTS:
            f = PolynomialSpec(coefficients)
            got = _outcome(lambda: registry_module._poly_log_theta_sum(
                kind, f, s, q, policy).value)
            want = _per_order_poly_outcome(kind, f, s, q, policy)
            assert got == want, (s, q, policy, coefficients)
            seen.add(want[0])
    if pole_threshold == "shipped":
        assert {"value", "PoleError", "NonConvergenceError"} <= seen
        if kind is ThetaKind.THETA2:
            assert "DomainError" in seen  # cos(inf)


def test_public_polynomial_sums_match_per_order_calls():
    for a, s in ((1.0, 0.0), (2.0, 0.2), (0.5, 1.3), (1.0, 2.0)):
        for coefficients in POLY_COEFFICIENTS:
            f = PolynomialSpec(coefficients)
            for policy in (TruncationPolicy(), TruncationPolicy(cap=5)):
                got = _outcome(lambda: poly_weighted_log_theta4_sum(
                    f, a, s, policy).value)
                want = _per_order_poly_outcome(
                    ThetaKind.THETA4_IMAG_HALF, f, s, Nome.from_pi_exponent(a), policy)
                assert got == want, (a, s, coefficients, policy)
                got = _outcome(lambda: poly_weighted_log_theta2_sum(
                    f, a, s, policy).value)
                want = _per_order_poly_outcome(
                    ThetaKind.THETA2, f, s, Nome.from_exponent(1.0 / a), policy)
                assert got == want, (a, s, coefficients, policy)


@pytest.mark.parametrize("identity, point", [
    ("P11a", {"fdeg": 2, "a": 0.11, "s": math.nextafter(PI * 0.11, 0.0)}),
    ("P12", {"a": 20.0, "s": 1.5})])
def test_failed_polynomial_sum_runs_one_pass(identity, point, monkeypatch):
    # a failed lhs is not replayed at a lower order to derive its error again
    orders = []

    def counting_pass(kind, top, *rest):
        orders.append(top)
        return theta_module._log_theta_pass(kind, top, *rest)

    monkeypatch.setattr(registry_module, "_log_theta_pass", counting_pass)
    report = default_registry().evaluate(identity, "base", point)
    assert report.note.startswith("PoleError: ")
    assert len(orders) == 1


@pytest.mark.parametrize("s", [math.inf, -math.inf, 3e307])
def test_log_theta_sums_at_unrepresentable_s_raise_ellid_errors(s):
    # cos(inf) or exp overflow in a term must surface as sum_series's
    # DomainError or NonConvergenceError, never as a bare ValueError.
    q = Nome(0.3)
    policy = TruncationPolicy(cap=64)
    calls = []
    for order in range(13):
        calls += [lambda kind=kind, order=order:
                  log_theta_derivative(kind, order, s, q, policy)
                  for kind in (ThetaKind.THETA2, ThetaKind.THETA4_IMAG_HALF)]
    for degree in range(registry_module.MAX_POLY_DEGREE + 1):
        for f in (PolynomialSpec.monomial(degree), PolynomialSpec((1.0,) * (degree + 1))):
            calls += [lambda f=f: poly_weighted_log_theta4_sum(f, 1.0, s, policy),
                      lambda f=f: poly_weighted_log_theta2_sum(f, 1.0, s, policy)]
    for call in calls:
        with pytest.raises(EllidError):
            call()


# -- q-products -----------------------------------------------------------------

def test_q_product_values():
    assert q_product_P0(Nome(0.0)).value == 1.0
    got = q_product_P0(Nome(0.5))
    prod = 1.0
    for n in range(1, 60):
        prod *= 1.0 - 0.5 ** (2 * n)
    assert abs(got.value - prod) <= 1e-12
    assert abs(got.value - 0.6885375371203397) < 1e-13
    assert abs(q_product_P0(QPI).value - 0.9981290699259585) < 1e-13


def test_euler_product_values():
    assert euler_product(Nome(0.0)).value == 1.0
    got = euler_product(Nome(0.1))
    prod = 1.0
    for n in range(1, 40):
        prod *= 1.0 - 0.1 ** n
    assert abs(got.value - prod) <= 1e-12
    assert abs(got.value - 0.8900100999989990) < 1e-15


def test_euler_product_of_q_squared_is_P0():
    q = 0.3
    assert (euler_product(Nome(q * q)).value
            == q_product_P0(Nome(q)).value)


def test_log_P0_minus_log_theta4_matches_series():
    # the t = 0 instance of the product/series link, cross-checked at a = 1
    from ellid import S1_cosh_over_sinh
    lhs = (math.log(q_product_P0(QPI).value)
           - math.log(theta4(0.0, QPI).value))
    assert abs(lhs - S1_cosh_over_sinh(1.0, 0.0).value) <= 1e-11


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_nonfinite_imaginary_argument_is_refused_before_summing(t):
    # Its terms are inf or NaN, so no stop rule could fire: the sums used to
    # run to the cap (tens of ms) before the same NonConvergenceError.
    q = Nome(0.3)
    calls = [lambda: theta4_imag(t, q), lambda: theta4_u_derivative_imag(t, q)]
    calls += [lambda order=order: log_theta_derivative(
        ThetaKind.THETA4_IMAG_HALF, order, t, q) for order in range(13)]
    calls += [lambda: poly_weighted_log_theta4_sum(PolynomialSpec((1.0,) * 9), 1.0, t)]
    for call in calls:
        with pytest.raises(NonConvergenceError) as excinfo:
            call()
        assert str(excinfo.value) == (
            f"series cannot converge at the non-finite imaginary argument {t!r}")


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_nonfinite_imaginary_argument_at_zero_nome_keeps_its_value(t):
    q = Nome(0.0)
    assert theta4_imag(t, q) == (1.0, 1, 0.0)
    assert theta4_u_derivative_imag(t, q) == 0.0
    assert log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 3, t, q) == 0.0
