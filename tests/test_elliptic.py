"""Core elliptic integrals: AGM, K, E, dK, the Legendre self-check."""

import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from ellid import (Convention, DomainError, EllipticArgument, Nome,
                   SingularArgumentError, agm, dK, ellint_E, ellint_K,
                   ellint_K_extended, legendre_defect)

PI = math.pi


def agm_oracle(x, y):
    # plain hand iteration, independent of the library loop structure
    a, b = x, y
    for _ in range(40):
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return a


def quad_K(m):
    with warnings.catch_warnings():
        # the requested tolerance sits at the roundoff floor by design
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda t: 1.0 / math.sqrt(1.0 - m * math.sin(t) ** 2),
                        0.0, PI / 2, epsabs=1e-14, epsrel=1e-14)
    return val


def quad_E(m):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(lambda t: math.sqrt(1.0 - m * math.sin(t) ** 2),
                        0.0, PI / 2, epsabs=1e-14, epsrel=1e-14)
    return val


# -- agm ---------------------------------------------------------------------

def test_agm_fixed_point_exact():
    assert agm(1.0, 1.0) == 1.0
    for x in (0.1, 1.0, 3.7, 1e6):
        assert agm(x, x) == x


def test_agm_1_2_matches_hand_iteration():
    got = agm(1.0, 2.0)
    assert abs(got - agm_oracle(1.0, 2.0)) < 1e-15
    assert abs(got - 1.4567910310469069) < 2e-15


def test_agm_iteration_budget():
    # the stop rule needs at most 8 sweeps for inputs within 10 orders of
    # magnitude; replicated here with an instrumented copy of the loop
    import sys
    eps = sys.float_info.epsilon
    for x, y in ((1.0, 1e-10), (1e5, 1e-5), (1e10, 1.0), (1.0, 2.0)):
        a, b = x, y
        n = 0
        while abs(a - b) > 4.0 * eps * a:
            a, b = 0.5 * (a + b), math.sqrt(a * b)
            n += 1
        assert n <= 8
        assert agm(x, y) == 0.5 * (a + b)


def test_agm_rejects_nonpositive():
    with pytest.raises(DomainError):
        agm(0.0, 1.0)
    with pytest.raises(DomainError):
        agm(1.0, -2.0)
    with pytest.raises(DomainError):
        agm(math.inf, 1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6))
def test_agm_symmetric_and_bounded(x, y):
    v = agm(x, y)
    assert v == agm(y, x)
    assert min(x, y) <= v <= max(x, y)


# -- K and E -----------------------------------------------------------------

def test_K_at_zero_is_half_pi_exact():
    assert ellint_K(EllipticArgument.from_modulus(0.0)) == PI / 2
    assert ellint_K(EllipticArgument.from_parameter(0.0)) == PI / 2


def test_E_at_zero_and_one():
    assert ellint_E(EllipticArgument.from_modulus(0.0)) == PI / 2
    assert ellint_E(EllipticArgument.from_modulus(1.0)) == 1.0


def test_K_lemniscatic_point():
    # K(1/sqrt 2) = Gamma(1/4)^2 / (4 sqrt(pi))
    got = ellint_K(EllipticArgument.from_modulus(1.0 / math.sqrt(2.0)))
    ref = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(PI))
    assert abs(got - ref) / ref < 1e-14
    assert abs(got - 1.8540746773013719) < 4e-16


def test_K_convention_conversion():
    a = ellint_K(EllipticArgument.from_parameter(0.5))
    b = ellint_K(EllipticArgument.from_modulus(1.0 / math.sqrt(2.0)))
    assert abs(a - b) < 2e-16


def test_E_lemniscatic_point():
    got = ellint_E(EllipticArgument.from_modulus(1.0 / math.sqrt(2.0)))
    assert abs(got - 1.3506438810476755) < 4e-16


@pytest.mark.parametrize("value,conv", [
    (0.3, Convention.MODULUS),
    (0.7, Convention.PARAMETER),
    (0.9, Convention.MODULUS),
    (0.05, Convention.PARAMETER),
])
def test_K_matches_quadrature(value, conv):
    arg = EllipticArgument(value, conv)
    assert abs(ellint_K(arg) - quad_K(arg.m)) <= 1e-13 * quad_K(arg.m)


@pytest.mark.parametrize("value,conv", [
    (0.3, Convention.MODULUS),
    (0.7, Convention.PARAMETER),
    (0.95, Convention.MODULUS),
])
def test_E_matches_quadrature(value, conv):
    arg = EllipticArgument(value, conv)
    assert abs(ellint_E(arg) - quad_E(arg.m)) <= 1e-13 * quad_E(arg.m)


def test_K_monotone_increasing_E_decreasing():
    ks = [0.01 * i for i in range(1, 100)]
    Ks = [ellint_K(EllipticArgument.from_modulus(k)) for k in ks]
    Es = [ellint_E(EllipticArgument.from_modulus(k)) for k in ks]
    assert all(b > a for a, b in zip(Ks, Ks[1:]))
    assert all(b < a for a, b in zip(Es, Es[1:]))


def test_singular_band_rejected():
    with pytest.raises(SingularArgumentError):
        EllipticArgument.from_modulus(1.0 - 1e-13)
    with pytest.raises(SingularArgumentError):
        ellint_K(EllipticArgument.from_modulus(1.0))
    with pytest.raises(DomainError):
        EllipticArgument.from_modulus(-0.1)
    with pytest.raises(DomainError):
        EllipticArgument.from_parameter(1.5)


def test_K_extended_negative_parameter():
    # K(m=-3) = pi / (2 agm(1, 2))
    got = ellint_K_extended(-3.0)
    assert abs(got - PI / (2.0 * agm(1.0, 2.0))) < 1e-15


# -- dK ----------------------------------------------------------------------

def fd_derivative(f, x, h=1e-6):
    # Richardson-extrapolated central difference
    d1 = (f(x + h) - f(x - h)) / (2.0 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4.0 * d2 - d1) / 3.0


def test_dK_parameter_at_half():
    # reduces to 2E - K at m = 1/2
    arg = EllipticArgument.from_parameter(0.5)
    want = 2.0 * ellint_E(arg) - ellint_K(arg)
    got = dK(arg)
    assert abs(got - want) < 1e-14
    assert abs(got - 0.8472130847939791) < 1e-13
    fd = fd_derivative(lambda m: ellint_K(EllipticArgument.from_parameter(m)), 0.5)
    assert abs(got - fd) / abs(fd) < 1e-8


def test_dK_modulus_lemniscatic():
    arg = EllipticArgument.from_modulus(1.0 / math.sqrt(2.0))
    got = dK(arg)
    assert abs(got - 1.1981402347355922) < 1e-13
    fd = fd_derivative(lambda k: ellint_K(EllipticArgument.from_modulus(k)),
                       1.0 / math.sqrt(2.0))
    assert abs(got - fd) / abs(fd) < 1e-8


def test_dK_parameter_slope_near_zero():
    # K(m) = (pi/2)(1 + m/4 + ...) so dK/dm -> pi/8
    fd = (ellint_K(EllipticArgument.from_parameter(1e-8)) - PI / 2) / 1e-8
    assert abs(fd - PI / 8) < 1e-6
    assert abs(dK(EllipticArgument.from_parameter(1e-6)) - PI / 8) < 1e-5


@pytest.mark.parametrize("k", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_dK_matches_finite_differences(k):
    got = dK(EllipticArgument.from_modulus(k))
    fd = fd_derivative(lambda x: ellint_K(EllipticArgument.from_modulus(x)), k)
    assert abs(got - fd) / abs(fd) < 1e-8


def test_dK_rejects_endpoints():
    with pytest.raises(DomainError):
        dK(EllipticArgument.from_modulus(0.0))
    with pytest.raises(DomainError):
        dK(EllipticArgument.from_modulus(1.0))


# -- legendre ----------------------------------------------------------------

@pytest.mark.parametrize("k", [0.05 * i for i in range(1, 20)])
def test_legendre_defect_tiny(k):
    assert abs(legendre_defect(EllipticArgument.from_modulus(k))) <= 1e-12


def test_legendre_defect_parameter_convention():
    assert abs(legendre_defect(EllipticArgument.from_parameter(0.3))) <= 1e-13


# -- argument/nome types ------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99))
def test_convention_round_trip(k):
    m = EllipticArgument.from_modulus(k).m
    back = EllipticArgument.from_parameter(m).k
    assert abs(back - k) <= 1e-15 * k


def test_complement():
    arg = EllipticArgument.from_parameter(0.3)
    assert arg.complement().value == 0.7
    arg = EllipticArgument.from_modulus(0.6)
    assert abs(arg.complement().value - 0.8) < 1e-15


def test_nome_builds():
    q = Nome.from_pi_exponent(1.0)
    assert abs(math.log(q.q) + PI) <= 1e-14 * PI
    q2 = Nome.from_exponent(2.0)
    assert abs(q2.q - math.exp(-2.0)) == 0.0
    assert Nome(0.0).q == 0.0
    with pytest.raises(DomainError):
        Nome(1.0)
    with pytest.raises(DomainError):
        Nome(-0.2)
    with pytest.raises(DomainError):
        Nome.from_pi_exponent(0.0)
