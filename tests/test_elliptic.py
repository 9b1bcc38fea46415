"""Core elliptic integrals: AGM, K, E, dK, the Legendre self-check."""

import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import IntegrationWarning, quad

from ellid import (Convention, DomainError, EllipticArgument, Nome,
                   SingularArgumentError, agm, dK, ellint_E, ellint_K,
                   ellint_K_extended, legendre_defect)
from ellid.elliptic import SINGULAR_CUTOFF, _complement_parameter, _ke

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


def _one_pass_arguments():
    """A seeded draw in both conventions: the ends, values within 1e-11 of 1,
    log-uniform small values and uniform ones."""
    rng = random.Random(32)
    values = [0.0, 5e-324, 1e-300, SINGULAR_CUTOFF]
    values += [1.0 - rng.uniform(1e-12, 1e-11) for _ in range(300)]
    values += [10.0 ** rng.uniform(-300.0, 0.0) for _ in range(300)]
    values += [rng.uniform(0.0, SINGULAR_CUTOFF) for _ in range(600)]
    return [EllipticArgument(v, c) for c in Convention for v in values]


def test_K_has_the_bits_of_the_raw_agm():
    # one descent gives K and E; its K is agm's final mean, bit for bit
    def raw(arg):
        return PI / (2.0 * agm(1.0, math.sqrt(_complement_parameter(arg))))

    bad = [arg for arg in _one_pass_arguments()
           if float.hex(ellint_K(arg)) != float.hex(raw(arg))]
    assert bad == []


@pytest.mark.parametrize("convention", list(Convention), ids=lambda c: c.value)
def test_one_pass_refuses_the_singular_point_as_K_does(convention):
    arg = EllipticArgument(1.0, convention)
    with pytest.raises(SingularArgumentError) as by_K:
        ellint_K(arg)
    with pytest.raises(SingularArgumentError) as by_pass:
        _ke(arg)
    assert str(by_pass.value) == str(by_K.value) == f"K is singular for {convention.value} 1.0"


@pytest.mark.parametrize("call, error, message", [
    (lambda: ellint_K_extended(1.0), SingularArgumentError,
     "K is singular or undefined for parameter 1.0"),
    (lambda: ellint_K_extended(math.nan), SingularArgumentError,
     "K is singular or undefined for parameter nan"),
    (lambda: legendre_defect(EllipticArgument.from_modulus(0.0)), DomainError,
     "legendre_defect requires 0 < value < 1, got 0.0"),
])
def test_refusal_type_and_text(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


@pytest.mark.parametrize("x, y", [(10 ** 400, 1.0), (1.0, -10 ** 400), ("1", 1.0)],
                         ids=["huge-int", "huge-negative-int", "str"])
def test_agm_refuses_a_non_float_input(x, y):
    with pytest.raises(DomainError) as excinfo:
        agm(x, y)
    assert type(excinfo.value) is DomainError
    assert str(excinfo.value) == f"agm requires positive finite inputs, got ({x!r}, {y!r})"


@pytest.mark.parametrize("m", [10 ** 400, -10 ** 400, "0.5"],
                         ids=["huge-int", "huge-negative-int", "str"])
def test_K_extended_refuses_a_non_float_parameter(m):
    with pytest.raises(SingularArgumentError) as excinfo:
        ellint_K_extended(m)
    assert type(excinfo.value) is SingularArgumentError
    assert str(excinfo.value) == f"K is singular or undefined for parameter {m!r}"


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


@pytest.mark.parametrize("tag", list(Convention), ids=lambda c: c.value)
def test_string_tag_reads_as_its_member(tag):
    # Convention is a str enum, so a string tag compares equal to its member;
    # it must also be read as that member, never by the other branch.
    by_string, by_member = EllipticArgument(0.5, tag.value), EllipticArgument(0.5, tag)
    assert by_string.convention is tag

    def bits(arg):
        comp = arg.complement()
        return [float.hex(x) for x in (ellint_K(arg), ellint_E(arg), arg.k, arg.m,
                                       comp.value, dK(arg))]

    assert bits(by_string) == bits(by_member)


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


# -- what the checked records on the singular-modulus path refuse -------------

_HUGE = 10 ** 400

# EllipticArgument, Nome, solve_k and validate_point accept a float in range
# without the full checks; each edge input below must still get the error it
# got from the full checks (type and text, HUGE standing for repr(10**400)) or
# be kept with the same bits.  The literals were taken from the code before
# the float shortcuts.
EDGE_INPUTS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0.0": -0.0,
               "0.0": 0.0, "1.0": 1.0,
               "above-cutoff": math.nextafter(SINGULAR_CUTOFF, 2.0),
               "True": True, "False": False, "huge-int": _HUGE, "str": "0.5"}

_BAND = "is inside the singular band (0.999999999999, 1.0)"
_ARGUMENT_REFUSALS = {
    "nan": ("DomainError", "elliptic argument must be finite, got nan"),
    "inf": ("DomainError", "elliptic argument must be finite, got inf"),
    "-inf": ("DomainError", "elliptic argument must be finite, got -inf"),
    "above-cutoff": ("SingularArgumentError", f"elliptic argument 0.9999999999990001 {_BAND}"),
    "True": ("DomainError", "elliptic argument must be finite, got True"),
    "False": ("DomainError", "elliptic argument must be finite, got False"),
    "huge-int": ("DomainError", "elliptic argument must be finite, got HUGE"),
    "str": ("DomainError", "elliptic argument must be finite, got '0.5'"),
}


def _argument_outcomes(member):
    kept = {"-0.0": ("-0x0.0p+0", member), "0.0": ("0x0.0p+0", member),
            "1.0": ("0x1.0000000000000p+0", member)}
    return {**_ARGUMENT_REFUSALS, **kept}


EDGE_OUTCOMES = {
    "modulus": _argument_outcomes("MODULUS"),
    "parameter": _argument_outcomes("PARAMETER"),
    "str-tag": _argument_outcomes("PARAMETER"),
    "nome": {
        "nan": ("DomainError", "nome must lie in [0, 1), got nan"),
        "inf": ("DomainError", "nome must lie in [0, 1), got inf"),
        "-inf": ("DomainError", "nome must lie in [0, 1), got -inf"),
        "-0.0": ("-0x0.0p+0",),
        "0.0": ("0x0.0p+0",),
        "1.0": ("DomainError", "nome must lie in [0, 1), got 1.0"),
        "above-cutoff": ("0x1.fffffffffdcd2p-1",),
        "True": ("DomainError", "nome must lie in [0, 1), got True"),
        "False": ("DomainError", "nome must lie in [0, 1), got False"),
        "huge-int": ("DomainError", "nome must lie in [0, 1), got HUGE"),
        "str": ("DomainError", "nome must lie in [0, 1), got '0.5'"),
    },
    "solve_k": {
        **{name: ("RangeError", f"solve_k supports a in [0.05, 20.0], got {text}")
           for name, text in (("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                              ("-0.0", "-0.0"), ("0.0", "0.0"), ("True", "True"),
                              ("False", "False"), ("huge-int", "HUGE"),
                              ("str", "'0.5'"))},
        # (k, iterations, residual)
        "1.0": ("0x1.6a09e667f3bccp-1", 52, "0x0.0p+0"),
        "above-cutoff": ("0x1.6a09e667f5704p-1", 51, "0x0.0p+0"),
    },
    # P1's t, in [0, 10], with a = 1.0: the values in parameter order
    "validate_point": {
        **{name: ("ConstraintError", f"P1: t={text} is not a finite number")
           for name, text in (("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"),
                              ("True", "True"), ("False", "False"),
                              ("huge-int", "HUGE"), ("str", "'0.5'"))},
        "-0.0": ("0x1.0000000000000p+0", "-0x0.0p+0"),
        "0.0": ("0x1.0000000000000p+0", "0x0.0p+0"),
        "1.0": ("0x1.0000000000000p+0", "0x1.0000000000000p+0"),
        "above-cutoff": ("0x1.0000000000000p+0", "0x1.fffffffffdcd2p-1"),
    },
}


def _build_edge(builder, x):
    from ellid import solve_k
    from ellid.registry import default_registry
    if builder == "modulus":
        return EllipticArgument(x, Convention.MODULUS)
    if builder == "parameter":
        return EllipticArgument(x, Convention.PARAMETER)
    if builder == "str-tag":
        return EllipticArgument(x, "parameter")
    if builder == "nome":
        return Nome(x)
    if builder == "solve_k":
        return solve_k(x)
    return default_registry().get("P1").validate_point({"a": 1.0, "t": x})


def _bits(v):
    return v.hex() if type(v) is float else repr(v)


def _edge_outcome(builder, x):
    from ellid import EllidError
    try:
        got = _build_edge(builder, x)
    except EllidError as exc:
        return (type(exc).__name__, str(exc).replace(repr(_HUGE), "HUGE"))
    if isinstance(got, EllipticArgument):
        # the tag is the member itself, not a string equal to it
        assert type(got.convention) is Convention
        return (_bits(got.value), got.convention.name)
    if isinstance(got, Nome):
        return (_bits(got.q),)
    if builder == "solve_k":
        return (_bits(got.k.value), got.iterations, _bits(got.residual))
    return tuple(_bits(v) for v in got)


@pytest.mark.parametrize("builder, name",
                         [(b, n) for b in EDGE_OUTCOMES for n in EDGE_INPUTS],
                         ids=[f"{b}-{n}" for b in EDGE_OUTCOMES for n in EDGE_INPUTS])
def test_checked_records_refuse_or_keep_each_edge_input(builder, name):
    assert _edge_outcome(builder, EDGE_INPUTS[name]) == EDGE_OUTCOMES[builder][name]


def _huge_int_calls():
    from ellid import (S1_cosh_over_sinh, S2h_alt_sinh_sq_over_expm1, S6closed,
                       ThetaKind, dadk_fd, log_theta_derivative, theta4_imag,
                       theta4_u_derivative_imag)
    from ellid.errors import NonConvergenceError
    q = Nome(0.3)
    imag = "series cannot converge at the non-finite imaginary argument HUGE"
    return {
        "from_pi_exponent": (lambda: Nome.from_pi_exponent(_HUGE), DomainError,
                             "pi-exponent HUGE does not fit in a float"),
        "from_exponent": (lambda: Nome.from_exponent(_HUGE), DomainError,
                          "exponent HUGE does not fit in a float"),
        # a str fails the positivity test, as a NaN does, and as Nome("1") does
        "from_pi_exponent-str": (lambda: Nome.from_pi_exponent("1"), DomainError,
                                 "pi-exponent must be positive, got '1'"),
        "from_exponent-str": (lambda: Nome.from_exponent("1"), DomainError,
                              "exponent must be positive, got '1'"),
        "S1-a": (lambda: S1_cosh_over_sinh(_HUGE, 0.1), DomainError,
                 "S1 a=HUGE does not fit in a float"),
        # 2|t| is inf, as for the largest float t
        "S1-t": (lambda: S1_cosh_over_sinh(1.0, -_HUGE), DomainError,
                 "S1 divergence: angle scale inf must stay below pi*a = 3.141592653589793"),
        "S2h-theta": (lambda: S2h_alt_sinh_sq_over_expm1(1.0, _HUGE), DomainError,
                      "S2h divergence: 2|theta| = inf must stay below c = 1.0"),
        "S6closed-v": (lambda: S6closed(1.0, _HUGE), DomainError,
                       "S6closed requires a finite v, got HUGE"),
        "theta4_imag-t": (lambda: theta4_imag(_HUGE, q), NonConvergenceError, imag),
        "theta4_u_derivative_imag-t": (lambda: theta4_u_derivative_imag(-_HUGE, q),
                                       NonConvergenceError, imag.replace("HUGE", "-HUGE")),
        "log_theta_derivative-s": (
            lambda: log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, 2, _HUGE, q),
            NonConvergenceError, imag),
        "dadk_fd-step": (lambda: dadk_fd(EllipticArgument.from_modulus(0.5), _HUGE),
                         DomainError, "dadk_fd step HUGE does not fit in a float"),
    }


@pytest.mark.parametrize("name", list(_huge_int_calls()))
def test_a_huge_int_or_a_str_is_refused_as_an_ellid_error(name):
    # an int too large for a float used to raise a bare OverflowError here,
    # and a str given as an exponent a bare TypeError
    call, error, message = _huge_int_calls()[name]
    with pytest.raises(error) as excinfo:
        call()
    assert type(excinfo.value) is error
    assert str(excinfo.value).replace(repr(_HUGE), "HUGE") == message
