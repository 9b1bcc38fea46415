"""Series bank: frozen values against direct summation, parity, guards."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellid import (DomainError, Nome, NonConvergenceError,
                   S1_cosh_over_sinh, S2_alt_sin_sq_over_expm1,
                   S2h_alt_sinh_sq_over_expm1, S3_alt_n_over_expm1,
                   S3sq_alt_nsq_over_expm1, S4_n_over_sinh, S5_sech,
                   S5sq_sech2, S6_alt_sin_over_expm1, S6closed, S7_csch_sinh,
                   S8_exp_over_cube, S9_lambert_E2, S10_alt_sin_lambert,
                   TruncationPolicy, bernoulli_B2n, zeta_even, zeta_neg)
from ellid.series import n_cosh_over_sinh_double, sum_series

PI = math.pi


def direct(term, n_max=600):
    # independent oracle: naive ascending sum, no compensation, no stop rule
    return sum(term(n) for n in range(1, n_max + 1))


# -- frozen values vs the direct oracle ---------------------------------------

def test_S1_values():
    want0 = direct(lambda n: 1.0 / (n * math.sinh(PI * n)), 60)
    got0 = S1_cosh_over_sinh(1.0, 0.0)
    assert abs(got0.value - want0) < 1e-15
    assert abs(got0.value - 0.08851259265916311) < 1e-15

    want3 = direct(lambda n: math.cosh(0.6 * n) / (n * math.sinh(PI * n)), 60)
    got3 = S1_cosh_over_sinh(1.0, 0.3)
    assert abs(got3.value - want3) < 1e-15
    assert abs(got3.value - 0.1062077124426943) < 1e-15


def test_S3_values():
    got = S3_alt_n_over_expm1(2.0 * PI)
    want = direct(lambda n: (-1) ** n * n / math.expm1(2.0 * PI * n), 30)
    assert abs(got.value - want) < 1e-17
    assert abs(got.value - (-0.0018639813783286376)) < 1e-17


def test_S3_first_term_dominance():
    got = S3_alt_n_over_expm1(50.0)
    assert abs(got.value - (-math.exp(-50.0))) < 1e-6 * math.exp(-50.0)


def test_S3sq_value():
    got = S3sq_alt_nsq_over_expm1(2.0 * PI)
    want = direct(lambda n: (-1) ** n * n * n / math.expm1(2.0 * PI * n), 30)
    assert abs(got.value - want) < 1e-17


def test_S4_values():
    got1 = S4_n_over_sinh(1.0)
    assert abs(got1.value - direct(lambda n: n / math.sinh(PI * n), 60)) < 1e-15
    assert abs(got1.value - 0.09457301966476194) < 1e-15
    got2 = S4_n_over_sinh(2.0)
    assert abs(got2.value - 0.003748887029703568) < 1e-16


def test_S5_values():
    got = S5_sech(1.0)
    assert abs(got.value - direct(lambda n: 1.0 / math.cosh(PI * n), 60)) < 1e-16
    assert abs(got.value - 0.09017029950804811) < 1e-15


def test_S5sq_value():
    got = S5sq_sech2(1.0)
    assert abs(got.value - 0.007455925513314551) < 1e-16


def test_S2_value():
    got = S2_alt_sin_sq_over_expm1(2.0 * PI, 0.5)
    want = direct(lambda n: (-1) ** n * math.sin(0.5 * n) ** 2
                  / (n * math.expm1(2.0 * PI * n)), 30)
    assert abs(got.value - want) < 1e-17


def test_S2h_slow_convergence_stays_finite():
    # decay e^((2 theta - c) n) with a thin margin: the scaled term form
    # must survive hundreds of terms without overflow (plain sinh cannot)
    import mpmath as mp
    got = S2h_alt_sinh_sq_over_expm1(2.1, 1.0)
    want = float(mp.nsum(lambda n: (-1) ** n * mp.sinh(n) ** 2
                         / (n * mp.expm1(mp.mpf("2.1") * n)), [1, mp.inf]))
    assert abs(got.value - want) < 1e-12


def test_S2h_value_and_guard():
    got = S2h_alt_sinh_sq_over_expm1(2.0 * PI, 0.5)
    want = direct(lambda n: (-1) ** n * math.sinh(0.5 * n) ** 2
                  / (n * math.expm1(2.0 * PI * n)), 40)
    assert abs(got.value - want) < 1e-16
    with pytest.raises(DomainError):
        S2h_alt_sinh_sq_over_expm1(1.0, 0.5)  # 2 theta = 1.0 >= c


def test_S6_against_closed_form():
    a = S6_alt_sin_over_expm1(2.0, 1.0)
    b = S6closed(2.0, 1.0)
    assert abs(a.value - b.value) < 1e-12
    assert abs(a.value - (-0.11530322195080933)) < 1e-15


def test_S6_trivial_zeros():
    assert S6_alt_sin_over_expm1(1.5, 0.0).value == 0.0
    assert abs(S6_alt_sin_over_expm1(1.5, PI).value) < 1e-15


def test_S7_value_and_zero():
    got = S7_csch_sinh(2.0, 1.0)
    want = direct(lambda n: math.sinh(PI * n) / math.sinh(PI * PI * n), 30)
    assert abs(got.value - want) < 1e-16
    assert abs(got.value - 0.001196109501726815) < 1e-16
    assert S7_csch_sinh(2.0, 0.0).value == 0.0
    assert got.tail_bound < 1e-14


def test_S8_values():
    got = S8_exp_over_cube(1.0)
    want = direct(lambda n: math.exp(2 * n * PI) / (1 + math.exp(2 * n * PI)) ** 3, 20)
    assert abs(got.value - want) < 1e-18
    assert abs(got.value - 3.4678900241373064e-06) < 1e-18


def test_S8_terms_monotone():
    for b in (0.5, 1.0, 2.0):
        terms = [math.exp(-4 * n * PI / b) / (1 + math.exp(-2 * n * PI / b)) ** 3
                 for n in range(1, 11)]
        assert all(t2 < t1 for t1, t2 in zip(terms, terms[1:]))


def test_S8_small_b_first_term_dominates():
    got = S8_exp_over_cube(0.1)
    first = math.exp(-4 * PI / 0.1) / (1 + math.exp(-2 * PI / 0.1)) ** 3
    assert got.value < 1e-50
    assert abs(got.value - first) <= 1e-10 * first


def test_S9_values():
    assert S9_lambert_E2(Nome.from_value(0.0)).value == 0.0
    q = Nome.from_pi_exponent(2.0)
    got = S9_lambert_E2(q)
    # classical weight-2 value at the second lemniscatic point
    assert abs(got.value - (1.0 - 3.0 / PI) / 24.0) < 1e-15
    assert abs(got.value - 0.0018779308936928327) < 1e-16
    got5 = S9_lambert_E2(Nome.from_value(0.5))
    want5 = direct(lambda n: n * 0.5 ** n / (1 - 0.5 ** n), 200)
    assert abs(got5.value - want5) < 1e-12
    assert abs(got5.value - 2.7440338887594884) < 1e-12


def test_S10_values():
    q = Nome.from_value(0.3)
    assert S10_alt_sin_lambert(0.0, q).value == 0.0
    assert abs(S10_alt_sin_lambert(PI / 2, q).value) < 1e-15
    got = S10_alt_sin_lambert(0.4, q)
    want = direct(lambda n: (-1) ** n * math.sin(0.8 * n) * 0.3 ** (2 * n)
                  / (1 - 0.3 ** (2 * n)), 40)
    assert abs(got.value - want) < 1e-15
    assert abs(got.value - (-0.06327727411384727)) < 1e-15
    assert got.tail_bound < 1e-14


def test_n_cosh_over_sinh_double():
    got = n_cosh_over_sinh_double(1.0)
    want = direct(lambda n: n * math.cosh(n * PI) / math.sinh(2 * n * PI), 60)
    assert abs(got.value - want) < 1e-15
    # collapses to S4/2 analytically; cross-tie the evaluators
    assert abs(got.value - 0.5 * S4_n_over_sinh(1.0).value) < 1e-15


# -- parity, exact ------------------------------------------------------------

def test_S1_even_in_t_exact():
    assert S1_cosh_over_sinh(1.0, 0.3).value == S1_cosh_over_sinh(1.0, -0.3).value


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.05, max_value=2.5))
def test_odd_parity_exact(v):
    assert S6_alt_sin_over_expm1(1.5, -v).value == -S6_alt_sin_over_expm1(1.5, v).value
    assert S7_csch_sinh(2.0, -v).value == -S7_csch_sinh(2.0, v).value
    assert (S10_alt_sin_lambert(-v, Nome.from_value(0.3)).value
            == -S10_alt_sin_lambert(v, Nome.from_value(0.3)).value)


# -- domain guards, convergence control ---------------------------------------

def test_S1_domain_guard():
    with pytest.raises(DomainError):
        S1_cosh_over_sinh(1.0, PI / 2)  # 2|t| = pi = pi*a
    with pytest.raises(DomainError):
        S1_cosh_over_sinh(1.0, 1.6)
    with pytest.raises(DomainError):
        S1_cosh_over_sinh(-1.0, 0.0)


def test_S7_domain_guard():
    with pytest.raises(DomainError):
        S7_csch_sinh(2.0, PI)
    with pytest.raises(DomainError):
        S7_csch_sinh(2.0, 3.5)


def test_non_convergence_at_cap():
    # decay e^((2t - pi a) n) with 2t just under pi*a converges far too slowly
    with pytest.raises(NonConvergenceError):
        S1_cosh_over_sinh(1.0, 1.5707, TruncationPolicy(cap=500))


def test_undefined_term_is_a_domain_error_naming_n():
    # sin(n v) for v = 1e308 overflows to sin(inf) at n = 2.
    with pytest.raises(DomainError, match="n=2"):
        S6_alt_sin_over_expm1(1.0, 1e308)


@pytest.mark.parametrize("a", [1e308, math.inf])
def test_a_term_dividing_by_zero_is_a_domain_error_naming_n(a):
    # 2 n pi^2 / a underflows, so 1 - e^(-2x) in the csch rounds to 0
    with pytest.raises(DomainError) as excinfo:
        S7_csch_sinh(a, 0.5)
    assert str(excinfo.value) == "term at n=1 is undefined: float division by zero"


def test_ellid_error_from_a_term_passes_through():
    def term(n):
        raise NonConvergenceError("inner")
    with pytest.raises(NonConvergenceError, match="inner"):
        sum_series(term)


def test_cap_doubling_changes_nothing_within_tail():
    base = S4_n_over_sinh(1.0, TruncationPolicy(cap=10000))
    doubled = S4_n_over_sinh(1.0, TruncationPolicy(cap=20000))
    assert abs(base.value - doubled.value) <= base.tail_bound


def test_tolerance_band():
    tight = S1_cosh_over_sinh(1.0, 0.3, TruncationPolicy(tolerance=1e-14))
    loose = S1_cosh_over_sinh(1.0, 0.3, TruncationPolicy(tolerance=1e-10))
    assert abs(tight.value - loose.value) <= 1.1e-10
    assert loose.tail_bound <= 1e-10


def test_bit_identical_reruns():
    a = S6_alt_sin_over_expm1(1.0, 0.7)
    b = S6_alt_sin_over_expm1(1.0, 0.7)
    assert a.value == b.value and a.terms_used == b.terms_used


def test_policy_validation():
    with pytest.raises(DomainError):
        TruncationPolicy(tolerance=0.0)
    with pytest.raises(DomainError):
        TruncationPolicy(cap=0)


def test_sum_series_zero_envelope_short_circuits():
    res = sum_series(lambda n: (0.0, 0.0))
    assert res.value == 0.0 and res.terms_used == 1 and res.tail_bound == 0.0


# -- Bernoulli / zeta ----------------------------------------------------------

def test_bernoulli_table():
    assert bernoulli_B2n(0) == 1.0
    assert bernoulli_B2n(1) == 1.0 / 6.0
    assert bernoulli_B2n(2) == -1.0 / 30.0
    assert bernoulli_B2n(3) == 1.0 / 42.0
    assert abs(bernoulli_B2n(20) - (-261082718496449122051 / 13530)) < 1e-2
    with pytest.raises(DomainError):
        bernoulli_B2n(21)
    with pytest.raises(DomainError):
        bernoulli_B2n(-1)


def test_zeta_negative_odd():
    assert abs(zeta_neg(1) - (-1.0 / 12.0)) == 0.0
    assert abs(zeta_neg(2) - (1.0 / 120.0)) == 0.0
    assert abs(zeta_neg(3) - (-1.0 / 252.0)) == 0.0
    with pytest.raises(DomainError):
        zeta_neg(0)


def test_zeta_even_values():
    assert abs(zeta_even(1) - PI ** 2 / 6.0) < 1e-15
    assert abs(zeta_even(2) - PI ** 4 / 90.0) < 1e-14
    assert abs(zeta_even(3) - PI ** 6 / 945.0) < 1e-13


# -- Bernoulli table and zeta values, bit for bit ----------------------------

def _bernoulli_reference(count):
    """B_0..B_(count-1) from sum_(k<=m) C(m+1, k) B_k = 0, exactly."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def test_bernoulli_and_zeta_bits_match_exact_rationals():
    ref = _bernoulli_reference(41)
    for n in range(21):
        b2n = ref[2 * n]
        assert bernoulli_B2n(n).hex() == float(b2n).hex()
        if n == 0:
            with pytest.raises(DomainError):
                zeta_neg(n)
            with pytest.raises(DomainError):
                zeta_even(n)
            continue
        assert zeta_neg(n).hex() == float(-b2n / (2 * n)).hex()
        sign = 1 if n % 2 == 1 else -1
        want = float(sign * b2n / (2 * math.factorial(2 * n))) * (2.0 * PI) ** (2 * n)
        assert zeta_even(n).hex() == want.hex()
    with pytest.raises(DomainError):
        bernoulli_B2n(21)


# One failing argument per argument check, with its exact message.
ARGUMENT_CHECKS = [
    (S1_cosh_over_sinh, (-1.5, 0.1), "S1 requires a > 0, got -1.5"),
    (S1_cosh_over_sinh, (0.1, -0.3),
     "S1 divergence: angle scale 0.6 must stay below pi*a = 0.3141592653589793"),
    (S2_alt_sin_sq_over_expm1, (0.0, 1.0), "S2 requires c > 0, got 0.0"),
    (S2h_alt_sinh_sq_over_expm1, (-2.0, 0.1), "S2h requires c > 0, got -2.0"),
    (S2h_alt_sinh_sq_over_expm1, (1.0, -0.5),
     "S2h divergence: 2|theta| = 1.0 must stay below c = 1.0"),
    (S3_alt_n_over_expm1, (0.0,), "S3 requires c > 0, got 0.0"),
    (S3sq_alt_nsq_over_expm1, (-0.0,), "S3sq requires c > 0, got -0.0"),
    (S4_n_over_sinh, (-1.0,), "S4 requires b > 0, got -1.0"),
    (S5_sech, (math.nan,), "S5 requires a > 0, got nan"),
    (S5sq_sech2, (0.0,), "S5sq requires x > 0, got 0.0"),
    (S6_alt_sin_over_expm1, (-math.inf, 1.0), "S6 requires a > 0, got -inf"),
    (S6closed, (0.0, 1.0), "S6closed requires a > 0, got 0.0"),
    (S6closed, (1.0, math.nan), "S6closed requires a finite v, got nan"),
    (S7_csch_sinh, (0.0, 0.5), "S7 requires a > 0, got 0.0"),
    (S7_csch_sinh, (1.0, -4.0), "S7 divergence: |v| = 4.0 must stay below pi"),
    (S8_exp_over_cube, (-0.5,), "S8 requires b > 0, got -0.5"),
    (n_cosh_over_sinh_double, (0.0,), "series requires a > 0, got 0.0"),
]


@pytest.mark.parametrize("fn, args, message", ARGUMENT_CHECKS,
                         ids=[f"{fn.__name__}{args}" for fn, args, _ in ARGUMENT_CHECKS])
def test_argument_checks_raise_their_exact_message(fn, args, message):
    with pytest.raises(DomainError) as excinfo:
        fn(*args)
    assert type(excinfo.value) is DomainError
    assert str(excinfo.value) == message


@pytest.mark.parametrize("v", [math.inf, -math.inf, math.nan])
def test_s6closed_refuses_a_nonfinite_v(v):
    # sin(+-inf) raised a bare ValueError, and a NaN v summed to the cap
    with pytest.raises(DomainError) as excinfo:
        S6closed(1.0, v)
    assert str(excinfo.value) == f"S6closed requires a finite v, got {v!r}"
