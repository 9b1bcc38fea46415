"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s / in captured
output); the assertions carry the same bounds, so pytest's own verdict
matches the printed line.
"""

import contextlib
import json
import math
import time

from scipy.integrate import quad

from ellid import (Classification, EllipticArgument, PolynomialSpec,
                   S2_alt_sin_sq_over_expm1, S2h_alt_sinh_sq_over_expm1,
                   S1_cosh_over_sinh, S3_alt_n_over_expm1,
                   S3sq_alt_nsq_over_expm1, S4_n_over_sinh, S5_sech,
                   S5sq_sech2, S6_alt_sin_over_expm1, S6closed, S7_csch_sinh,
                   S8_exp_over_cube, S9_lambert_E2, S10_alt_sin_lambert,
                   Nome, ThetaKind, TruncationPolicy, dadk_candidates,
                   dadk_fd, default_registry, ellint_E, ellint_K,
                   legendre_defect, log_theta_derivative,
                   poly_even_zeta_integral, poly_even_zeta_sum)
from ellid.cli import main
from ellid.series import n_cosh_over_sinh_double

PI = math.pi


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number:2d} FAIL: {label}")
        raise
    print(f"CRITERION {number:2d} PASS: {label}")


def test_criterion_01_core_oracles():
    with criterion(1, "core elliptic oracle suite"):
        t0 = time.monotonic()
        assert ellint_K(EllipticArgument.from_modulus(0.0)) == PI / 2
        assert ellint_E(EllipticArgument.from_modulus(0.0)) == PI / 2
        got = ellint_K(EllipticArgument.from_modulus(1.0 / math.sqrt(2.0)))
        ref = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(PI))
        assert abs(got - ref) / ref <= 1e-12
        for i in range(1, 20):
            k = 0.05 * i
            assert abs(legendre_defect(EllipticArgument.from_modulus(k))) <= 1e-12
        assert time.monotonic() - t0 < 1.0


def test_criterion_02_p1_grid():
    with criterion(2, "P1 product/series link on the full grid"):
        t0 = time.monotonic()
        reports = default_registry().run(["P1"])
        assert len(reports) == 9
        for r in reports:
            assert r.rel_residual <= 1e-10, r.params
        assert time.monotonic() - t0 < 1.0


def test_criterion_03_e4_e5():
    with criterion(3, "E4 and E5 chain identities"):
        for r in default_registry().run(["E4"]) + default_registry().run(["E5"]):
            assert r.rel_residual <= 1e-9, (r.identity, r.params)
        at_one = [r for r in default_registry().run(["E4"]) if r.params["a"] == 1.0][0]
        assert abs(at_one.lhs - (-0.0018640)) < 1e-7
        assert abs(at_one.rhs - (-0.0018640)) < 1e-7


def test_criterion_04_e5b_e5c_e7b():
    with criterion(4, "E5b, E5c, E7b hyperbolic-sum identities"):
        for identity in ("E5b", "E5c", "E7b"):
            for r in default_registry().run([identity]):
                assert r.rel_residual <= 1e-9, (identity, r.params)
        at_one = [r for r in default_registry().run(["E5c"]) if r.params["x"] == 1.0][0]
        assert abs(at_one.lhs - 0.0074559) < 1e-7
        assert abs(at_one.rhs - (-4.0 * S3_alt_n_over_expm1(2.0 * PI).value)) < 1e-15


def test_criterion_05_p6b_adjudication():
    with criterion(5, "P6b sech-sum adjudication"):
        reports = default_registry().run(["P6b"])
        for r in reports:
            if r.variant == "base":
                assert r.classification is Classification.FAIL
                assert abs(r.abs_residual - 1.0) <= 1e-3
            else:
                assert r.classification is Classification.PASS
                assert r.abs_residual <= 1e-10
        assert abs(S5_sech(1.0).value - 0.0901703) <= 1e-6


def test_criterion_06_p9_conventions():
    with criterion(6, "P9 descending transformation by convention"):
        reports = default_registry().run(["P9"])
        for r in reports:
            if r.variant == "parameter":
                assert r.rel_residual <= 1e-11, r.params
            else:
                # recorded whatever they are: classified or error-noted
                assert r.classification in (Classification.PASS,
                                            Classification.INCONCLUSIVE,
                                            Classification.FAIL)


def test_criterion_07_p7_derivative_audit():
    with criterion(7, "P7 period-ratio derivative audit"):
        for k in (0.3, 1.0 / math.sqrt(2.0), 0.7):
            arg = EllipticArgument.from_modulus(k)
            fd = dadk_fd(arg).value
            classical = dadk_candidates(arg)["classical"]
            assert abs(fd - classical) <= 1e-6 * abs(classical)
        # the stated formula's deviation is recorded, never asserted true
        arg = EllipticArgument.from_parameter(0.5)
        stated = dadk_candidates(arg)["stated-formula"]
        fd = dadk_fd(arg).value
        deviation = abs(stated - fd) / abs(fd)
        assert 0.005 < deviation < 0.009
        for r in default_registry().run(["P7"]):
            if r.variant == "base":
                assert r.classification is not Classification.PASS


def test_criterion_08_p11a_derivative_identities():
    with criterion(8, "P11a polynomial-weighted derivative identity"):
        for r in default_registry().run(["P11a"]):
            assert r.rel_residual <= 1e-8, r.params
        # derivative engine validated by finite-difference order consistency
        q = Nome.from_pi_exponent(1.0)
        s, h = 0.25, 1e-4
        for order in (0, 1, 2, 3):
            fd = (log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, order, s + h, q)
                  - log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, order, s - h, q)) / (2 * h)
            got = log_theta_derivative(ThetaKind.THETA4_IMAG_HALF, order + 1, s, q)
            assert abs(got - fd) <= 1e-6 * max(abs(got), 1e-6)


def test_criterion_09_zeta_collapse_machinery():
    with criterion(9, "collapsed zeta sum and its exact integral"):
        F = PolynomialSpec.monomial(4)
        t = 1.5
        got = poly_even_zeta_sum(F, t)
        assert abs(got - t ** 4 / 60.0) <= 1e-13
        direct = 24.0 * sum(((complex(0.0, -1.0) * t / (2.0 * PI * n)) ** 4).real
                            for n in range(1, 3000))
        assert abs(got - direct) <= 1e-11
        integral = poly_even_zeta_integral(F)
        assert abs(integral - 0.125) <= 1e-13
        val, _ = quad(lambda u: poly_even_zeta_sum(F, u) / u, 1.0, 2.0,
                      epsabs=1e-14, epsrel=1e-14)
        assert abs(integral - 2.0 * val) <= 1e-12


CONTESTED = ("P2", "P2b", "P3", "E7", "E8", "P4", "P4b", "P5", "P6", "P7b",
             "P8", "P10", "P10a", "P11b", "P12")


def test_criterion_10_contested_classified_and_deterministic(tmp_path):
    with criterion(10, "contested entries classified; runs byte-identical"):
        for identity in CONTESTED:
            for r in default_registry().run([identity]):
                assert r.note == "", (identity, r.params, r.note)
                assert math.isfinite(r.lhs) and math.isfinite(r.rhs)
        t0 = time.monotonic()
        p1, p2, p3 = (tmp_path / n for n in ("a.json", "b.json", "c.json"))
        for path in (p1, p2, p3):
            assert main(["check-all", "--format", "json", "--out", str(path)]) == 0
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"check-all too slow: {elapsed:.1f}s"
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes() == p3.read_bytes()
        assert len(json.loads(b1)) == 172


SERIES_GRID = (
    (lambda pol: S1_cosh_over_sinh(0.8, 0.3, pol), "S1(0.8, 0.3)"),
    (lambda pol: S1_cosh_over_sinh(1.0, 0.0, pol), "S1(1, 0)"),
    (lambda pol: S1_cosh_over_sinh(1.5, 0.1, pol), "S1(1.5, 0.1)"),
    (lambda pol: S2_alt_sin_sq_over_expm1(2 * PI, 0.5, pol), "S2(2pi, 0.5)"),
    (lambda pol: S2_alt_sin_sq_over_expm1(PI, 0.2, pol), "S2(pi, 0.2)"),
    (lambda pol: S2_alt_sin_sq_over_expm1(4 * PI, 0.4, pol), "S2(4pi, 0.4)"),
    (lambda pol: S2h_alt_sinh_sq_over_expm1(2 * PI, 0.5, pol), "S2h(2pi, 0.5)"),
    (lambda pol: S2h_alt_sinh_sq_over_expm1(PI, 0.3, pol), "S2h(pi, 0.3)"),
    (lambda pol: S2h_alt_sinh_sq_over_expm1(4 * PI, 1.0, pol), "S2h(4pi, 1)"),
    (lambda pol: S3_alt_n_over_expm1(2 * PI, pol), "S3(2pi)"),
    (lambda pol: S3_alt_n_over_expm1(PI, pol), "S3(pi)"),
    (lambda pol: S3_alt_n_over_expm1(4 * PI, pol), "S3(4pi)"),
    (lambda pol: S3sq_alt_nsq_over_expm1(2 * PI, pol), "S3sq(2pi)"),
    (lambda pol: S3sq_alt_nsq_over_expm1(PI, pol), "S3sq(pi)"),
    (lambda pol: S3sq_alt_nsq_over_expm1(4 * PI, pol), "S3sq(4pi)"),
    (lambda pol: S4_n_over_sinh(0.5, pol), "S4(0.5)"),
    (lambda pol: S4_n_over_sinh(1.0, pol), "S4(1)"),
    (lambda pol: S4_n_over_sinh(2.0, pol), "S4(2)"),
    (lambda pol: S5_sech(0.5, pol), "S5(0.5)"),
    (lambda pol: S5_sech(1.0, pol), "S5(1)"),
    (lambda pol: S5_sech(2.0, pol), "S5(2)"),
    (lambda pol: S5sq_sech2(0.5, pol), "S5sq(0.5)"),
    (lambda pol: S5sq_sech2(1.0, pol), "S5sq(1)"),
    (lambda pol: S5sq_sech2(2.0, pol), "S5sq(2)"),
    (lambda pol: S6_alt_sin_over_expm1(1.0, 0.5, pol), "S6(1, 0.5)"),
    (lambda pol: S6_alt_sin_over_expm1(2.0, 1.0, pol), "S6(2, 1)"),
    (lambda pol: S6_alt_sin_over_expm1(4.0, 2.0, pol), "S6(4, 2)"),
    (lambda pol: S6closed(1.0, 0.5, pol), "S6closed(1, 0.5)"),
    (lambda pol: S6closed(2.0, 1.0, pol), "S6closed(2, 1)"),
    (lambda pol: S6closed(4.0, 2.0, pol), "S6closed(4, 2)"),
    (lambda pol: S7_csch_sinh(2.0, 0.5, pol), "S7(2, 0.5)"),
    (lambda pol: S7_csch_sinh(2.0, 1.0, pol), "S7(2, 1)"),
    (lambda pol: S7_csch_sinh(4.0, 2.0, pol), "S7(4, 2)"),
    (lambda pol: S8_exp_over_cube(0.5, pol), "S8(0.5)"),
    (lambda pol: S8_exp_over_cube(1.0, pol), "S8(1)"),
    (lambda pol: S8_exp_over_cube(2.0, pol), "S8(2)"),
    (lambda pol: S9_lambert_E2(Nome.from_pi_exponent(1.0), pol), "S9(e^-pi)"),
    (lambda pol: S9_lambert_E2(Nome.from_pi_exponent(2.0), pol), "S9(e^-2pi)"),
    (lambda pol: S9_lambert_E2(Nome(0.5), pol), "S9(0.5)"),
    (lambda pol: S10_alt_sin_lambert(0.4, Nome(0.3), pol), "S10(0.4, 0.3)"),
    (lambda pol: S10_alt_sin_lambert(0.3, Nome.from_pi_exponent(1.0), pol), "S10(0.3, e^-pi)"),
    (lambda pol: S10_alt_sin_lambert(0.6, Nome(0.2), pol), "S10(0.6, 0.2)"),
    (lambda pol: n_cosh_over_sinh_double(0.5, pol), "ncosh/sinh2(0.5)"),
    (lambda pol: n_cosh_over_sinh_double(1.0, pol), "ncosh/sinh2(1)"),
    (lambda pol: n_cosh_over_sinh_double(2.0, pol), "ncosh/sinh2(2)"),
)


def test_criterion_11_cap_doubling_robustness():
    with criterion(11, "series robustness under cap doubling"):
        base_pol = TruncationPolicy(cap=10000)
        double_pol = TruncationPolicy(cap=20000)
        for fn, label in SERIES_GRID:
            base = fn(base_pol)
            doubled = fn(double_pol)
            assert abs(base.value - doubled.value) <= base.tail_bound, label


def test_tolerance_band_across_series_bank():
    tight = TruncationPolicy(tolerance=1e-14)
    loose = TruncationPolicy(tolerance=1e-10)
    for fn, label in SERIES_GRID:
        assert abs(fn(tight).value - fn(loose).value) <= 1.1e-10, label
