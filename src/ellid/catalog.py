"""The record table: every cataloged identity, its grid and its variants."""

from __future__ import annotations

import math
from functools import partial

from .elliptic import Convention, Nome
from .registry import (Expectation, IdentityRecord, ParamSpec, PolynomialSpec,
                       Registry, Variant, poly_even_zeta_integral,
                       poly_weighted_log_theta2_sum)
from .series import (S1_cosh_over_sinh, S4_n_over_sinh, S5_sech, S5sq_sech2,
                     S6_alt_sin_over_expm1, S6closed)
from .sides import (_P12_POLY, _e4_lhs, _e4_rhs, _e5_lhs, _e5b_rhs, _e5c_rhs,
                    _e7_lhs, _e7_rhs, _e8_lhs, _e8_rhs, _log_theta4_shift_sum,
                    _p1_rhs, _p2_lhs, _p2_lhs_sinh, _p2_rhs, _p2_rhs_theta2,
                    _p2b_lhs, _p2b_rhs, _p3_lhs, _p3_rhs, _p4_lhs, _p4_rhs,
                    _p4b_lhs, _p4b_rhs, _p5_lhs, _p5_lhs_shifted, _p5_rhs,
                    _p6_lhs, _p6_rhs, _p6b_rhs, _p7_lhs, _p7_rhs_fd, _p7b_lhs,
                    _p7b_rhs_k, _p7b_rhs_plus_half, _p7b_rhs_sech, _p8_lhs,
                    _p8_rhs, _p9_lhs_modulus, _p9_lhs_parameter, _p9_rhs,
                    _p10_lhs, _p10a_zeta_term, _p11a_lhs, _p11a_rhs,
                    _p11b_rhs, _p12_rhs_derived, _p12_rhs_printed, _zero_rhs)
from .singular import _dadk_classical, _dadk_stated

def build_registry() -> "Registry":
    pi = math.pi
    # One object for each side that variants share, so a run evaluates it
    # once per point (see _reports_at).
    e8_lhs, e8_rhs = partial(_e8_lhs, 4.0), partial(_e8_rhs, 1.0)
    p12_lhs = partial(poly_weighted_log_theta2_sum, _P12_POLY)
    p11b_x2, p11b_x_x2 = PolynomialSpec((0.0, 0.0, 1.0)), PolynomialSpec((0.0, 1.0, 1.0))
    records = [
        IdentityRecord(
            "P1",
            "sum cosh(2tn)/(n sinh(pi a n)) = log P0 - log theta4(it, e^(-a pi))",
            (ParamSpec("a", (0.8, 1.0, 1.5), lo=0.05, hi=20.0),
             ParamSpec("t", (0.0, 0.1, 0.3), lo=0.0, hi=10.0)),
            (Variant("base", S1_cosh_over_sinh, _p1_rhs),),
            Expectation.EXPECT_PASS,
            constraint=lambda p: 2.0 * abs(p["t"]) < pi * p["a"],
            constraint_note="2|t| < pi*a"),
        IdentityRecord(
            "P2",
            "4 sum (-1)^n sin(theta n)^2/((e^(2 pi n a)-1) n) = "
            "log(theta4(i theta/a, e^(-pi/a)) / (theta4(0, e^(-pi/a)) cos theta)) "
            "- theta^2/(a pi)",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),
             ParamSpec("theta", (0.2, 0.5), lo=0.0, hi=1.2)),
            (Variant("base", _p2_lhs, _p2_rhs),
             # proof text uses sinh^2 where the statement has sin^2
             Variant("sinh-squared", _p2_lhs_sinh, _p2_rhs),
             # same right side through theta2 at nome e^(-pi a), no Gaussian
             # correction term
             Variant("theta2-direct", _p2_lhs, _p2_rhs_theta2)),
            Expectation.CONTESTED,
            constraint=lambda p: abs(p["theta"]) < min(0.5 * pi, pi * p["a"]),
            constraint_note="|theta| < min(pi/2, pi*a)"),
        IdentityRecord(
            "P2b",
            "d theta4/du (iz, e^(-z)) + 2i theta4(iz, e^(-z)) = 0, "
            "read as the real series -4 sum (-1)^n n q^(n^2) sinh(2nz) "
            "+ 2 theta4(iz, q) = 0",
            (ParamSpec("z", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),),
            (Variant("base", partial(_p2b_lhs, Nome.from_exponent),
                     partial(_p2b_rhs, Nome.from_exponent)),
             # alternative reading with nome e^(-pi z)
             Variant("nome-exp-pi-z", partial(_p2b_lhs, Nome.from_pi_exponent),
                     partial(_p2b_rhs, Nome.from_pi_exponent))),
            Expectation.CONTESTED),
        IdentityRecord(
            "P3",
            "2 d^2/dt^2 log theta4(i t pi/2, e^(-2 pi a)) at t=a = "
            "K(k_a) E(k_a) - K(k_a)^2",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p3_lhs, _p3_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "E4",
            "sum (-1)^n n/(e^(2 pi n/a)-1) = 1/8 - a/(4 pi) "
            "+ a^2 K(k_a)(E(k_a)-K(k_a))/(2 pi^2)",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _e4_lhs, _e4_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E5",
            "-1/4 + a/(2 pi) + 2 sum (-1)^n n/(e^(2 pi n/a)-1) "
            "+ 2 a^2 sum n cosh(a n pi)/sinh(2 a n pi) = 0",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),),
            (Variant("base", _e5_lhs, _zero_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E5b",
            "sum n/sinh(pi b n) = (K(k_b)/pi^2)(K(k_b) - E(k_b))",
            (ParamSpec("b", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", S4_n_over_sinh, _e5b_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E5c",
            "sum sech(pi n x)^2 = -4 sum (-1)^n n/(e^(2 pi n x)-1)",
            (ParamSpec("x", (0.5, 1.0, 2.0), lo=0.05, hi=20.0),),
            (Variant("base", S5sq_sech2, _e5c_rhs),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E7",
            "(a/2) tan(v/2) = v + 2a sum (-1)^n sin(nv)/(e^(an)-1) "
            "+ 2 pi sum csch(2 n pi^2/a) sinh(2 pi n v/a)",
            (ParamSpec("a", (2.0, 4.0), lo=0.05, hi=50.0),
             ParamSpec("v", (0.5, 1.0, 2.0), lo=0.0, hi=3.1)),
            (Variant("base", _e7_lhs, partial(_e7_rhs, False)),
             # hyperbolic sum with a replaced by 1/a, the other plausible pairing
             Variant("inverted-a", _e7_lhs, partial(_e7_rhs, True))),
            Expectation.CONTESTED),
        IdentityRecord(
            "E7b",
            "sum (-1)^n sin(nv)/(e^(an)-1) = "
            "-(1/2) sum sin(v)/(cos(v)+cosh(an))",
            (ParamSpec("a", (1.0, 2.0), lo=0.05, hi=50.0),
             ParamSpec("v", (0.5, 1.0), lo=-10.0, hi=10.0)),
            (Variant("base", S6_alt_sin_over_expm1, S6closed),),
            Expectation.EXPECT_PASS),
        IdentityRecord(
            "E8",
            "4 sum (-1)^n sin(2nz) q^(2n)/(1-q^(2n)) = "
            "tan(z) + (d theta2/dz)/theta2(z, q)",
            (ParamSpec("z", (0.3, 0.6), lo=0.0, hi=1.4),
             # q = e^(-pi) as a literal, so that libm sets no grid value
             ParamSpec("q", (0.2, 0.04321391826377226), lo=0.0, hi=0.9)),
            (Variant("base", e8_lhs, e8_rhs),
             # sign variant on the tangent term
             Variant("minus-tan", e8_lhs, partial(_e8_rhs, -1.0)),
             # scale variant: factor 2 instead of 4
             Variant("half-scale", partial(_e8_lhs, 2.0), e8_rhs)),
            Expectation.CONTESTED,
            # theta2 vanishes identically at q = 0.  A constraint, not a
            # raised lo, so that seeded uniform draws over [lo, hi] are unchanged.
            constraint=lambda p: p["q"] > 0.0,
            constraint_note="q > 0"),
        IdentityRecord(
            "P4",
            "e^(x^2 a/pi) theta2(x, e^(-pi/a)) / theta4(iax, e^(-a pi)) is "
            "constant in x (checked on x in {0, 0.1, 0.2, 0.3})",
            (ParamSpec("a", (1.0, 2.0), lo=0.05, hi=20.0),),
            # lhs/rhs are the max/min of the bracket over the x grid
            (Variant("base", _p4_lhs, _p4_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P4b",
            "2 pi sum sinh(2 n pi z a)/sinh(n pi^2 a) = "
            "-2z - (1/a) d/dz log theta2(z, e^(-1/a))",
            (ParamSpec("a", (1.0, 2.0), lo=0.05, hi=20.0),
             ParamSpec("z", (0.2, 0.5), lo=0.0, hi=1.5)),
            (Variant("base", _p4b_lhs, _p4b_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P5",
            "-2 sum e^(2 n pi/b)/(1+e^(2 n pi/b))^3 + sum (-1)^n n^2/(e^(2 n pi/b)-1) "
            "= 1/8 - b/(4 pi) + b^2 (E K - K^2)/(2 pi^2) at k_b",
            (ParamSpec("b", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p5_lhs, _p5_rhs),
             # proof text carries (-1)^n n(n+1) in place of (-1)^n n^2
             Variant("n-times-n-plus-1", _p5_lhs_shifted, _p5_rhs)),
            Expectation.CONTESTED),
        IdentityRecord(
            "P6",
            "d/dz theta2(z, e^(-pi/(2a))) at z=pi/4 = "
            "-(2a/pi) theta2(pi/4, e^(-pi/(2a))) K(k_a)",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p6_lhs, _p6_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P6b",
            "sum sech(n pi a) = 1/2 + K(k_a)/pi",
            (ParamSpec("a", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", S5_sech, partial(_p6b_rhs, 0.5)),
             # closed form with -1/2; the desk-checked reading
             Variant("minus-half", S5_sech, partial(_p6b_rhs, -0.5))),
            Expectation.CONTESTED),
        IdentityRecord(
            "P7",
            "da/d(arg) = (dK/d(arg))/(E K - K^2), audited against a "
            "Richardson finite-difference oracle in both conventions",
            (ParamSpec("value", (0.3, 0.5, 0.7), lo=0.05, hi=0.95),
             ParamSpec("convention", ("modulus", "parameter"),
                       choices=("modulus", "parameter"))),
            # stated derivative formula vs the fd oracle
            (Variant("base", partial(_p7_lhs, _dadk_stated), _p7_rhs_fd),
             # textbook period-ratio derivative vs the fd oracle
             Variant("classical", partial(_p7_lhs, _dadk_classical), _p7_rhs_fd)),
            Expectation.CONTESTED),
        IdentityRecord(
            "P7b",
            "2 d/dt log theta4(i t pi/2, e^(-2 pi x)) at t=x = "
            "-pi sum sech(n pi x) = pi/2 - K(k_x)",
            (ParamSpec("x", (0.5, 1.0, 2.0), lo=0.11, hi=20.0),),
            (Variant("base", _p7b_lhs, _p7b_rhs_k),
             # theta derivative against the sech sum alone
             Variant("middle-sum", _p7b_lhs, _p7b_rhs_sech),
             # sech sum replaced by the printed +1/2 closed form
             Variant("plus-half-closed", _p7b_lhs, _p7b_rhs_plus_half)),
            Expectation.CONTESTED),
        IdentityRecord(
            "P8",
            "24 sum n q^n/(1-q^n) = 1 + (6E + (m-5)K)/(pi m (1-m) K dr/dm) "
            "with q = e^(-pi r), m the parameter at ratio r",
            (ParamSpec("r", (1.0, 2.0), lo=0.11, hi=20.0),),
            # dr/dm from the stated derivative formula
            (Variant("base", _p8_lhs, partial(_p8_rhs, _dadk_stated)),
             # dr/dm from the textbook period-ratio derivative
             Variant("classical-drdk", _p8_lhs, partial(_p8_rhs, _dadk_classical))),
            Expectation.CONTESTED),
        IdentityRecord(
            "P9",
            "K(x/(x-1))/sqrt(1-x) = K(x), read in each convention",
            (ParamSpec("x", (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7), lo=0.0, hi=0.7),),
            # descending transformation of the parameter
            (Variant("parameter", _p9_lhs_parameter,
                     partial(_p9_rhs, Convention.PARAMETER)),
             # modulus reading; x/(x-1) leaves the real domain for x >= 1/2
             Variant("modulus", _p9_lhs_modulus, partial(_p9_rhs, Convention.MODULUS))),
            Expectation.CONTESTED),
        IdentityRecord(
            "P10",
            "2 int_1^2 (1/t) sum_n G(t/(2 pi i n)) dt + 2 sum (-1)^n F(n)/(n(e^(an)-1)) "
            "- sum F(ibn)/(n sinh(b n pi)) = 0, ab = 2 pi, F even vanishing "
            "to second order",
            (ParamSpec("fdeg", (4, 6), choices=(4, 6)),
             ParamSpec("b", (1.0, 2.0), lo=0.2, hi=10.0)),
            (Variant("base", partial(_p10_lhs, poly_even_zeta_integral), _zero_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P10a",
            "sum_nu f_(2nu) (2^(2nu)-1) zeta(1-2nu) + 2 sum (-1)^n f(n)/(n(e^(an)-1)) "
            "- sum f(ibn)/(n sinh(b n pi)) = 0, ab = 2 pi",
            (ParamSpec("fdeg", (2, 4), choices=(2, 4)),
             ParamSpec("b", (1.0, 2.0), lo=0.2, hi=10.0)),
            (Variant("base", partial(_p10_lhs, _p10a_zeta_term), _zero_rhs),),
            Expectation.CONTESTED),
        IdentityRecord(
            "P11a",
            "sum (-1)^n f_n d^n/ds^n log theta4(i s/2, e^(-pi a)) = "
            "f(0) log P0 - sum_(n != 0) f(n) e^(-ns)/(2n sinh(pi a n))",
            (ParamSpec("fdeg", (2, 3, 4), choices=(2, 3, 4)),
             ParamSpec("a", (1.0, 2.0), lo=0.11, hi=20.0),
             ParamSpec("s", (0.0, 0.2), lo=0.0, hi=3.0)),
            (Variant("base", _p11a_lhs, _p11a_rhs),),
            Expectation.EXPECT_PASS,
            constraint=lambda p: abs(p["s"]) < pi * p["a"],
            constraint_note="|s| < pi*a"),
        IdentityRecord(
            "P11b",
            "sum f_n log theta4(i(s+n)/2, e^(-pi a)) = "
            "f(1) log P0 - sum_(n != 0) f(e^(-n)) e^(-ns)/(2n sinh(pi a n))",
            (ParamSpec("a", (1.0, 2.0), lo=0.11, hi=20.0),
             ParamSpec("s", (0.0, 0.5), lo=0.0, hi=0.6)),
            (Variant("base", partial(_log_theta4_shift_sum, p11b_x2),
                     partial(_p11b_rhs, p11b_x2)),  # f(x) = x^2
             Variant("mixed-parity", partial(_log_theta4_shift_sum, p11b_x_x2),
                     partial(_p11b_rhs, p11b_x_x2))),  # f(x) = x + x^2
            Expectation.CONTESTED,
            constraint=lambda p: 2.0 + abs(p["s"]) < pi * p["a"],
            constraint_note="deg f + |s| < pi*a"),
        IdentityRecord(
            "P12",
            "sum (-1)^n f_n d^n/ds^n log theta2(s, e^(-1/a)) = 2a - 2a f(0) s "
            "+ a pi sum_(n != 0) f(2 pi n a) e^(-2 pi n s a)/sinh(pi^2 a n), "
            "f(x) = x^2 + x^3",
            (ParamSpec("a", (1.0, 2.0), lo=0.2, hi=20.0),
             ParamSpec("s", (0.3, 0.6), lo=0.0, hi=1.5)),
            (Variant("base", p12_lhs, _p12_rhs_printed),
             # right side rebuilt by transforming theta2 to the theta4 chain:
             # 2a f_1 s - 2a f_2 - sum f(2 pi a n) e^(-2 pi a s n)/(2n sinh(pi^2 a n))
             Variant("derived-bilateral", p12_lhs, _p12_rhs_derived)),
            Expectation.CONTESTED),
    ]
    return Registry(records)
