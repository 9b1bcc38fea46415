"""ellid: a numerical audit harness for elliptic, theta and Lambert-series
identities.

The library half evaluates complete elliptic integrals (AGM), Jacobi theta
functions and their log-derivatives, singular moduli, and a bank of
error-controlled Lambert/hyperbolic series.  The audit half holds a registry
of identities with contested variants, evaluates both sides of each over
fixed grids, and classifies the residuals into deterministic reports.
"""

from .elliptic import (Convention, EllipticArgument, Nome, agm, dK, ellint_E,
                       ellint_K, ellint_K_extended, legendre_defect)
from .errors import (ConfigError, ConstraintError, DomainError, EllidError,
                     NonConvergenceError, PoleError, RangeError,
                     SingularArgumentError, UnknownIdentityError,
                     UnsupportedOrderError)
from .registry import (Classification, Expectation, IdentityRecord,
                       PolynomialSpec, Registry, ResidualReport, Variant,
                       build_registry, classify, default_registry,
                       evaluate_identity, poly_even_zeta_integral,
                       poly_even_zeta_sum, poly_weighted_log_theta2_sum,
                       poly_weighted_log_theta4_sum, run_all, run_grid)
from .series import (DEFAULT_POLICY, SeriesResult, TruncationPolicy,
                     S1_cosh_over_sinh, S2_alt_sin_sq_over_expm1,
                     S2h_alt_sinh_sq_over_expm1, S3_alt_n_over_expm1,
                     S3sq_alt_nsq_over_expm1, S4_n_over_sinh, S5_sech,
                     S5sq_sech2, S6_alt_sin_over_expm1, S6closed,
                     S7_csch_sinh, S8_exp_over_cube, S9_lambert_E2,
                     S10_alt_sin_lambert, bernoulli_B2n, zeta_even, zeta_neg)
from .singular import (DerivativeEstimate, SingularSolve, a_of_k,
                       dadk_candidates, dadk_fd, solve_k)
from .theta import (ThetaKind, euler_product, log_theta_derivative,
                    q_product_P0, theta2, theta3, theta4, theta4_imag,
                    theta4_u_derivative_imag, theta_u_derivative)

__version__ = "0.1.0"
