"""Exact closed forms for the polylogarithm at orders 0, -1, -2, ... and the
machinery built on them: Legendre chi and inverse tangent integral closed
forms, derivative polynomials and multi-route evaluators for tan/cot/sec/csc
and their hyperbolic companions, operator identities for the twelve inverse
functions, and a binomial ladder sum tying orders together.

Everything structural is exact (arbitrary-precision rational, optionally
Gaussian, arithmetic with canonical rational functions); a truncated
Taylor-jet oracle provides the independent numeric cross-checks.
"""

from .algebra import (
    GaussianRational,
    I,
    Polynomial,
    RationalFunction,
    poly_gcd,
    poly_text,
    rf_eval,
    rf_eval_exact,
    rf_from_json,
    rf_to_json,
    rf_to_latex,
    rf_to_text,
    substitute,
    z_ddz,
)
from .circular import (
    TRIG_GRID,
    DerivativePolynomial,
    cot_derivative_poly,
    csc_derivative_binomial,
    csc_derivative_eval,
    csc_derivative_via_li,
    derivative_poly_recurrence,
    sec_derivative_binomial,
    sec_derivative_eval,
    sec_derivative_via_li,
    tan_derivative_poly,
)
from .combinatorics import (
    binomial, eulerian_b, eulerian_b_row, factorial, stirling2, stirling2_row, stirling_power_sum,
)
from .errors import (
    DomainError,
    ImaginaryResidueError,
    NegPolylogError,
    NonConvergenceError,
    OrderExhaustedError,
    PoleError,
    SingularityError,
)
from .hyperbolic import (
    HYP_GRID,
    chi_ti_hyperbolic_relations,
    coth_derivative_poly,
    csch_derivative_eval,
    li_relation_coth,
    li_relation_tanh,
    sech_derivative_eval,
    tanh_derivative_poly,
)
from .inverse import InverseIdentity, registry, verify_generic_operand, verify_identity
from .jets import (
    FUNCTION_IDS,
    SINGULARITY_GUARD,
    Jet,
    apply_operator_power,
    jet_lift,
    laurent_jet,
    nth_derivative,
)
from .ladder import (
    LadderCoefficients,
    chi_ladder,
    ladder_coefficients,
    leibniz_csc_route,
    ti_ladder,
    verify_ladder_exact,
    verify_ladder_sec_variant,
)
from .polylog import (
    chi_from_li,
    chi_neg,
    li_neg,
    li_neg_operator,
    li_neg_stirling,
    li_series_eval,
    ti_from_chi,
    ti_neg,
)
from .reports import PointCheck, VerificationReport, rel_err

__version__ = "0.1.0"
