"""Higher derivatives of coth, tanh, csch and sech via real exponentials.

The hyperbolic family mirrors the circular one but needs no complex detour:
substituting a real exponential turns the z d/dz ladder directly into plain
d/dx, so every evaluator here is pure real arithmetic.  It shares the
Eulerian and Stirling kernels (and ``DerivativePolynomial``) with the
circular module; the evaluation, in real exponentials, is its own.

Routes provided:

* coth/tanh derivative polynomials from the exact sum over (1 + u)^(k+1)
  with weights (-1)^k k! {n+1 brace k+1} over the denominator 2, summed in
  integers by the same helper as cot/tan (coth and tanh
  satisfy the same first-order equation f' = 1 - f^2, so they share one
  polynomial family);
* csch/sech single sums over the type-B Eulerian row, in the summation loop
  of csc/sec but in powers of the real t = exp(-|x|);
* the polylogarithm relations Li(e^x) = -(1/2) (d/dx)^n coth(x/2) and
  Li(-e^x) = -(1/2) (d/dx)^n tanh(x/2) for n >= 1 (at n = 0 both sides
  differ by the constant 1/2, so n = 0 is excluded from sweeps), and the
  chi/Ti relations 2*chi(e^x) = -(d/dx)^n csch x, 2*Ti(e^x) = (d/dx)^n sech x
  (these two hold at n = 0 as well: the constants cancel in the difference).

A note on the tan <-> tanh coefficient kinship: the tanh polynomials are the
tan polynomials under u -> iu up to a power of i.  There is no clean real
evaluation point to pin that bookkeeping against the jet oracle, so the
correspondence is documented here but deliberately not machine-asserted;
the recurrence cross-check covers the same ground.
"""

from __future__ import annotations

import math

from .algebra import rf_eval
from .circular import DerivativePolynomial, _eulerian_sum, _stirling_poly
from .jets import check_point, nth_derivative, require_clear
from .polylog import chi_neg, ti_neg
from .reports import VerificationReport, check

__all__ = [
    "HYP_GRID",
    "coth_derivative_poly",
    "tanh_derivative_poly",
    "li_relation_coth",
    "li_relation_tanh",
    "csch_derivative_eval",
    "sech_derivative_eval",
    "chi_ti_hyperbolic_relations",
]

# Fixed evaluation grid for the hyperbolic sweeps; all points avoid x = 0,
# the only singularity of coth and csch.
HYP_GRID = (0.3, 0.5, 0.8, 1.2, 2.0)


def coth_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n coth x = P(coth x); real arithmetic throughout."""
    return _stirling_poly("coth", n, 1, -1, 0)


def tanh_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n tanh x = P(tanh x); identical family to coth's."""
    return _stirling_poly("tanh", n, 1, -1, 0)


def li_relation_coth(n: int, x: float) -> float:
    """RHS of Li(e^x) = -(1/2)(d/dx)^n coth(x/2), from the jet oracle.

    The matching LHS is rf_eval(li_neg(n), exp(x)); comparing the two is the
    test suite's job.  Valid for n >= 1 (the n = 0 statement misses the
    constant -1/2).
    """
    require_clear("coth(x/2)", x, 0.0)
    return -0.5 * 2.0**-n * nth_derivative("coth", x / 2, n)


def li_relation_tanh(n: int, x: float) -> float:
    """RHS of Li(-e^x) = -(1/2)(d/dx)^n tanh(x/2), from the jet oracle."""
    return -0.5 * 2.0**-n * nth_derivative("tanh", x / 2, n)


def csch_derivative_eval(n: int, x: float) -> float:
    """(d/dx)^n csch x = (-1)^n 2 sum_k S(n, k) t^(2k-1)/(1 - t^2)^(n+1), t = exp(-x), for x > 0
    (csch x = 2t/(1 - t^2), d/dx = -t d/dt); csch is odd.  No power of exp(|x|) is formed."""
    check_point("csch", x)
    t = math.exp(-abs(x))
    den = (-math.expm1(-2 * abs(x))) ** (n + 1)  # 1 - t^2 uncancelled; 0.0 beyond double range
    val = 2.0 * _eulerian_sum(n, 1, lambda m: t ** (n - 1 - m), 0.0) / den if den else math.inf
    return (-1) ** n * val if x > 0 else -val


def sech_derivative_eval(n: int, x: float) -> float:
    """(d/dx)^n sech x as for csch, from sech x = 2t/(1 + t^2) by the alternating sum; even."""
    check_point("sech", x)
    t = math.exp(-abs(x))
    val = -2.0 * _eulerian_sum(n, -1, lambda m: t ** (n - 1 - m), 0.0) / (1 + t * t) ** (n + 1)
    return (-1) ** n * val if x > 0 else val


def chi_ti_hyperbolic_relations(n: int, x: float, tol: float = 1e-8) -> VerificationReport:
    """Check 2*chi(e^x) = -(d/dx)^n csch x and 2*Ti(e^x) = (d/dx)^n sech x."""
    require_clear("the csch relation", x, 0.0)
    ex = math.exp(x)
    points = [
        check(x, lambda: (2.0 * rf_eval(chi_neg(n), ex).real, -nth_derivative("csch", x, n)),
              tol, "chi-csch"),
        check(x, lambda: (2.0 * rf_eval(ti_neg(n), ex).real, nth_derivative("sech", x, n)),
              tol, "ti-sech"),
    ]
    return VerificationReport("hyperbolic chi/Ti relations", n, tol, points)
