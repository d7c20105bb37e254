"""Higher derivatives of coth, tanh, csch and sech via real exponentials.

The hyperbolic family mirrors the circular one but needs no complex detour:
substituting a real exponential turns the z d/dz ladder directly into plain
d/dx, so every evaluator here is pure real arithmetic.  It shares the
Eulerian rows, the Stirling kernel and ``DerivativePolynomial`` with the
circular module; the evaluation, in real exponentials, is its own.

Routes provided:

* coth/tanh derivative polynomials from the exact sum over (1 + u)^(k+1)
  with weights (-1)^k k! {n+1 brace k+1} over the denominator 2, summed in
  integers by the same helper as cot/tan (coth and tanh
  satisfy the same first-order equation f' = 1 - f^2, so they share one
  polynomial family);
* csch/sech single-sum routes (``jets.route``): the paper's relations
  2*chi(e^x) = -(d/dx)^n csch x and 2*Ti(e^x) = (d/dx)^n sech x (n >= 0),
  read at t = exp(-|x|) through the inversion z -> 1/z of chi and Ti that
  the core suite proves exactly; chi_neg's and ti_neg's numerators are
  evaluated exactly at the double t and rounded once;
* the polylogarithm relations Li(e^x) = -(1/2) (d/dx)^n coth(x/2) and
  Li(-e^x) = -(1/2) (d/dx)^n tanh(x/2) for n >= 1 (at n = 0 both sides
  differ by the constant 1/2, so n = 0 is excluded from sweeps).

The tan <-> tanh kinship holds by construction: ``_stirling_poly`` builds
both families from one Stirling sum Q, tanh as Q(u) and tan as i^(n-1) Q(iu),
and ``verify core`` checks each family against its own recurrence.
"""

from __future__ import annotations

import math

from .algebra import rf_eval, round_quotient
from .circular import DerivativePolynomial, _stirling_poly
from .jets import nth_derivative, route
from .polylog import chi_neg, ti_neg

__all__ = [
    "HYP_GRID",
    "coth_derivative_poly",
    "tanh_derivative_poly",
    "li_relation_coth",
    "li_relation_tanh",
    "csch_derivative_eval",
    "sech_derivative_eval",
]

# Fixed evaluation grid for the hyperbolic sweeps; all points avoid x = 0,
# the only singularity of coth and csch.
HYP_GRID = (0.3, 0.5, 0.8, 1.2, 2.0)


def coth_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n coth x = P(coth x); real arithmetic throughout."""
    return _stirling_poly("coth", n, -1, 0)


def tanh_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n tanh x = P(tanh x); identical family to coth's."""
    return _stirling_poly("tanh", n, -1, 0)


def li_relation_coth(n: int, x: float) -> float:
    """RHS of Li(e^x) = -(1/2)(d/dx)^n coth(x/2), from the jet oracle.

    The matching LHS is rf_eval(li_neg(n), exp(x)); comparing the two is the
    test suite's job.  Valid for n >= 1 (the n = 0 statement misses the
    constant -1/2).
    """
    return -0.5 * 2.0**-n * nth_derivative("coth", x / 2, n)


def li_relation_tanh(n: int, x: float) -> float:
    """RHS of Li(-e^x) = -(1/2)(d/dx)^n tanh(x/2), from the jet oracle."""
    return -0.5 * 2.0**-n * nth_derivative("tanh", x / 2, n)


@route("csch", "csch single-sum")
def csch_derivative_eval(n: int, x: float) -> float:
    """(d/dx)^n csch x = (-1)^n 2 chi_{-n}(t), t = exp(-x), for x > 0 (csch x = 2t/(1 - t^2),
    d/dx = -t d/dt); csch is odd.  By the inversion of chi this is -2 chi_{-n}(e^x), the paper's
    relation.  chi_neg(n)'s numerator is summed exactly at the double t, as v/e over integers,
    and times the exact 2 c_0/u^(n+1): its denominator is c_0 (1 - t^2)^(n+1), c_0 its constant
    term (+-1), read with u = U_n/U_d the double 1 - t^2 = -expm1(-2|x|), uncancelled.  The
    product v 2 c_0 U_d^(n+1)/(e U_n^(n+1)) is rounded once by ``int / int``."""
    chi, t = chi_neg(n), math.exp(-abs(x))
    (v, _, e), (un, ud) = chi.num.horner(t), (-math.expm1(-2 * abs(x))).as_integer_ratio()
    val = round_quotient(v * 2 * chi.den.re[0] * ud ** (n + 1), e * un ** (n + 1))
    return (-1) ** n * val if x > 0 else -val


@route("sech", "sech single-sum")
def sech_derivative_eval(n: int, x: float) -> float:
    """(d/dx)^n sech x = (-1)^n 2 Ti_{-n}(t), t = exp(-x), for x > 0, from sech x = 2t/(1 + t^2)
    as for csch; sech is even.  By the inversion of Ti this is 2 Ti_{-n}(e^x), the paper's
    relation.  rf_eval sums the alternating numerator, which cancels in floats, exactly at the
    double t and rounds once."""
    val = 2 * rf_eval(ti_neg(n), math.exp(-abs(x))).real
    return (-1) ** n * val if x > 0 else val

