"""The ladder-like sum bridging two order -n polylogarithms to orders 0..-n.

The central relation,

    Li[-n](z) - Li[-n](-z) = (2/z) * sum_{k=0}^n C(n,k) (-1)^(n-k) 2^k Li[-k](z^2),

is verified exactly in the rational-function layer (no tolerances), along
with its chi and Ti restatements

    z chi[-n](z) = sum_k c_k Li[-k](z^2),
    z Ti[-n](z)  = -sum_k c_k Li[-k](-z^2),

and the rotated variant

    Li[-n](iz) - Li[-n](-iz) = (2/(iz)) sum_k c_k Li[-k](-z^2).

The coefficient vector is c_k = (-1)^(n-k) 2^k C(n,k).

The Leibniz route expands csc x = exp(-ix)(i + cot x) with the general
Leibniz rule, giving a further csc-derivative evaluator

    (d/dx)^n csc x = 2 i^(n-1) exp(-ix) sum_k c_k Li[-k](exp(2ix)),

used as an extra cross-check against the circular-module routes.  (Note the
summand order is -k, matching the Leibniz expansion term by term.)

Every relation is checked exactly, as an equality of canonical rational
functions, and so holds at every z; the Leibniz route is the module's only
float code, and the numeric trig suite measures it.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from .algebra import I, Polynomial, RationalFunction, poly_exact_div, rf_eval, substitute
from .combinatorics import binomial
from .jets import check_point
from .numutil import checked_real, i_power
from .polylog import chi_neg, li_neg, ti_neg

__all__ = [
    "LadderCoefficients",
    "ladder_coefficients",
    "verify_ladder_exact",
    "chi_ladder",
    "ti_ladder",
    "verify_ladder_sec_variant",
    "leibniz_csc_route",
]

class LadderCoefficients(namedtuple("LadderCoefficients", "n coefficients")):
    """c[k] = (-1)^(n-k) * 2^k * C(n, k), k = 0..n."""

    __slots__ = ()


def ladder_coefficients(n: int) -> LadderCoefficients:
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = tuple((-1) ** (n - k) * 2**k * binomial(n, k) for k in range(n + 1))
    return LadderCoefficients(n, coeffs)


def _li_even(k: int) -> tuple[Polynomial, Polynomial]:
    """Numerator and denominator of Li[-k](z^2)."""
    f = li_neg(k)
    return f.num.square_arg(), f.den.square_arg()


def _li_even_neg(k: int) -> tuple[Polynomial, Polynomial]:
    """Numerator and denominator of Li[-k](-z^2)."""
    f = li_neg(k)
    return f.num.turn_arg(2).square_arg(), f.den.turn_arg(2).square_arg()


def _weighted_sum(n: int, term) -> RationalFunction:
    """sum_k c_k term(k), built as one numerator over the last term's denominator.

    Up to sign, the k-th denominator is (z^2 - 1)^(k+1) for Li[-k](z^2) and
    (z^2 + 1)^(k+1) for Li[-k](-z^2), so each one divides the next.  The
    running numerator is carried forward by that exact quotient (poly_exact_div
    raises if it is not one), and the sum is canonicalized once, with a full gcd.
    """
    c = ladder_coefficients(n).coefficients
    num, den = term(0)
    num = num * c[0]
    for k in range(1, n + 1):
        p, q = term(k)
        num = num * poly_exact_div(q, den) + p * c[k]
        den = q
    return RationalFunction(num, den)


def _li_sum(n: int, w: complex) -> complex:
    """sum_k c_k Li[-k](w) in floats, added left to right."""
    c = ladder_coefficients(n).coefficients
    s = 0j
    for k in range(n + 1):
        s += c[k] * rf_eval(li_neg(k), w)
    return s


def verify_ladder_exact(n: int) -> bool:
    """Exact check of the main relation at order -n."""
    f = li_neg(n)
    lhs = f - substitute(f, "negate_z")
    two_over_z = RationalFunction(Polynomial([2]), Polynomial.variable())
    rhs = two_over_z * _weighted_sum(n, _li_even)
    return lhs == rhs


def chi_ladder(n: int) -> bool:
    """Exact check of z * chi[-n](z) = sum_k c_k Li[-k](z^2)."""
    z = RationalFunction(Polynomial.variable(), Polynomial.one())
    return z * chi_neg(n) == _weighted_sum(n, _li_even)


def ti_ladder(n: int) -> bool:
    """Exact check of z * Ti[-n](z) = -sum_k c_k Li[-k](-z^2)."""
    z = RationalFunction(Polynomial.variable(), Polynomial.one())
    return z * ti_neg(n) == -_weighted_sum(n, _li_even_neg)


def verify_ladder_sec_variant(n: int) -> bool:
    """Exact check of the rotated relation, i.e. the main one under z -> iz."""
    f = li_neg(n)
    lhs = substitute(f, "i_times_z") - substitute(substitute(f, "negate_z"), "i_times_z")
    two_over_iz = RationalFunction(Polynomial([2]), Polynomial([0, I]))
    rhs = two_over_iz * _weighted_sum(n, _li_even_neg)
    return lhs == rhs


def leibniz_csc_route(n: int, x: float) -> float:
    """(d/dx)^n csc x from the Leibniz expansion of exp(-ix)(i + cot x)."""
    check_point("csc", x)
    val = 2 * i_power(n - 1) * cmath.exp(-1j * x) * _li_sum(n, cmath.exp(2j * x))
    return checked_real(val, context=f"Leibniz csc route n={n}, x={x}")
