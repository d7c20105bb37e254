"""The ladder-like sum bridging two order -n polylogarithms to orders 0..-n.

With c_k = (-1)^(n-k) 2^k C(n,k) and S_n(z) = sum_{k=0}^n c_k Li[-k](z), the
central relation, its chi and Ti restatements and the rotated variant are

    Li[-n](z) - Li[-n](-z)   = (2/z) S_n(z^2),
    z chi[-n](z)             = S_n(z^2),
    z Ti[-n](z)              = -S_n(-z^2),
    Li[-n](iz) - Li[-n](-iz) = (2/(iz)) S_n(-z^2).

S_n is built once per order, in z, and memoized; every right side of the four
checks, and the Leibniz form, is a constant times S_n(+-z^2)/z, read off
S_n(+-z^2) by a one-slot shift with no gcd (``_ladder_rhs`` gives the proof).
Each relation is checked exactly, as an equality of canonical rational
functions, so it holds at every z (no tolerances).  The main relation is
checked as written, a difference of two forms, so the odd-part kernel
(``odd_part``) that builds ``chi_from_li`` meets S_n through a route that does
not use it; the rotated relation is checked halved, as the odd part of Li[-n](iz).

The Leibniz route expands csc x = exp(-ix)(i + cot x) with the general
Leibniz rule, giving a further csc-derivative evaluator

    (d/dx)^n csc x = 2 i^(n-1) exp(-ix) S_n(exp(2ix)),

a cross-check on the circular-module routes (the summand order is -k,
matching the Leibniz expansion term by term).  Like them, it is declared by
its exact real form in t = tan(x/2), 2 i^(n-1) S_n(w^2)/w at w = exp(ix),
with ``circular._tan_half_route``, and rounded once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .algebra import I, Polynomial, RationalFunction, _raw, odd_part, poly_exact_div, substitute
from .algebra import rf_eval  # noqa: F401  (a binding perfbench's wrapping check traces)
from .circular import _tan_half_route
from .combinatorics import binomial
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


@cache
def _weighted_sum(n: int) -> RationalFunction:
    """S_n(z) = sum_k c_k Li[-k](z), one numerator over the last term's denominator.

    Up to sign the k-th denominator is (1 - z)^(k+1), so each divides the next: the running
    numerator is carried forward by that exact quotient (poly_exact_div raises if it is not
    one), and the sum is canonicalized once, with a full gcd.  Memoized per order, like
    ``li_neg``: every ladder check and the Leibniz route share one canonical S_n.
    """
    num, den = Polynomial.zero(), Polynomial.one()
    for k, ck in enumerate(ladder_coefficients(n).coefficients):
        f = li_neg(k)
        num = num * poly_exact_div(f.den, den) + f.num * ck
        den = f.den
    return RationalFunction(num, den)


def _ladder_rhs(n: int, sign: int) -> RationalFunction:
    """S_n(sign z^2)/z, sign = +-1, with no gcd: S_n(0) = 0, so a one-slot shift of the numerator divides
    by z; z does not divide (1 -+ z^2)^(n+1), so the pair stays coprime, with content and lead unchanged."""
    s = _weighted_sum(n)
    s = substitute(substitute(s, "negate_z") if sign < 0 else s, "square_z")
    return RationalFunction(_raw(s.num.re[1:], s.num.im[1:]), s.den, _reduced=True)


def verify_ladder_exact(n: int) -> bool:
    """Exact check of the main relation at order -n."""
    return li_neg(n) - substitute(li_neg(n), "negate_z") == _ladder_rhs(n, 1) * 2


def chi_ladder(n: int) -> bool:
    """Exact check of z * chi[-n](z) = sum_k c_k Li[-k](z^2)."""
    return chi_neg(n) == _ladder_rhs(n, 1)


def ti_ladder(n: int) -> bool:
    """Exact check of z * Ti[-n](z) = -sum_k c_k Li[-k](-z^2)."""
    return ti_neg(n) == -_ladder_rhs(n, -1)


def verify_ladder_sec_variant(n: int) -> bool:
    """Exact check of the rotated relation (z -> iz) halved: the odd part of Li[-n](iz) is S_n(-z^2)/(iz)."""
    return odd_part(substitute(li_neg(n), "i_times_z")) == _ladder_rhs(n, -1) * -I


@_tan_half_route("csc", "csc leibniz")
def leibniz_csc_route(n: int) -> RationalFunction:
    """(d/dx)^n csc x from the Leibniz expansion of exp(-ix)(i + cot x)."""
    return substitute(_ladder_rhs(n, 1) * (2 * I ** ((n - 1) % 4)), "half_angle")
