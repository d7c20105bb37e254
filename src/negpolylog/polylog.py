"""Closed forms for the polylogarithm at orders 0, -1, -2, ... and kin.

At non-positive integer order the polylogarithm is a rational function of
its argument.  This module constructs it by two independent routes:

* ``li_neg_operator``: apply the derivation ``z d/dz`` n times to
  ``z/(1 - z)``;
* ``li_neg_stirling``: the exact sum over k of
  ``k! {n+1 brace k+1} (z/(1-z))**(k+1)``.

Both are kept public permanently; their exact agreement is the library's
core trust story.  The accessors read each closed form off an integer row over
a binomial row: ``li_neg`` off the Eulerian row (Euler), a third construction,
and ``chi_neg``/``ti_neg``, the odd part (Legendre chi) and the alternating odd
part (inverse tangent integral), off the type-B Eulerian row; those two also
have cross-construction routes from the polylogarithm itself.  Each closed form
is proved equal to its defining power series by a finite exact check on its
first coefficients (``defining_series_agree``).
"""

from __future__ import annotations

from functools import cache
from math import comb

from .algebra import (
    GaussianRational, Polynomial, RationalFunction, _poly, evaluate_packed, odd_part, require_real,
    substitute, z_ddz,
)
from .combinatorics import eulerian_b_row, eulerian_row, factorial, stirling_power_sum

__all__ = [
    "li_neg", "li_neg_operator", "li_neg_stirling", "chi_neg", "ti_neg", "chi_from_li",
    "ti_from_chi", "defining_series_agree",
]


def li_neg(n: int) -> RationalFunction:
    """Memoized canonical closed form of the order -n polylogarithm, z A_n(z)/(1 - z)^(n+1)."""
    return _row_form(n, 1, 1)


def li_neg_operator(n: int) -> RationalFunction:
    """Closed form by n applications of z d/dz to z/(1-z), computed afresh with one gcd per call."""
    if n < 0:
        raise ValueError("order index n must be >= 0")
    return z_ddz(RationalFunction(Polynomial.variable(), Polynomial([1, -1]), _reduced=True), n)


def li_neg_stirling(n: int) -> RationalFunction:
    """Closed form by the Stirling-weighted sum of powers of z/(1-z).

    The sum is taken over its common denominator (1 - z)**(n+1) and
    canonicalized once, with a full gcd.  The numerator is evaluated once at a
    packed point, bounded by the same sum at the 1-norms 1 of z and 2 of 1 - z,
    and so is the denominator, bounded by 2^(n+1).
    """
    if n < 0:
        raise ValueError("order index n must be >= 0")
    num = evaluate_packed(lambda x: stirling_power_sum(n, x, factorial, 1 - x),
                          stirling_power_sum(n, 1, factorial, 2), n + 2)
    return RationalFunction(num, evaluate_packed(lambda x: (1 - x) ** (n + 1), 2 ** (n + 1), n + 2))


def chi_neg(n: int) -> RationalFunction:
    """Legendre chi at order -n: z B_n(z^2)/(1 - z^2)^(n+1), over the type-B Eulerian row."""
    return _row_form(n, 2, 1)


def ti_neg(n: int) -> RationalFunction:
    """Inverse tangent integral at order -n: z B_n(-z^2)/(1 + z^2)^(n+1)."""
    return _row_form(n, 2, -1)


@cache
def _row_form(n: int, g: int, s: int) -> RationalFunction:
    """z R(s z^g)/(1 - s z^g)^(n+1), memoized: the Eulerian row R of order n (type B for
    g = 2) over the binomial row, C(n+1, j) (-s)^j at z^(gj).  At a root w of the
    denominator s w^g = 1, so the numerator is w R(1), w times the row sum (n! or 2^n n!):
    never zero, so the pair is coprime by construction and skips the gcd."""
    if n < 0:
        raise ValueError("order index n must be >= 0")
    num, den = [0] * (g * n + 2), [0] * (g * n + g + 1)
    num[1::g] = [s ** k * r for k, r in enumerate((eulerian_row if g == 1 else eulerian_b_row)(n))]
    den[::g] = [(-s) ** j * comb(n + 1, j) for j in range(n + 2)]
    return RationalFunction(_poly(num, [0] * len(num)), _poly(den, [0] * len(den)), _reduced=True)


def chi_from_li(n: int) -> RationalFunction:
    """Legendre chi as the odd part (f(z) - f(-z))/2 of the polylogarithm f = li_neg(n), by
    ``odd_part``: two products, no sum and no rescale."""
    return odd_part(li_neg(n))


def ti_from_chi(n: int) -> RationalFunction:
    """Inverse tangent integral as -i * chi(i z), built in Gaussian arithmetic.

    The canonical result must come out with purely real coefficients; that is
    checked rather than silently repaired.
    """
    return require_real(substitute(chi_neg(n), "i_times_z") * GaussianRational(0, -1), "ti_from_chi", n)


def defining_series_agree(n: int) -> bool:
    """Whether li_neg, chi_neg and ti_neg at order -n equal, exactly, their defining series
    sum k^n z^k over k >= 1 (Li), odd k (chi), and odd k with sign (-1)^((k-1)/2) (Ti)."""
    return (_equals_series(li_neg(n), lambda k: k ** n if k else 0, n + 1)
            and _equals_series(chi_neg(n), lambda k: k % 2 * k ** n, 2 * n + 2)
            and _equals_series(ti_neg(n), lambda k: k % 2 * (-1) ** (k // 2) * k ** n, 2 * n + 2))


def _equals_series(f: RationalFunction, coeff, d: int) -> bool:
    """Prove f = p/q equal to S = sum_k coeff(k) z^k, given a nonzero B of degree <= d with
    B S a polynomial of degree <= d: check q S = p mod z^m for m = max(deg p, deg q) + d + 1.

    Then E = p B - q (B S) has degree below m and E = B (p - q S) = 0 mod z^m; hence E = 0
    and p = q S.  At order -n, B is (1 - z)^(n+1) for Li and (1 -+ z^2)^(n+1) for chi and
    Ti: each coefficient j >= d of B S is an (n+1)-th difference of k^n, so 0, except for
    Li at n = 0, whose series lacks the k = 0 term 0^0 = 1, so B S = z has degree d.
    """
    p, q = f.num, f.den
    m = max(p.degree, q.degree) + d + 1
    qs = q * _poly([coeff(k) for k in range(m)], [0] * m)
    return _poly(qs.re[:m], qs.im[:m]) == p
