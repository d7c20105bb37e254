"""Closed forms for the polylogarithm at orders 0, -1, -2, ... and kin.

At non-positive integer order the polylogarithm is a rational function of
its argument.  This module constructs it by two independent routes:

* ``li_neg_operator``: apply the derivation ``z d/dz`` n times to
  ``z/(1 - z)``;
* ``li_neg_stirling``: the exact sum over k of
  ``k! {n+1 brace k+1} (z/(1-z))**(k+1)``.

Both are kept public permanently; their exact agreement is the library's
core trust story.  The odd part (Legendre chi) and the alternating odd part
(inverse tangent integral) get direct closed forms from the type-B Eulerian
row, plus cross-construction routes from the polylogarithm itself.  Each
closed form is proved equal to its defining power series by a finite exact
check on its first coefficients (``defining_series_agree``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .algebra import (
    GaussianRational, Polynomial, RationalFunction, _poly, evaluate_packed, substitute, z_ddz,
)
from .combinatorics import eulerian_b_row, factorial, stirling_power_sum
from .errors import ImaginaryResidueError

__all__ = [
    "li_neg", "li_neg_operator", "li_neg_stirling", "chi_neg", "ti_neg", "chi_from_li",
    "ti_from_chi", "defining_series_agree",
]


@cache
def li_neg(n: int) -> RationalFunction:
    """Memoized canonical closed form of the order -n polylogarithm.

    Built by one step of z d/dz from the cached pair P/Q of order -(n-1), from
    z/(1 - z) at n = 0; tests prove it equal to both public routes.  With Q = +-(1 - z)**n
    the quotient rule cancels (1 - z)**(n-1), leaving z (P' (1 - z) + n P) / (Q (1 - z)):
    (i+1) a_(i+1) + (n-i) a_i at z^(i+1) over d_i - d_(i-1) at z^i, for P = sum a_i z^i and
    Q = sum d_i z^i.  Its numerator is n P(1) = +-n! at z = 1, the only root of Q (1 - z)
    (by induction from P_0(1) = 1), so the pair is coprime by construction.
    """
    if n < 0:
        raise ValueError("order index n must be >= 0")
    if n == 0:
        return RationalFunction(Polynomial.variable(), Polynomial([1, -1]), _reduced=True)
    for k in range(n):  # ascending, so a cold call nests at most one level
        prev = li_neg(k)
    a, d = (*prev.num.re, 0), prev.den.re
    num = [0, *[(i + 1) * a[i + 1] + (n - i) * a[i] for i in range(len(a) - 1)]]
    den = [x - y for x, y in zip((*d, 0), (0, *d))]
    return RationalFunction(_poly(num, [0] * len(num)), _poly(den, [0] * len(den)), _reduced=True)


def li_neg_operator(n: int) -> RationalFunction:
    """Closed form by n applications of z d/dz to z/(1-z), computed afresh."""
    if n < 0:
        raise ValueError("order index n must be >= 0")
    f = RationalFunction(Polynomial.variable(), Polynomial([1, -1]))
    for _ in range(n):
        f = z_ddz(f)
    return f


def li_neg_stirling(n: int) -> RationalFunction:
    """Closed form by the Stirling-weighted sum of powers of z/(1-z).

    The sum is taken over its common denominator (1 - z)**(n+1) and
    canonicalized once, with a full gcd.  The numerator is evaluated once at a
    packed point, bounded by the same sum at the 1-norms 1 of z and 2 of 1 - z.
    """
    if n < 0:
        raise ValueError("order index n must be >= 0")
    num = evaluate_packed(lambda x: stirling_power_sum(n, x, factorial, 1 - x),
                          stirling_power_sum(n, 1, factorial, 2), n + 2)
    return RationalFunction(num, Polynomial([1, -1]) ** (n + 1))


def chi_neg(n: int) -> RationalFunction:
    """Legendre chi at order -n: odd numerator over (1 - z^2)**(n+1), read off integer rows.

    The numerator is sum_k B(n, k) z^(2k+1) over the type-B Eulerian row,
    which sums to 2^n n!.  So it is 2^n n! at z = 1 and -2^n n! at z = -1,
    never zero at a root of (1 - z^2)**(n+1): the pair is coprime by
    construction and skips the gcd.
    """
    return _type_b_form(n, 1)


def ti_neg(n: int) -> RationalFunction:
    """Inverse tangent integral at order -n: alternating numerator over (1 + z^2)**(n+1).

    Like chi_neg, both are read off integer rows.  The numerator is sum_k (-1)^k B(n, k)
    z^(2k+1); at z = i each term is i B(n, k), so the value is i 2^n n! (the type-B row
    sum), and -i 2^n n! at z = -i.  It never vanishes at a root of (1 + z^2)**(n+1): the
    pair is coprime by construction and skips the gcd.
    """
    return _type_b_form(n, -1)


@cache
def _type_b_form(n: int, sign: int) -> RationalFunction:
    """sum_k sign^(k+1) B(n, k) z^(2k-1) over (1 - sign z^2)^(n+1), memoized: the type-B
    Eulerian row over the binomial row, C(n+1, j) (-sign)^j at z^(2j)."""
    if n < 0:
        raise ValueError("order index n must be >= 0")
    num = [c for k, b in enumerate(eulerian_b_row(n)) for c in (0, sign ** k * b)]
    den = [c for j in range(n + 2) for c in ((-sign) ** j * comb(n + 1, j), 0)]
    return RationalFunction(_poly(num, [0] * len(num)), _poly(den, [0] * len(den)), _reduced=True)


def chi_from_li(n: int) -> RationalFunction:
    """Legendre chi as the odd part (f(z) - f(-z))/2 of the polylogarithm."""
    f = li_neg(n)
    return (f - substitute(f, "negate_z")) * Fraction(1, 2)


def ti_from_chi(n: int) -> RationalFunction:
    """Inverse tangent integral as -i * chi(i z), built in Gaussian arithmetic.

    The canonical result must come out with purely real coefficients; that is
    checked rather than silently repaired.
    """
    t = substitute(chi_neg(n), "i_times_z") * GaussianRational(0, -1)
    if not t.is_real():
        raise ImaginaryResidueError(f"ti_from_chi produced non-real coefficients at n={n} (bug)")
    return t


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
