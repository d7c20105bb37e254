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
row, plus cross-construction routes from the polylogarithm itself.  A
truncated-series evaluator serves as the numeric oracle inside the unit
disk.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .algebra import (
    GaussianRational, Polynomial, RationalFunction, evaluate_packed, substitute, z_ddz,
)
from .combinatorics import eulerian_b_row, factorial, stirling_power_sum
from .errors import DomainError, ImaginaryResidueError, NonConvergenceError

__all__ = [
    "li_neg", "li_neg_operator", "li_neg_stirling", "chi_neg", "ti_neg", "chi_from_li",
    "ti_from_chi", "li_series_eval", "SERIES_TERM_CAP",
]

SERIES_TERM_CAP = 10**6


@cache
def li_neg(n: int) -> RationalFunction:
    """Memoized canonical closed form of the order -n polylogarithm.

    Exact equality with both public construction routes is part of the test
    suite; this accessor just builds it the cheapest way, by one step of
    z d/dz from the cached pair P/Q of order -(n-1), starting from z/(1 - z).
    With Q = +-(1 - z)**n the quotient rule cancels (1 - z)**(n-1), leaving
    z (P' (1 - z) + n P) / (Q (1 - z)).  Its numerator is n P(1) = +-n! at
    z = 1, the only root of Q (1 - z) (by induction from P_0(1) = 1), so the
    pair is coprime by construction and skips the gcd.
    """
    if n < 0:
        raise ValueError("order index n must be >= 0")
    one_minus_z = Polynomial([1, -1])
    if n == 0:
        return RationalFunction(Polynomial.variable(), one_minus_z, _reduced=True)
    for k in range(n):  # ascending, so a cold call nests at most one level
        prev = li_neg(k)
    num = Polynomial.variable() * (prev.num.derivative() * one_minus_z + prev.num.scale(n))
    return RationalFunction(num, prev.den * one_minus_z, _reduced=True)


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
    """Legendre chi at order -n: odd numerator over (1 - z^2)**(n+1).

    The numerator is sum_k B(n, k) z^(2k+1) over the type-B Eulerian row,
    which sums to 2^n n!.  So it is 2^n n! at z = 1 and -2^n n! at z = -1,
    never zero at a root of (1 - z^2)**(n+1): the pair is coprime by
    construction and skips the gcd.
    """
    return _type_b_form(n, 1)


def ti_neg(n: int) -> RationalFunction:
    """Inverse tangent integral at order -n: alternating numerator over (1 + z^2)**(n+1).

    The numerator is sum_k (-1)^k B(n, k) z^(2k+1).  At z = i each term is
    i B(n, k), so the value is i 2^n n! (the type-B row sum), and -i 2^n n!
    at z = -i.  It never vanishes at a root of (1 + z^2)**(n+1): the pair is
    coprime by construction and skips the gcd.
    """
    return _type_b_form(n, -1)


@cache
def _type_b_form(n: int, sign: int) -> RationalFunction:
    """sum_k sign^(k+1) B(n, k) z^(2k-1) over (1 - sign z^2)^(n+1), memoized."""
    if n < 0:
        raise ValueError("order index n must be >= 0")
    coeffs = [0] * (2 * n + 2)
    coeffs[1::2] = [sign ** k * b for k, b in enumerate(eulerian_b_row(n))]
    den = Polynomial([1, 0, -sign]) ** (n + 1)
    return RationalFunction(Polynomial(coeffs), den, _reduced=True)


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


def li_series_eval(s: int, z, tol: float = 1e-12) -> complex:
    """Defining-series evaluation, the numeric oracle: sum of z**k / k**s.

    Requires |z| < 1 strictly; stops when the latest term drops below
    tol * (1 + |partial|); raises NonConvergenceError at the term cap
    (reachable as |z| -> 1 with s <= 0).
    """
    zc = complex(z)
    if not abs(zc) < 1:  # a NaN z fails here too
        raise DomainError(f"series evaluation needs |z| < 1, got |z| = {abs(zc)}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    partial = 0j
    power = 1 + 0j
    for k in range(1, SERIES_TERM_CAP + 1):
        power *= zc
        term = power * k ** (-s) if s <= 0 else power / k**s
        partial += term
        if abs(term) < tol * (1 + abs(partial)):
            return partial
    raise NonConvergenceError(
        f"series for s={s}, z={zc} did not meet tol={tol} within {SERIES_TERM_CAP} terms"
    )
