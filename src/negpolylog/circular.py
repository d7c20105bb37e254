"""Higher derivatives of cot, tan, csc and sec, by several independent routes.

For cot and tan the n-th derivative is a polynomial in the function value;
those polynomials are constructed two ways:

* evaluating the exact half-angle sums, over the denominator 2, in integers
  at one packed point and reading the coefficients back; for cot and tan the
  argument is then turned by i and the result by a power of i, and every
  imaginary part must cancel (checked), and
* the classical symbolic recurrence P_{n+1} = m(u) * P_n'(u) with
  m = -(1 + u^2) for cot and m = (1 + u^2) for tan.

For csc and sec there are three evaluator routes each, plus the Taylor-jet
oracle:

* a single sum over the type-B Eulerian row with combined phase factor
  exp(i(2k - n - 2)x) -- the exponent bookkeeping in that form was validated
  against the jet oracle before being trusted, and is implemented exactly as
  stated here;
* the difference of polylogarithm closed forms at exp(ix) (rotated by i for
  sec);
* a literal binomial expansion (double sum over half-angle tangent and
  cotangent powers for csc, triple sum over tan and sec powers for sec).

All i-bearing algebra is carried in complex double arithmetic and the
imaginary residue is asserted to cancel, rather than pre-simplifying by
hand: the point is to exercise the identities as written.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .algebra import I, Polynomial, RationalFunction, evaluate_packed, rf_eval
from .combinatorics import binomial, eulerian_b_row, factorial, stirling2_row, stirling_power_sum
from .errors import ImaginaryResidueError
from .jets import check_point
from .numutil import checked_real, i_power
from .polylog import li_neg

__all__ = [
    "DerivativePolynomial", "TRIG_GRID", "cot_derivative_poly", "tan_derivative_poly",
    "derivative_poly_recurrence", "csc_derivative_eval", "csc_derivative_via_li",
    "csc_derivative_binomial", "sec_derivative_eval", "sec_derivative_via_li",
    "sec_derivative_binomial",
]

# Fixed evaluation grid for the trig agreement sweeps; every point keeps a
# healthy distance from the poles of csc (multiples of pi) and stays clear of
# the sec poles at odd multiples of pi/2.
TRIG_GRID = (0.3, 0.7, 1.0, 1.4, 2.0, 2.8)


class DerivativePolynomial(namedtuple("DerivativePolynomial", "target order poly")):
    """P with (d/dx)^n target(x) = P(target(x)); P has integer coefficients."""

    __slots__ = ()

    def __call__(self, u):
        """P(u) exact at the double u, rounded once (``rf_eval``); a real u gives a float."""
        val = rf_eval(RationalFunction(self.poly, Polynomial.one(), _reduced=True), u)
        return val if isinstance(u, complex) else val.real

    def coefficient_ints(self) -> tuple[int, ...]:
        return self.poly.re


def _stirling_poly(target: str, n: int, b0: int, sign: int, step: int):
    """P(u) = i^(step (n-1)) Q(i^step u), with Q the Stirling sum over the denominator 2.

    Q(v) = sum_k sign^k k! {n+1 brace k+1} (b0 + v)^(k+1) 2^(n-k) is summed in
    integers once at a packed point; b0 is a unit, so the same sum at 2 with
    weights k! bounds its coefficients.  P is checked to be real.  Order 0 is
    the function itself, P(u) = u.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return DerivativePolynomial(target, 0, Polynomial.variable())
    q = evaluate_packed(lambda x: stirling_power_sum(n, b0 + x, lambda k: sign**k * factorial(k), 2),
                        stirling_power_sum(n, 2, factorial, 2), n + 2)
    p = q.turn_arg(step).scale(I ** (step * (n - 1) % 4))
    if not p.is_real():
        raise ImaginaryResidueError(f"{target} derivative polynomial n={n} is not real (bug)")
    return DerivativePolynomial(target, n, p)


def cot_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n cot x = P(cot x), built from the half-angle sum.

    P(u) is i^(n-1) Q(i u), Q(v) = sum_k k! {n+1 brace k+1} (v - 1)^(k+1) 2^(n-k)
    over the denominator 2: Q is built over Z, then its argument turned by i.
    """
    return _stirling_poly("cot", n, -1, 1, 1)


def tan_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n tan x = P(tan x), from the alternating sum on (1 + i u).

    P(u) is i^(n-1) Q(i u), Q(v) = sum_k (-1)^k k! {n+1 brace k+1} (1 + v)^(k+1) 2^(n-k),
    built over Z as for cot.
    """
    return _stirling_poly("tan", n, 1, -1, 1)


_RECURRENCE_MULT = {
    "cot": Polynomial([-1, 0, -1]),
    "tan": Polynomial([1, 0, 1]),
    "coth": Polynomial([1, 0, -1]),
    "tanh": Polynomial([1, 0, -1]),
}


def derivative_poly_recurrence(target: str, n: int) -> DerivativePolynomial:
    """Classical recurrence oracle: P_0 = u, P_{m+1} = m(u) * P_m'."""
    if target not in _RECURRENCE_MULT:
        raise ValueError(f"no derivative-polynomial recurrence for {target!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    mult = _RECURRENCE_MULT[target]
    p = Polynomial.variable()
    for _ in range(n):
        p = mult * p.derivative()
    return DerivativePolynomial(target, n, p)


def _eulerian_sum(n: int, sign: int, phase, total):
    """sum_{k=1..n+1} sign^k S(n, k) phase(n - 2k), the single sum of csc, sec, csch and sech.

    ``total`` is the zero to start from (0j or 0.0).  Terms are added left to
    right with ``+=``: ``sum()`` compensates float sums from Python 3.12 on.
    """
    for k, b in enumerate(eulerian_b_row(n), 1):
        total += sign**k * b * phase(n - 2 * k)
    return total


def _polylog_difference(n: int, w: complex) -> complex:
    """i^(n-1) (Li[-n](w) - Li[-n](-w)): csc at w = exp(ix), sec at w = i exp(ix)."""
    f = li_neg(n)
    return i_power(n - 1) * (rf_eval(f, w) - rf_eval(f, -w))


def csc_derivative_eval(n: int, x: float) -> float:
    """(d/dx)^n csc x by the Eulerian single sum with phase exp(i(2k-n-2)x)."""
    check_point("csc", x)
    total = _eulerian_sum(n, 1, lambda m: cmath.exp(-1j * m * x), 0j)
    val = ((-1) ** n / 2**n) * cmath.exp(-2j * x) * (1.0 / math.sin(x)) ** (n + 1) * total
    return checked_real(val, context=f"csc single sum n={n}, x={x}")


def csc_derivative_via_li(n: int, x: float) -> float:
    """(d/dx)^n csc x as i^(n-1) times the polylogarithm difference at exp(ix)."""
    check_point("csc", x)
    val = _polylog_difference(n, cmath.exp(1j * x))
    return checked_real(val, context=f"csc polylog difference n={n}, x={x}")


def csc_derivative_binomial(n: int, x: float) -> float:
    """(d/dx)^n csc x by the literal half-angle double sum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    check_point("csc", x)
    t = math.tan(x / 2)
    c = math.cos(x / 2) / math.sin(x / 2)
    row = stirling2_row(n + 1)
    total = 0j
    for k in range(n + 1):
        inner = 0j
        for j in range(k + 2):
            inner += binomial(k + 1, j) * i_power(j) * (t**j - (-1) ** j * c**j)
        total += ((-1) ** k * factorial(k) / 2**k) * row[k + 1] * inner
    val = i_power(n - 1) / 2 * total
    return checked_real(val, context=f"csc binomial double sum n={n}, x={x}")


def sec_derivative_eval(n: int, x: float) -> float:
    """(d/dx)^n sec x by the alternating Eulerian single sum."""
    check_point("sec", x)
    total = _eulerian_sum(n, -1, lambda m: cmath.exp(-1j * m * x), 0j)
    val = -(i_power(n) / 2**n) * cmath.exp(-2j * x) * (1.0 / math.cos(x)) ** (n + 1) * total
    return checked_real(val, context=f"sec single sum n={n}, x={x}")


def sec_derivative_via_li(n: int, x: float) -> float:
    """(d/dx)^n sec x as i^(n-1) times the polylogarithm difference at i*exp(ix)."""
    check_point("sec", x)
    val = _polylog_difference(n, 1j * cmath.exp(1j * x))
    return checked_real(val, context=f"sec polylog difference n={n}, x={x}")


def sec_derivative_binomial(n: int, x: float) -> float:
    """(d/dx)^n sec x by the literal tan/sec triple sum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    check_point("sec", x)
    t = math.tan(x)
    s = 1.0 / math.cos(x)
    row = stirling2_row(n + 1)
    total = 0j
    for k in range(n + 1):
        mid = 0j
        for j in range(k + 2):
            inner = 0.0
            for ell in range(1, j + 1, 2):  # even ell terms vanish via (1 - (-1)^ell)
                inner += 2.0 * binomial(j, ell) * t ** (j - ell) * s**ell
            mid += i_power(j) * binomial(k + 1, j) * inner
        total += ((-1) ** k * factorial(k) / 2**k) * row[k + 1] * mid
    val = i_power(n - 1) / 2 * total
    return checked_real(val, context=f"sec binomial triple sum n={n}, x={x}")
