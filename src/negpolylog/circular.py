"""Higher derivatives of cot, tan, csc and sec, by several independent routes.

For cot and tan the n-th derivative is a polynomial in the function value;
those polynomials are constructed two ways:

* evaluating the exact half-angle sums, over the denominator 2, in integers
  at one packed point and reading the coefficients back; for cot and tan the
  argument is then turned by i and the result by a power of i, and every
  imaginary part must cancel (checked), and
* the classical recurrence P_{n+1} = m(u) * P_n'(u), m = a + b u^2 with (a, b) = (-1, -1)
  for cot and (1, 1) for tan: coefficient k of P_{n+1} is a (k+1) p[k+1] + b (k-1) p[k-1]
  at k = n (mod 2), the parity of P_{n+1}, and 0 at the others.

csc has four routes, the fourth the Leibniz sum in ``ladder``, and sec three;
``verify core`` proves the forms of one function equal.  Each is an exact
real rational function of t = tan(x/2), built by its own construction.  A
route is declared once, by that construction: ``_tan_half_route`` memoizes
the form per order, checks it real, keeps it as the route's ``.form``, and
reads it at the double tan(x/2) by ``rf_eval``, rounded once.  Here, with
w = exp(ix) = (1 + it)/(1 - it):

* the type-B Eulerian single sums 2 i^(n-1) chi_{-n}(w) for csc and
  2 i^n Ti_{-n}(w) for sec, and the polylogarithm differences i^(n-1)
  (Li_{-n}(w) - Li_{-n}(-w)), at iw for sec, each twice an odd part
  (``odd_part``), all mapped to t by ``substitute(f, "half_angle")``;
* the binomial sums, read off the tan derivative polynomial P in t directly:
  (P(t) - P(-1/t))/2^(n+1) for csc, as csc x = (tan(x/2) + cot(x/2))/2, and
  for sec the same form a quarter period on, at (1 + t)/(1 - t).

Every power of i is exact, so a form that is not real raises
ImaginaryResidueError; a value beyond double range is +-inf.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple

from .algebra import (
    I, Polynomial, RationalFunction, _poly, evaluate_packed, odd_part, require_real, rf_eval,
    substitute,
)
from .combinatorics import factorial, stirling_power_sum
from .jets import route
from .polylog import chi_neg, li_neg, ti_neg

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


def _stirling_poly(target: str, n: int, sign: int, step: int):
    """P(u) = i^(step (n-1)) Q(i^step u), with Q the Stirling sum over the denominator 2.

    Q(v) = sum_k sign^k k! {n+1 brace k+1} (v - sign)^(k+1) 2^(n-k) is summed in
    integers once at a packed point; sign is a unit, so the same sum at 2 with
    weights k! bounds its coefficients.  P is checked to be real.  Order 0 is
    the function itself, P(u) = u.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return DerivativePolynomial(target, 0, Polynomial.variable())
    q = evaluate_packed(lambda x: stirling_power_sum(n, x - sign, lambda k: sign**k * factorial(k), 2),
                        stirling_power_sum(n, 2, factorial, 2), n + 2)
    p = q.turn_arg(step).scale(I ** (step * (n - 1) % 4))
    return DerivativePolynomial(target, n, require_real(p, f"{target} derivative polynomial", n))


def cot_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n cot x = P(cot x), built from the half-angle sum.

    P(u) is i^(n-1) Q(i u), Q(v) = sum_k k! {n+1 brace k+1} (v - 1)^(k+1) 2^(n-k)
    over the denominator 2: Q is built over Z, then its argument turned by i.
    """
    return _stirling_poly("cot", n, 1, 1)


def tan_derivative_poly(n: int) -> DerivativePolynomial:
    """P with (d/dx)^n tan x = P(tan x), from the alternating sum on (1 + i u).

    P(u) is i^(n-1) Q(i u), Q(v) = sum_k (-1)^k k! {n+1 brace k+1} (1 + v)^(k+1) 2^(n-k),
    built over Z as for cot.
    """
    return _stirling_poly("tan", n, -1, 1)


# m(u) = a + b u^2, each family's multiplier, as the pair (a, b)
_RECURRENCE_MULT = {"cot": (-1, -1), "tan": (1, 1), "coth": (1, -1), "tanh": (1, -1)}


def derivative_poly_recurrence(target: str, n: int) -> DerivativePolynomial:
    """Classical recurrence oracle: P_0 = u, P_{m+1} = m(u) * P_m', m(u) = a + b u^2, over int lists.
    P_m has the parity of m + 1, so coefficient k of P_{m+1} is the two-term sum
    a (k+1) p[k+1] + b (k-1) p[k-1] at k = m (mod 2), and 0 at the others."""
    if target not in _RECURRENCE_MULT:
        raise ValueError(f"no derivative-polynomial recurrence for {target!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    (a, b), p = _RECURRENCE_MULT[target], [0, 1]
    for m in range(n):
        q, p = (0, *p, 0, 0), [0] * (m + 3)  # q[k] = p[k - 1], zero outside P_m's m + 2 slots
        p[m % 2::2] = [a * (k + 1) * q[k + 2] + b * (k - 1) * q[k] for k in range(m % 2, m + 3, 2)]
    return DerivativePolynomial(target, n, _poly(p, [0] * len(p)))


def _tan_half_route(fn: str, label: str):
    """Declare build(n), a route's exact form in t = tan(x/2), the route (n, x) -> float for
    (d/dx)^n fn: the form memoized per order, like ``li_neg``, and real (ImaginaryResidueError
    naming label and n if not), kept as ``.form``, and read at the double tan(x/2) by ``rf_eval``,
    rounded once.  The route takes build's name and docstring, not its signature."""
    def declare(build):
        form = functools.cache(lambda n: require_real(build(n), label, n))

        def body(n: int, x: float) -> float:
            return rf_eval(form(n), math.tan(x / 2)).real
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(body, attr, getattr(build, attr))
        evaluate = route(fn, label)(body)
        evaluate.form = form
        return evaluate
    return declare


@_tan_half_route("csc", "csc single-sum")
def csc_derivative_eval(n: int) -> RationalFunction:
    """(d/dx)^n csc x by the type-B Eulerian single sum, 2 i^(n-1) chi_{-n}(exp(ix))."""
    return substitute(chi_neg(n) * (2 * I ** ((n - 1) % 4)), "half_angle")


@_tan_half_route("csc", "csc polylog-difference")
def csc_derivative_via_li(n: int) -> RationalFunction:
    """(d/dx)^n csc x as i^(n-1) (Li_{-n}(w) - Li_{-n}(-w)), twice the odd part of Li_{-n}, at w = exp(ix)."""
    return substitute(odd_part(li_neg(n)) * (2 * I ** ((n - 1) % 4)), "half_angle")


@_tan_half_route("csc", "csc binomial")
def csc_derivative_binomial(n: int) -> RationalFunction:
    """(d/dx)^n csc x by the half-angle binomial sum, the tan polynomial at tan(x/2) and -cot(x/2).

    The form is (P(t) - P(-1/t))/2^(n+1), P = ``tan_derivative_poly(n)``, as P_cot(u) = -P(-u).
    Over 2^(n+1) t^(n+1), t^(n+1) P(-1/t) is P turned by i^2 and inverted at degree n + 1; at
    t = 0 only its term +-n! from P's leading coefficient is left: the pair is coprime."""
    p, shift = tan_derivative_poly(n).poly, Polynomial([0] * (n + 1) + [1])  # t^(n+1)
    return RationalFunction(p * shift - p.turn_arg(2).invert_arg(n + 1), shift * 2 ** (n + 1), _reduced=True)


@_tan_half_route("sec", "sec single-sum")
def sec_derivative_eval(n: int) -> RationalFunction:
    """(d/dx)^n sec x by the alternating type-B Eulerian single sum, 2 i^n Ti_{-n}(exp(ix))."""
    return substitute(ti_neg(n) * (2 * I ** (n % 4)), "half_angle")


@_tan_half_route("sec", "sec polylog-difference")
def sec_derivative_via_li(n: int) -> RationalFunction:
    """(d/dx)^n sec x as i^(n-1) (Li_{-n}(iw) - Li_{-n}(-iw)), twice the odd part of Li_{-n}(iz),
    at w = exp(ix)."""
    return substitute(odd_part(substitute(li_neg(n), "i_times_z")) * (2 * I ** ((n - 1) % 4)),
                      "half_angle")


@_tan_half_route("sec", "sec binomial")
def sec_derivative_binomial(n: int) -> RationalFunction:
    """(d/dx)^n sec x by the csc binomial sum a quarter period on, at x + pi/2: t goes to
    (1 + t)/(1 - t), the ``"half_angle"`` map at -it, so the map is followed by z -> iz and z -> -z."""
    return substitute(substitute(substitute(csc_derivative_binomial.form(n), "half_angle"), "i_times_z"),
                      "negate_z")
