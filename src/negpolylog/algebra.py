"""Canonical dense polynomials and rational functions over the Gaussian integers.

Coefficients are Gaussian integers, so the imaginary unit is carried
exactly through intermediate algebra.  A :class:`RationalFunction` is always
stored in canonical form: numerator and denominator are coprime, all
coefficients are Gaussian integers with joint content 1, and the
denominator's leading coefficient lies in the half-open sector
``re > 0, im >= 0`` (positive in the purely real case); a content of norm 1
is not divided out, as that sector turn picks the same associate.  That makes
structural equality of the stored pair a valid identity test.  The content
is read from the denominator's coefficients first: the library's
denominators mostly start with a unit, such as the 1 of (1 - z)**(n+1), and
then the gcd is 1 after one step, however long the numerator.  Canonical
numerators and denominators are hash-consed: equal ones are one shared
object, whose table entry lives as long as the polynomial.

Storage: a :class:`Polynomial` holds two equal-length tuples of ``int``,
``re`` and ``im``; coefficient k is the Gaussian integer ``re[k] + i*im[k]``.
Trailing zero coefficients are stripped, so each polynomial has one
representation and ``==`` compares the fields.  It has no variable: the
letter is an argument of the renderer, :func:`poly_text`.  Every closed form
of the library has integer coefficients, so a rational value lives only at
the edges where the library meets one: a rational scalar applied to a
:class:`RationalFunction` (its denominator scales the form's denominator),
JSON input (whose denominators are cleared before the form is built), the
display numerator of a non-real form (:func:`powered_parts`), and exact
evaluation.  Values are immutable and all operations are pure.

Products use Kronecker substitution (Kronecker 1882; Schoenhage 1982): each
part is packed into one integer, sum c[k] * 2**(w*k), with w a multiple of 8
and w >= bitlen(B) + 2, B = max|a| * max|b| * min(len a, len b), max|a|
being the largest absolute real or imaginary part of a.  A slot of the
product's real or imaginary part sums at most min(len a, len b) terms of one
or two part products, so its absolute value is at most 2B < 2**(w - 1), and
the biased slot c + 2**(w - 1) lies in [0, 2**w): it cannot spill into its
neighbour.  Packing writes each biased slot unsigned and subtracts the bias
once; unpacking adds it once, reads each slot unsigned and subtracts
2**(w - 1) from it.  A real product costs one big-integer product, a
Gaussian one three (Karatsuba's trick on the parts).  A sum of products,
such as the numerator p1 q2 + p2 q1 of a sum, is one packed sum: B is the
sum of the pairs' bounds, for the real and the imaginary part alike, each
operand is packed once and each part unpacked once.  A sum in which every
pair's shorter operand has at most ``_SCHOOLBOOK_MAX`` coefficients is
multiplied row by row into one buffer instead, which is faster there; one
longer pair sends the whole sum to the packed kernel.  The product kernels
take integer parts (re, im), so the steps of ``z_ddz`` build no polynomial.
A whole sum of integer polynomials is evaluated once at x = 2**w and read
back the same way (:func:`evaluate_packed`).  Its bound is the sum evaluated
on the coefficient 1-norms (sum |c[k]|, subadditive and submultiplicative)
of its polynomials and the absolute values of its scalars.

Polynomial gcds use a primitive pseudo-remainder sequence (PRS) over the
Gaussian integers, the only path that computes a gcd of positive degree.
Most pairs met in canonicalization are coprime, which one integer gcd at a
point proves without the PRS: the heuristic gcd of Char, Geddes and Gonnet
(1989), made a proof by Fujiwara's root bound (1916).  For primitive a, b
with d = deg b >= 1, M = bitlen(max(|re b_d|, |im b_d|)) and L_k =
bitlen(|re b_k| + |im b_k|), every root of b is below 2**e in absolute value,
e = 1 + max(0, max over k < d of ceil((L_k - M + 1)/(d - k))); N = 2**w.  If a
and b share a factor, by Gauss's lemma a primitive h in Z[i][z] (Z[z] for a
real pair) with deg h >= 1 divides both, so h(N) divides a(N) and b(N), and
h(N) conj(h(N)) divides both norms and a(N) conj(b(N)), so both its parts,
while |h(N)| >= |lc h| * prod |N - r| >= N - 2**e over the roots r of h, roots
of b.  So gcd(a(N), b(N)) < N - 2**e for a real pair, or else the gcd of
|a(N)|**2, |b(N)|**2 and the two parts of a(N) conj(b(N)) below
(N - 2**e)**2 (a real value normed too), proves the pair coprime over Q(i)
and the unit 1 is returned.  The parts of a(N) conj(b(N)) prove a conjugate
pair, whose norms agree.  One point is tried: w the least prime >= e + 16.
A coprime pair is declined there only by a chance common factor of its two
values of at least N - 2**e, and the library's pairs meet none: on the
benchmark workloads, the demos and ``verify all`` up to n = 64, every pair
declined has a true common factor, a gcd(q, q') of a denominator with
repeated roots.  Every pair the point declines goes to the PRS, so the point
decides how fast a gcd is found, never what it is.  w is prime because the
library's denominators have their roots at 0, +-1 and +-i, so chance common
factors of the two values come from N +- 1 and N**2 + 1: 2**w - 1 has no
prime factor below 2w + 1, 2**w + 1 only 3, and 2**(2w) + 1 only 5.  Exact
division divides by the divisor itself; every divisor the library passes is
primitive (a gcd, or a canonical denominator of content 1), so the quotient
has Gaussian-integer coefficients (Gauss's lemma), or in ``z_ddz`` gcd(q, q')
times the content of q, which divides both (proof there).

Canonicalization runs a gcd only where coprimality is not known from the
inputs.  Each place that skips one rests on a proof:

* a sum whose denominators have a unit gcd is canonical as
  (p1 q2 + p2 q1)/(q1 q2); any other sum takes the full gcd;
* a product of two canonical forms can cancel only crosswise, p1 against q2
  and p2 against q1;
* a product or quotient by a nonzero exact scalar c: c p and q have the
  common factors of p and q, that is none;
* ``z_ddz``: one gcd serves all n steps, which run unreduced over q r^n,
  formed once; the pair is coprime but for z^n when q(0) = 0, which one
  slice divides out of both parts at the end (proof in its docstring);
* the argument transforms of ``substitute`` map a coprime pair to a
  coprime pair;
* an odd part (f(z) - f(-z))/2 = O(M)/D, M = p(z) q(-z) and D = q(z) q(-z),
  when gcd(q, q(-z)) is a unit: at a root a of q, O(M)(a) = p(a) q(-a)/2 != 0,
  and at a root b of q(-z), O(M)(b) = -p(-b) q(b)/2 != 0; any other odd part
  takes the full gcd.

Every value of a form is read through one integer quotient,
:func:`_quotient`, at a point read once as Z/E, Z of int parts: Horner reads
the numerator and denominator exactly there as unreduced ints (a + bi)/e,
combined with no lcm into f(z) = (x + yi)/d with integers x, y and d > 0.
:func:`rf_eval` reads a complex double's parts straight into ints by
``float.as_integer_ratio`` and rounds x/d and y/d once each by ``int / int``,
which rounds correctly; :func:`rf_eval_exact` returns the quotient reduced.
Horner reads each polynomial as z^s q(z^g), s its lowest exponent with a
nonzero coefficient and g the gcd of the gaps between such exponents, once,
and keeps them; it steps through q at w = z^g, which the numerator and
denominator share when their g agree: the odd and even numerators and
denominators of chi and Ti and the derivative polynomials take half the
steps.  A real q at a non-real w, such as each numerator and denominator of
li, chi and Ti on the unit circle, takes Knuth's two-term recurrence (TAOCP
Vol. 2, 4.6.4; Goertzel 1958) over integers: no gcd and no Fraction.  Only a
Gaussian q, or any q at a real w, steps in Fractions.  Both readings are
identities, so the exact value, and its double, cannot change.  Expanded
high powers such as ``(1 - z^2)^11`` are catastrophically ill-conditioned
in double-precision Horner near ``|z| = 1``; exact accumulation keeps every
multi-route identity check meaningful at the stated tolerances.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
import weakref
from fractions import Fraction

from .errors import DomainError, ImaginaryResidueError, PoleError

__all__ = [
    "GaussianRational",
    "I",
    "Polynomial",
    "RationalFunction",
    "poly_gcd",
    "poly_exact_div",
    "z_ddz",
    "substitute",
    "odd_part",
    "rf_eval",
    "rf_eval_exact",
    "round_quotient",
    "poly_text",
    "rf_to_text",
    "rf_to_latex",
    "rf_to_json",
    "rf_from_json",
    "powered_parts",
    "evaluate_packed",
]

class GaussianRational:
    """An exact complex number ``re + im*i``.

    Parts are ints when integral and Fractions otherwise; both are exact and
    mix freely, and plain-int arithmetic keeps the common integer-coefficient
    case fast.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, (int, Fraction)) else Fraction(re)
        self.im = im if isinstance(im, (int, Fraction)) else Fraction(im)

    @staticmethod
    def _coerce(x) -> "GaussianRational | None":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    # -- predicates ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def is_real(self) -> bool:
        return not self.im

    def is_integer(self) -> bool:
        return self.re.denominator == 1 and self.im.denominator == 1

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, _SCALARS) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational(self.re * o.re)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero Gaussian rational")
        n = o.re * o.re + o.im * o.im
        return GaussianRational(
            Fraction(self.re * o.re + self.im * o.im) / n,
            Fraction(self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        return _power(self, k, GaussianRational(1))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # a real value hashes as its real part, as complex does, so that it hashes as it compares
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if not self.re:
            return im
        if self.im > 0 and self.im != 1:
            im = f"+{self.im}i"
        elif self.im == 1:
            im = "+i"
        return f"{self.re}{im}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


I = GaussianRational(0, 1)
_SCALARS = (int, Fraction, GaussianRational)  # the exact scalar operands


def _power(base, k: int, out):
    """out * base**k for k >= 0, by repeated squaring."""
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _over_one_denominator(re, im) -> tuple[GaussianRational, int]:
    """(Z, E) with re + im*i = Z/E, Z of int parts and E > 0 the lcm of the parts' denominators,
    for exact parts: ints, Fractions or doubles, whose denominators are powers of 2; DomainError
    for an infinite or nan double."""
    try:
        (xr, dr), (xi, di) = re.as_integer_ratio(), im.as_integer_ratio()
    except (OverflowError, ValueError):
        raise DomainError(f"evaluation needs a finite point, got z = {complex(re, im)}") from None
    e = math.lcm(dr, di)
    return GaussianRational(xr * (e // dr), xi * (e // di)), e


def round_quotient(num: int, den: int) -> float:
    """num/den for den > 0, rounded once by ``int / int``; +-inf, by the sign of num, past double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _round_div(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0 (halves round up)."""
    return (2 * p + q) // (2 * q)


def _gauss_int_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Euclidean gcd in the Gaussian integers, unit-ambiguous."""
    if a[1] == 0 and b[1] == 0:
        return (math.gcd(a[0], b[0]), 0)
    while b != (0, 0):
        (ar, ai), (br, bi) = a, b
        n = br * br + bi * bi
        qr = _round_div(ar * br + ai * bi, n)
        qi = _round_div(ai * br - ar * bi, n)
        a, b = b, (ar - (qr * br - qi * bi), ai - (qr * bi + qi * br))
    return a


def _gauss_int_div(c: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
    """Exact division in the Gaussian integers."""
    (cr, ci), (gr, gi) = c, g
    n = gr * gr + gi * gi
    pr, rr = divmod(cr * gr + ci * gi, n)
    pi, ri = divmod(ci * gr - cr * gi, n)
    if rr or ri:
        raise ArithmeticError("non-exact Gaussian division")
    return pr, pi


def _rotate(re, im, k: int):
    """Parts of i**k times the vector re + i*im."""
    k %= 4
    if k == 0:
        return re, im
    if k == 1:
        return [-y for y in im], list(re)
    if k == 2:
        return [-x for x in re], [-y for y in im]
    return list(im), [-x for x in re]


def _times(v, c: int):
    return [x * c for x in v] if c != 1 else v


def _vadd(x, y) -> list:
    if len(x) < len(y):
        x, y = y, x
    return [*map(operator.add, x, y), *x[len(y):]]


def _gauss_int(c) -> tuple[int, int]:
    """(re, im) of an exact Gaussian integer: an int, an integral Fraction or float, or a
    GaussianRational with integral parts; ValueError for any other value."""
    try:
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
    except (OverflowError, TypeError) as exc:  # Fraction(inf), Fraction(1j)
        raise ValueError(f"{c} is not a Gaussian integer") from exc
    if not c.is_integer():
        raise ValueError(f"{c} is not a Gaussian integer")
    return int(c.re), int(c.im)


def _raw(re, im) -> "Polynomial":
    """A polynomial from parts that already meet the storage contract."""
    p = object.__new__(Polynomial)
    p.re, p.im = tuple(re), tuple(im)
    return p


def _poly(re, im) -> "Polynomial":
    """A polynomial from integer parts: strips trailing zeros."""
    n = len(re)
    while n and not re[n - 1] and not im[n - 1]:
        n -= 1
    return _raw(re[:n], im[:n])


class Polynomial:
    """Dense univariate polynomial re + i*im over int tuples (see the module docstring).

    ``Polynomial(coeffs)`` and ``scale(c)`` take exact Gaussian integers only."""

    __slots__ = ("re", "im", "_stride", "__weakref__")

    def __init__(self, coeffs=()):
        parts = [_gauss_int(c) for c in coeffs]
        p = _poly([x for x, _ in parts], [y for _, y in parts])
        self.re, self.im = p.re, p.im

    @classmethod
    def zero(cls) -> "Polynomial":
        return _raw((), ())

    @classmethod
    def one(cls) -> "Polynomial":
        return _raw((1,), (0,))

    @classmethod
    def variable(cls) -> "Polynomial":
        return _raw((0, 1), (0, 0))

    @property
    def degree(self) -> int:
        return len(self.re) - 1

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Gaussian rationals, for rendering and inspection."""
        return tuple(map(GaussianRational, self.re, self.im))

    def is_zero(self) -> bool:
        return not self.re

    def constant(self) -> GaussianRational:
        return GaussianRational(self.re[0], self.im[0]) if self.re else GaussianRational(0)

    def lead(self) -> GaussianRational:
        if not self.re:
            raise ValueError("zero polynomial has no leading coefficient")
        return GaussianRational(self.re[-1], self.im[-1])

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return _poly(_vadd(self.re, other.re), _vadd(self.im, other.im))

    def __sub__(self, other):
        return self + (-other) if isinstance(other, Polynomial) else NotImplemented

    def __neg__(self):
        return _raw(*_rotate(self.re, self.im, 2))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, _SCALARS):
                return self.scale(other)
            return NotImplemented
        return _raw(*_products([((self.re, self.im), (other.re, other.im))]))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, Polynomial.one())

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def scale(self, c) -> "Polynomial":
        cr, ci = _gauss_int(c)
        if not ci:
            return _poly(_times(self.re, cr), _times(self.im, cr))
        return _poly([cr * x - ci * y for x, y in zip(self.re, self.im)],
                     [cr * y + ci * x for x, y in zip(self.re, self.im)])

    def derivative(self) -> "Polynomial":
        k = range(1, len(self.re))
        return _raw([*map(operator.mul, k, self.re[1:])], [*map(operator.mul, k, self.im[1:])])

    def horner(self, z: "GaussianRational | float | complex") -> tuple[int, int, int]:
        """Exact evaluation at a Gaussian rational point, or at the value of a finite double or
        complex double: ints x, y and e > 0 with p(z) = (x + yi)/e, unreduced, p read as z^s q(z^g).
        A point with an infinite or nan part raises DomainError.

        s is the lowest exponent with a nonzero part and g the gcd of the gaps between such
        exponents (0 for a monomial or zero): an odd or even polynomial takes half the steps
        (Knuth, TAOCP Vol. 2, 4.6.4).  Both, and q's parts, are read on the first evaluation
        and kept in a slot.  z = Z/E is read once over integers, and w = z^g as W/E^g.  A real
        q of degree M at a non-real w = (a + bi)/E^g takes the two-term recurrence (4.6.4;
        Goertzel 1958), B_k = q_k E^(g(M-k)) + 2a B_(k+1) - (a^2 + b^2) B_(k+2) and
        q(w) E^(gM) = q_0 E^(gM) + (a + bi) B_1 - (a^2 + b^2) B_2: two integer products a step,
        no Fraction.  A Gaussian q, or any q at a real w, steps in Fractions, the only reading
        that does.  Both readings are exact identities, so the value and its rounded bits are one.
        """
        re, im = (z.re, z.im) if isinstance(z, GaussianRational) else (z.real, z.imag)
        return self._read(*_over_one_denominator(re, im), {})

    def _read(self, z: GaussianRational, ez: int, powers: dict) -> tuple[int, int, int]:
        """``horner`` at z/ez, Z of int parts; powers maps each g read at this point to
        (z^g, ez^g), so polynomials of one stride share them."""
        try:
            s, g, qr, qi, real = self._stride
        except AttributeError:  # the first read keeps the stride: a polynomial never changes
            support = [k for k, (x, y) in enumerate(zip(self.re, self.im)) if x or y]
            s = min(support, default=0)
            g = math.gcd(*(k - s for k in support))
            qr, qi = self.re[s::g or 1], self.im[s::g or 1]
            real = not any(qi)
            self._stride = s, g, qr, qi, real
        if g not in powers:
            powers[g] = z ** g, ez ** g
        w, e = powers[g]
        if w.im and real:
            a, b = w.re, w.im
            t, m, b1, b2, ek = 2 * a, a * a + b * b, 0, 0, 1
            for x in reversed(qr[1:]):
                b1, b2, ek = x * ek + t * b1 - m * b2, b1, ek * e
            acc = GaussianRational(qr[0] * ek + a * b1 - m * b2, b * b1)
        else:
            w = GaussianRational(Fraction(w.re, e), Fraction(w.im, e))
            q = zip(reversed(qr), reversed(qi))
            acc = GaussianRational(*next(q, (0, 0)))
            for x, y in q:
                acc = acc * w
                acc = GaussianRational(acc.re + x, acc.im + y)
            acc, ek = _over_one_denominator(acc.re, acc.im)
        acc = _power(z, s, acc)
        return acc.re, acc.im, ek * ez ** s

    # argument transforms used by `substitute`
    def turn_arg(self, step: int) -> "Polynomial":
        """p(i**step * z): coefficient k times i**(k*step)."""
        re, im = list(self.re), list(self.im)
        for k in (1, 2, 3):
            re[k::4], im[k::4] = _rotate(re[k::4], im[k::4], k * step)
        return _raw(re, im)

    def square_arg(self) -> "Polynomial":
        re, im = [0] * (2 * len(self.re) - 1), [0] * (2 * len(self.re) - 1)
        re[::2], im[::2] = self.re, self.im
        return _raw(re, im)

    def invert_arg(self, d: int) -> "Polynomial":
        """z^d p(1/z) for d >= deg p: the coefficients padded to length d + 1 and reversed."""
        if d < self.degree:
            raise ValueError(f"d = {d} is below deg p = {self.degree}")
        pad = (0,) * (d - self.degree)
        return _poly((*self.re, *pad)[::-1], (*self.im, *pad)[::-1])

    def half_angle_arg(self, d: int) -> "Polynomial":
        """sum p_k (1 + it)^k (1 - it)^(d-k), d >= deg p, by homogeneous Horner at t = 2**w, where
        a product by 1 +- it is a shift and an add; a slot holds 2^d sum |re p_k| + |im p_k|."""
        if d < self.degree:
            raise ValueError(f"d = {d} is below deg p = {self.degree}")
        nb = _slot_bytes((sum(map(abs, self.re)) + sum(map(abs, self.im))) << d)
        w, ar, ai, br, bi = 8 * nb, 0, 0, 1, 0
        for pr, pi in reversed([*zip(self.re, self.im), *[(0, 0)] * (d + 1 - len(self.re))]):
            ar, ai = ar - (ai << w) + pr * br - pi * bi, ai + (ar << w) + pr * bi + pi * br
            br, bi = br + (bi << w), bi - (br << w)
        return _poly(_unpack(ar, nb, d + 1), _unpack(ai, nb, d + 1))

    def over_one_plus_arg(self, d: int) -> "Polynomial":
        """sum p_k z^k (1 + z)^(d-k), d >= deg p, by homogeneous Horner at z = 2**w, each part
        alone; a slot holds 2^d sum |re p_k| + |im p_k|, as in ``half_angle_arg``."""
        if d < self.degree:
            raise ValueError(f"d = {d} is below deg p = {self.degree}")
        nb = _slot_bytes((sum(map(abs, self.re)) + sum(map(abs, self.im))) << d)
        w, ar, ai, b = 8 * nb, 0, 0, 1
        for pr, pi in reversed([*zip(self.re, self.im), *[(0, 0)] * (d + 1 - len(self.re))]):
            ar, ai = (ar << w) + pr * b, (ai << w) + pi * b
            b = b + (b << w)
        return _poly(_unpack(ar, nb, d + 1), _unpack(ai, nb, d + 1))

    def is_real(self) -> bool:
        return not any(self.im)

    def __str__(self):
        return poly_text(self)

    def __repr__(self):
        return f"Polynomial({poly_text(self)!r})"


# -- products -----------------------------------------------------------------

# Shorter operand length up to which the schoolbook rows beat packing; measured
# with CPython 3.11 on 3- to 300-bit coefficients and longer operands of 10 to 100.
_SCHOOLBOOK_MAX = 8


def _products(pairs) -> tuple[list, list]:
    """Parts of the sum of a*b over pairs (a, b) of integer parts (re, im), by one kernel: by rows
    into one buffer when every pair's shorter operand has at most ``_SCHOOLBOOK_MAX``
    coefficients, and as one packed sum otherwise; a zero operand adds nothing."""
    pairs = [(a, b) if len(a[0]) <= len(b[0]) else (b, a) for a, b in pairs if a[0] and b[0]]
    if any(len(a[0]) > _SCHOOLBOOK_MAX for a, _ in pairs):
        return _kronecker(pairs)
    n = max((len(a[0]) + len(b[0]) for a, b in pairs), default=1) - 1
    re, im = [0] * n, [0] * n
    for a, b in pairs:
        _rows(re, im, a, b)
    return re, im


def _rows(re, im, a, b):
    """re + i*im += a*b in place, for parts a and b: b times each nonzero coefficient of a."""
    gauss = any(a[1]) or any(b[1])
    for k, t in enumerate(zip(*a)):
        if t[0] or t[1]:
            _eliminate(re, im, k, (-t[0], -t[1]), b, gauss)


def _kronecker(pairs) -> tuple[list, list]:
    """Packed sum of products over pairs of nonzero parts: each operand packed once, one
    big-integer product a pair if both are real, three (Karatsuba) if not, one unpack a part."""
    n = max(len(a[0]) + len(b[0]) for a, b in pairs) - 1
    bounds = [max(map(abs, a[0] + a[1])) * max(map(abs, b[0] + b[1])) * min(len(a[0]), len(b[0]))
              for a, b in pairs]
    nb = _slot_bytes(sum(bounds))
    # a pair with an all-zero operand adds nothing, and its other operand may not fit a slot
    pairs = [pair for pair, bound in zip(pairs, bounds) if bound]
    re = im = 0
    bias = _bias(nb, n)
    for (ar, ai), (br, bi) in pairs:
        ba, bb = bias >> (8 * nb * (n - len(ar))), bias >> (8 * nb * (n - len(br)))
        pa, pb = _pack(ar, nb, ba), _pack(br, nb, bb)
        if any(ai) or any(bi):
            qa, qb = _pack(ai, nb, ba), _pack(bi, nb, bb)
            rr, ii = pa * pb, qa * qb
            re, im = re + rr - ii, im + (pa + qa) * (pb + qb) - rr - ii
        else:
            re += pa * pb
    return _unpack(re, nb, n), _unpack(im, nb, n) if im else [0] * n


def _slot_bytes(bound: int) -> int:
    """The slot width nb in bytes for parts up to ``bound``: w = 8*nb >= bitlen(bound) + 2."""
    return (bound.bit_length() + 9) // 8


def evaluate_packed(expr, bound: int, length: int) -> Polynomial:
    """The integer polynomial p with p(2**w) = expr(2**w), an int; |coefficients| <= bound."""
    nb = _slot_bytes(bound)
    return _poly(_unpack(expr(1 << (8 * nb)), nb, length), [0] * length)


def _bias(nb: int, n: int) -> int:
    """2**(8*nb - 1) in each of n >= 1 slots of 8*nb bits; its top slot alone is that bias."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * n, "little")


def _pack(v, nb: int, bias: int) -> int:
    """sum v[k] * 2**(8*nb*k) for ints |v[k]| < 2**(8*nb - 1), given ``bias`` = _bias(nb, len(v)):
    each slot written unsigned as v[k] plus the bias, in [0, 2**(8*nb)), and the bias subtracted once."""
    half = bias >> (8 * nb * (len(v) - 1))
    return int.from_bytes(b"".join([(x + half).to_bytes(nb, "little") for x in v]), "little") - bias


def _unpack(x: int, nb: int, n: int) -> list:
    """The n >= 1 slots c[k] of x = sum c[k] * 2**(8*nb*k), for |c[k]| < 2**(8*nb - 1): the bias
    added once makes every slot c[k] plus the bias, read unsigned."""
    bias = _bias(nb, n)
    slots = struct.unpack(f"{nb}s" * n, (x + bias).to_bytes(n * nb, "little"))
    half = bias >> (8 * nb * (n - 1))
    return [c - half for c in map(int.from_bytes, slots, itertools.repeat("little"))]


# -- content, gcd and exact division -------------------------------------------


def _eliminate(rr, ri, k: int, t, b, gauss: bool):
    """r -= t * z**k * b in place, for a Gaussian integer t and a vector b."""
    (tr, ti), (br, bi) = t, b
    top = k + len(br)
    if gauss:
        rr[k:top], ri[k:top] = ([x - (tr * c - ti * d) for x, c, d in zip(rr[k:top], br, bi)],
                                [y - (tr * d + ti * c) for y, c, d in zip(ri[k:top], br, bi)])
    else:
        rr[k:top] = [x - tr * c for x, c in zip(rr[k:top], br)]


def _content(re, im) -> tuple[int, int]:
    """Joint content of the nonzero vector re + i*im, unit-ambiguous."""
    if not any(im):
        return (math.gcd(*re), 0)
    g = (0, 0)
    for pr in zip(re, im):
        if pr != (0, 0):
            g = _gauss_int_gcd(g, pr) if g != (0, 0) else pr
            if g[0] * g[0] + g[1] * g[1] == 1:
                break
    return g


def _primitive(re, im):
    """The vector divided by its content (the empty vector stays empty)."""
    return _divided(re, im, _content(re, im) if re else (1, 0))


def _divided(re, im, g):
    """The vector divided exactly by the Gaussian integer g; by a real g with ``//``."""
    if g[1]:
        pairs = [_gauss_int_div(c, g) for c in zip(re, im)]
        return [x for x, _ in pairs], [y for _, y in pairs]
    return ([x // g[0] for x in re], [y // g[0] for y in im]) if g[0] != 1 else (re, im)


def _pairs_pseudo_rem(a, b):
    """Ring multiple of a mod b over the Gaussian integers; caller strips content.

    a and b are (re, im) pairs of integer vectors, b nonzero.
    """
    rr, ri = list(a[0]), list(a[1])
    db = len(b[0]) - 1
    lr, li = b[0][-1], b[1][-1]
    gauss = any(ri) or any(b[1])
    for k in range(len(rr) - 1 - db, -1, -1):
        t = (rr[db + k], ri[db + k])
        if t[0] or t[1]:
            # r <- lc(b) * r - t * z**k * b clears coefficient db + k
            if (lr, li) != (1, 0):
                rr, ri = _products([(((lr,), (li,)), (rr, ri))])
            _eliminate(rr, ri, k, t, b, gauss)
    del rr[db:], ri[db:]
    while rr and not rr[-1] and not ri[-1]:
        rr.pop()
        ri.pop()
    return rr, ri


@functools.cache
def _prime_at_least(n: int) -> int:
    return n if all(n % d for d in range(2, math.isqrt(n) + 1)) else _prime_at_least(n + 1)


def _at(v, w: int) -> int:
    """sum v[k] * 2**(w*k) as one sum of shifts; the v[k] may be wider than w bits."""
    return sum(map(operator.lshift, v, range(0, w * len(v), w)))


def _coprime_at_point(a, b) -> bool:
    """True proves the primitive pair a, b (a the longer) coprime over Q(i); False, nothing."""
    (ar, ai), (br, bi) = a, b
    d = len(br) - 1
    if not d:
        return True  # a primitive constant is a unit
    # every root of b is below 2**e (Fujiwara): |b_k / b_d| < 2**(L_k - m + 1)
    m = max(abs(br[d]), abs(bi[d])).bit_length()
    e = 1 + max(0, *[((abs(x) + abs(y)).bit_length() - m + d - k) // (d - k)
                     for k, (x, y) in enumerate(zip(br[:d], bi[:d]))])
    w = _prime_at_least(e + 16)
    gap = (1 << w) - (1 << e)
    if not any(ai) and not any(bi):
        return math.gcd(_at(ar, w), _at(br, w)) < gap
    x, y, u, v = _at(ar, w), _at(ai, w), _at(br, w), _at(bi, w)
    # the norms, and the parts of a(N) conj(b(N)), which a conjugate pair's equal norms need
    return math.gcd(x * x + y * y, u * u + v * v, x * u + y * v, y * u - x * v) < gap * gap


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Primitive gcd via a primitive pseudo-remainder sequence (unit-ambiguous).

    A pair proved coprime at a point returns the unit 1 without the sequence.
    """
    a, b = _primitive(f.re, f.im), _primitive(g.re, g.im)
    if len(a[0]) < len(b[0]):
        a, b = b, a
    if b[0] and _coprime_at_point(a, b):
        return Polynomial.one()
    while b[0]:
        a, b = b, _primitive(*_pairs_pseudo_rem(a, b))
    return _raw(*a)


def poly_exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    """The quotient a/b, each coefficient an exact Gaussian division by lc(b); raises ArithmeticError
    unless b divides a in Z[i][z], as a primitive b that divides a over Q(i) does (Gauss's lemma)."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    br, bi = b.re, b.im
    rr, ri = list(a.re), list(a.im)
    db, gauss = len(br) - 1, any(ri) or any(bi)
    qr, qi = [0] * (len(rr) - db), [0] * (len(rr) - db)
    for k in range(len(qr) - 1, -1, -1):
        t = (rr[db + k], ri[db + k])
        if t[0] or t[1]:
            qr[k], qi[k] = t = _gauss_int_div(t, (br[-1], bi[-1]))
            _eliminate(rr, ri, k, t, (br, bi), gauss)
    if any(rr) or any(ri):
        raise ArithmeticError("polynomial division was not exact")
    return _poly(qr, qi)


def _cancel(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    """a and b divided by their gcd (unchanged when it is a unit)."""
    g = poly_gcd(a, b)
    return (a, b) if g.degree == 0 else (poly_exact_div(a, g), poly_exact_div(b, g))


# Canonical numerators and denominators are hash-consed: equal ones are one
# object, so a closed form built again, by another route or another call,
# stores no second copy of its coefficients.  An entry dies with its polynomial.
_CANONICAL = weakref.WeakValueDictionary()


def _canonical(re, im) -> Polynomial:
    p = _raw(re, im)
    return _CANONICAL.setdefault((p.re, p.im), p)


def _sector_turns(lr: int, li: int) -> int:
    """k with i**k * (lr + i*li) in the half-open sector {re > 0, im >= 0}."""
    turns = ((lr, li), (-li, lr), (-lr, -li), (li, -lr))
    return next(k for k, (x, y) in enumerate(turns) if x > 0 and y >= 0)


class RationalFunction:
    """Canonical quotient of two polynomials; equality is structural."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, *, _reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator rational function")
        if num.is_zero():
            self.num = Polynomial.zero()
            self.den = Polynomial.one()
            return
        if not _reduced:
            num, den = _cancel(num, den)
        # joint content 1 and a sector-normal lead; the denominator's parts come first, as its
        # coefficients, often a unit at z^0, end the content's gcd early
        n = len(den.re)
        re, im = [*den.re, *num.re], [*den.im, *num.im]
        g = _content(re, im)
        if g[0] * g[0] + g[1] * g[1] != 1:  # a unit content is left to the sector turn
            re, im = _divided(re, im, g)
        re, im = _rotate(re, im, _sector_turns(re[n - 1], im[n - 1]))
        self.num = _canonical(re[n:], im[n:])
        self.den = _canonical(re[:n], im[:n])

    # -- constructors ----------------------------------------------------
    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls(Polynomial.one(), Polynomial.one(), _reduced=True)._scaled(c)

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(Polynomial.zero(), Polynomial.one(), _reduced=True)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_real(self) -> bool:
        return self.num.is_real() and self.den.is_real()

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = RationalFunction.constant(other) if isinstance(other, _SCALARS) else other
        if not isinstance(o, RationalFunction):
            return NotImplemented
        p1, q1, p2, q2 = self.num, self.den, o.num, o.den
        coprime = poly_gcd(q1, q2).degree == 0
        num = _products([((p1.re, p1.im), (q2.re, q2.im)), ((p2.re, p2.im), (q1.re, q1.im))])
        return RationalFunction(_poly(*num), q1 * q2, _reduced=coprime)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, (RationalFunction, *_SCALARS)) else NotImplemented

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def _scaled(self, c) -> "RationalFunction":
        """c * self for an exact scalar c = g/d, with no gcd: g, a Gaussian integer, scales the
        numerator and d, the lcm of the denominators of c's parts, the denominator.  Nonzero
        constants create no common factor, and c = 0 gives a zero numerator, the zero form."""
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        d = math.lcm(c.re.denominator, c.im.denominator)
        return RationalFunction(self.num.scale(c * d), self.den.scale(d), _reduced=True)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        (p1, q2), (p2, q1) = _cancel(self.num, other.den), _cancel(other.num, self.den)
        return RationalFunction(p1 * p2, q1 * q2, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(GaussianRational(1) / other)  # raises for a zero scalar
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFunction(other.den, other.num, _reduced=True)

    def __rtruediv__(self, other):
        if not isinstance(other, _SCALARS):
            return NotImplemented
        return RationalFunction.constant(other) / self

    def __pow__(self, k: int):
        if k < 0:
            if self.num.is_zero():
                raise ZeroDivisionError("zero rational function to a negative power")
            return RationalFunction(self.den, self.num, _reduced=True) ** (-k)
        return RationalFunction(self.num**k, self.den**k, _reduced=True)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        return rf_to_text(self)

    def __repr__(self):
        return f"<RationalFunction {rf_to_text(self)}>"


def z_ddz(f: RationalFunction, n: int = 1) -> RationalFunction:
    """The derivation theta = z * d/dz applied n >= 0 times, canonicalized once at the end.

    One gcd serves every step.  For f = p/q, g = gcd(q, q') times the content
    of q gives the primitive radical r = q/g and v = q'/g, so that q'/q = v/r.
    By Gauss's lemma q = c h1^m1 ... hk^mk, c its content and each hj
    primitive and irreducible, so r = h1 ... hk up to a unit and
    v = r q'/q = sum_j mj hj' r/hj: both have Gaussian-integer coefficients.
    Then theta(p/q) = z N / (q r) with N = p' r - p v, instead of
    z (p' q - p q') / q**2.  A root a of q of multiplicity m is a simple root
    of r, so r(a) = 0 and v(a) = m r'(a) != 0; p(a) != 0 as p/q is coprime;
    hence N(a) = -p(a) v(a) != 0, and N is coprime to q r, whose roots are
    those of q.  So z N and q r share at most one factor z, exactly when
    q(0) = 0.  The steps run unreduced: after k of them the denominator q r^k
    has the roots of q and no other, so its radical is still r, and its
    log-derivative q'/q + k r'/r = (v + k r')/r is what the carry
    v <- v + r' holds, with no gcd or division.  A step reads q only through
    v, so the loop carries p and -v alone, as integer parts, and q r^n is
    formed once, by repeated squaring.  z N = p' (z r) + p (-z v) is one sum
    of products: the factor z is one slot of offset on r, on -v and on the
    carry's r', put there once.  When z | q, a step's pair shares exactly one
    z (above), and with it divided out the denominator keeps the root 0, so
    the next pair does too: the unreduced pair after n steps is the reduced
    one times z^n, the whole of its gcd.  One slice of n slots divides both
    parts by it, and one polynomial is built, whose content and sector alone
    need normalizing.  n = 0 returns f; n < 0 raises ValueError.
    """
    if n < 0:
        raise ValueError("z_ddz needs a count n >= 0")
    if not n:
        return f
    p, q = f.num, f.den
    dq = q.derivative()
    g = poly_gcd(q, dq).scale(GaussianRational(*_content(q.re, q.im)))
    r, v = poly_exact_div(q, g), poly_exact_div(dq, g)
    q = _power(r, n, q)
    r, nv, ndr = ([(0, *x.re), (0, *x.im)] for x in (r, -v, -r.derivative()))
    p = p.re, p.im
    for _ in range(n):
        dp = [[*map(operator.mul, range(1, len(x)), x[1:])] for x in p]
        p = _products([(dp, r), (p, nv)])
        nv = _vadd(nv[0], ndr[0]), _vadd(nv[1], ndr[1])
    if not (q.re[0] or q.im[0]):  # z divides q, and the pair shares exactly z^n
        p, q = [x[n:] for x in p], _raw(q.re[n:], q.im[n:])
    return RationalFunction(_poly(*p), q, _reduced=True)


_SUBSTITUTIONS = {
    "negate_z": lambda p, d: p.turn_arg(2),
    "square_z": lambda p, d: p.square_arg(),
    "i_times_z": lambda p, d: p.turn_arg(1),
    "invert_z": Polynomial.invert_arg,
    "half_angle": Polynomial.half_angle_arg,
    "z_over_1_plus_z": Polynomial.over_one_plus_arg,
}


def substitute(f: RationalFunction, kind: str) -> RationalFunction:
    """Exact argument transform: z -> -z, z^2, i*z, 1/z, (1 + it)/(1 - it) or z/(1 + z), in
    O(n) steps and no polynomial gcd.

    Each transform preserves coprimality of the canonical pair p/q, so only
    re-normalization is needed.  For 1/z, f(1/z) = z^d p(1/z) / z^d q(1/z)
    with d = max(deg p, deg q): both parts padded to d and reversed.  A common
    root r != 0 of the two would make 1/r a common root of p and q, and z
    divides both only if d exceeded both degrees.  ``"half_angle"`` (z = exp(ix),
    t = tan(x/2)) multiplies both by (1 - it)^d: a common root s != -i would make
    (1 + is)/(1 - is) a common root of p and q; at -i only 2^d p_d and 2^d q_d, not both 0, remain.
    ``"z_over_1_plus_z"`` multiplies both by (1 + z)^d: a common root s != -1 would make
    s/(1 + s) a common root of p and q; at -1 only (-1)^d p_d and (-1)^d q_d, not both 0, remain.
    """
    if kind not in _SUBSTITUTIONS:
        raise ValueError(f"unknown substitution {kind!r}; expected one of {tuple(_SUBSTITUTIONS)}")
    transform, d = _SUBSTITUTIONS[kind], max(f.num.degree, f.den.degree)
    return RationalFunction(transform(f.num, d), transform(f.den, d), _reduced=True)


def odd_part(f: RationalFunction) -> RationalFunction:
    """(f(z) - f(-z))/2, the odd part of f.

    For f = p/q, f = M/D with M = p(z) q(-z) and D = q(z) q(-z), and f(-z) = M(-z)/D, so the
    odd part is O(M)/D, O keeping the coefficients of M at odd exponents: two products and no
    rescale.  One gcd of q and q(-z) proves the pair coprime when it is a unit (the module
    docstring); otherwise the odd part takes the full gcd, as a sum does.
    """
    p, q = f.num, f.den
    qm = q.turn_arg(2)
    coprime = poly_gcd(q, qm).degree == 0
    re, im = _products([((p.re, p.im), (qm.re, qm.im))])
    re[0::2] = im[0::2] = [0] * len(re[0::2])
    return RationalFunction(_poly(re, im), q * qm, _reduced=coprime)


def rf_eval(f: RationalFunction, z) -> complex:
    """Evaluate at a complex double: the exact value there, rounded once per part.

    The double z is read as the Gaussian rational it represents exactly, Z/E with int parts
    straight from ``float.as_integer_ratio``: E, the lcm of the parts' power-of-two
    denominators, is the larger of them.  Each part x/d of the integer quotient
    :func:`_quotient` returns is rounded once by ``int / int``, which rounds correctly: the
    double the reduced quotient would round to, as both are one number.  A part beyond double
    range rounds to +-inf with its sign.
    Raises PoleError only when the exact denominator is zero at that point: a small nonzero
    denominator is not a pole; raises DomainError when a part of z is not finite.
    """
    zc = complex(z)
    x, y, d = _quotient(f, *_over_one_denominator(zc.real, zc.imag))
    return complex(round_quotient(x, d), round_quotient(y, d))


def rf_eval_exact(f: RationalFunction, z) -> GaussianRational:
    """Evaluate exactly at a Gaussian rational (or int/Fraction) point: the quotient of
    :func:`_quotient`, reduced."""
    z = z if isinstance(z, GaussianRational) else GaussianRational(z)
    x, y, d = _quotient(f, *_over_one_denominator(z.re, z.im))
    return GaussianRational(Fraction(x, d), Fraction(y, d))


def _quotient(f: RationalFunction, z: GaussianRational, e: int) -> tuple[int, int, int]:
    """Ints x, y and d > 0 with f(z/e) = (x + yi)/d, unreduced, for z of int parts and e > 0;
    PoleError where the denominator is zero.  Numerator and denominator share the point's
    powers z^g and e^g where their g agree, as for li, chi, Ti and the route forms.  From their
    values (a + bi)/p and (c + di)/q, f = (a + bi) q (c - di)/((c^2 + d^2) p), or (a + bi) q/(c p)
    when d = 0: at a real point the conjugate product would only multiply every part by c, and
    cost numeric-eval's real-point tail about 5%."""
    powers = {}
    c, d, q = f.den._read(z, e, powers)
    if not c and not d:
        z = GaussianRational(Fraction(z.re, e), Fraction(z.im, e))
        raise PoleError(f"evaluation at a pole: z = {z}")
    a, b, p = f.num._read(z, e, powers)
    if not d:
        return (a * q, b * q, c * p) if c > 0 else (-a * q, -b * q, -c * p)
    return (a * c + b * d) * q, (b * c - a * d) * q, (c * c + d * d) * p


def require_real(f, label: str, n: int):
    """f, a polynomial or form built in Gaussian arithmetic, if its coefficients are real;
    ImaginaryResidueError, naming label and n, if not."""
    if not f.is_real():
        raise ImaginaryResidueError(f"{label} n={n}: its exact form has non-real coefficients")
    return f


# ---------------------------------------------------------------------------
# rendering and serialization
# ---------------------------------------------------------------------------


def _split_sign(c: GaussianRational) -> tuple[bool, GaussianRational]:
    if c.is_real():
        return (c.re < 0, GaussianRational(abs(c.re)))
    if not c.re:
        return (c.im < 0, GaussianRational(0, abs(c.im)))
    return (False, c)


def _magnitude_text(mag: GaussianRational, power: int, latex: bool) -> str:
    if mag.is_real():
        fr = mag.re
        if power > 0 and fr == 1:
            return ""
        if fr.denominator == 1:
            return str(fr)
        if latex:
            return rf"\frac{{{fr.numerator}}}{{{fr.denominator}}}"
        return f"({fr})" if power > 0 else str(fr)
    if not mag.re:
        head = _magnitude_text(GaussianRational(mag.im), power if mag.im != 1 else 1, latex)
        if mag.im == 1:
            head = ""
        return head + "i"
    return f"({mag})"


def _power_text(var: str, k: int, latex: bool) -> str:
    if k == 0:
        return ""
    if k == 1:
        return var
    return f"{var}^{{{k}}}" if latex else f"{var}^{k}"


def poly_text(p: Polynomial, *, spaced: bool = True, latex: bool = False, var: str = "z") -> str:
    """Ascending-power text such as ``z + 6z^3 + z^5``, in the letter ``var`` (ASCII minus)."""
    return _terms_text(p.coeffs, spaced, latex, var)


def _terms_text(coeffs, spaced: bool = True, latex: bool = False, var: str = "z") -> str:
    """The text of the polynomial with exact coefficients ``coeffs``, ascending."""
    parts: list[str] = []
    for k, c in enumerate(coeffs):
        if c.is_zero():
            continue
        neg, mag = _split_sign(c)
        body = _magnitude_text(mag, k, latex) + _power_text(var, k, latex)
        if not parts:
            parts.append(("-" if neg else "") + body)
        elif spaced:
            parts.append((" - " if neg else " + ") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts) or "0"


def powered_parts(f: RationalFunction) -> tuple[tuple, Polynomial, int]:
    """Display form (num, base, e) with f = num / base**e and a positive base.

    The stored canonical pair normalizes the denominator's leading
    coefficient; for display the base is flipped to have a positive constant
    term (the usual ``1 - z^2`` convention), with the sign folded into the
    numerator.  ``num`` is the tuple of the numerator's exact coefficients,
    ascending: for a non-real form, matching den to a power of a primitive
    base can leave them non-integral.
    """
    num, den = f.num, f.den
    candidates = [(den, 1)]  # den itself always fits
    g = poly_gcd(den, den.derivative())
    if g.degree > 0:
        q = poly_exact_div(den, g)
        rad = _raw(*_primitive(q.re, q.im))
        if den.degree % rad.degree == 0 and den.degree > rad.degree:
            candidates = [(rad, den.degree // rad.degree), (den, 1)]
    for base, e in candidates:
        c0 = base.constant() if not base.constant().is_zero() else base.lead()
        if _split_sign(c0)[0]:
            base = -base
        pw = base**e
        if den.scale(pw.lead()) == pw.scale(den.lead()):  # not a clean perfect power otherwise
            s = pw.lead() / den.lead()
            return tuple(c * s for c in num.coeffs), base, e


def _den_text(base: Polynomial, e: int, latex: bool) -> str:
    body = poly_text(base, spaced=False, latex=latex)
    if base != Polynomial.variable() and (base.degree > 0 or e > 1):
        body = f"({body})"
    return body if e == 1 else body + (f"^{{{e}}}" if latex else f"^{e}")


def rf_to_text(f: RationalFunction) -> str:
    """Canonical ASCII rendering, e.g. ``(z + 6z^3 + z^5)/(1-z^2)^3``."""
    return _rf_render(f, latex=False)


def rf_to_latex(f: RationalFunction) -> str:
    return _rf_render(f, latex=True)


def _rf_render(f: RationalFunction, latex: bool) -> str:
    num, base, e = powered_parts(f)
    num_str = _terms_text(num, latex=latex)
    if base.degree == 0 and base.constant().is_one() and e == 1:
        return num_str
    if latex:
        return rf"\frac{{{num_str}}}{{{_den_text(base, e, latex=True)}}}"
    if sum(not c.is_zero() for c in num) > 1:
        num_str = f"({num_str})"
    return f"{num_str}/{_den_text(base, e, latex=False)}"


def _coef_from_str(s: str) -> GaussianRational:
    """Parse a coefficient as ``str(GaussianRational)`` writes it, e.g. ``-3/2+i``."""
    s = s.strip().replace(" ", "")
    if not s.endswith("i"):
        return GaussianRational(Fraction(s))
    k = max(s.rfind("+"), s.rfind("-"), 0)  # the sign that starts the imaginary part
    im = s[k:-1] + ("1" if s[k:-1] in ("", "+", "-") else "")
    return GaussianRational(Fraction(s[:k]) if k else 0, Fraction(im))


def rf_to_json(f: RationalFunction) -> dict:
    """JSON form {"num": [...], "den": [...]} with coefficients as decimal strings."""
    return {"num": [str(c) for c in f.num.coeffs], "den": [str(c) for c in f.den.coeffs]}


def rf_from_json(obj: dict) -> RationalFunction:
    """The canonical form of a JSON pair; coefficient denominators are cleared first."""
    num, den = ([_coef_from_str(s) for s in obj[k]] for k in ("num", "den"))
    d = math.lcm(*[x.denominator for c in num + den for x in (c.re, c.im)])
    return RationalFunction(Polynomial([c * d for c in num]), Polynomial([c * d for c in den]))
