"""Canonical dense polynomials and rational functions over the Gaussian integers.

Coefficients are Gaussian integers, so the imaginary unit is carried
exactly through intermediate algebra.  A :class:`RationalFunction` is always
stored in canonical form: numerator and denominator are coprime, all
coefficients are Gaussian integers with joint content 1, and the
denominator's leading coefficient lies in the half-open sector
``re > 0, im >= 0`` (positive in the purely real case).  That makes
structural equality of the stored pair a valid identity test.  Canonical
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
and w >= bitlen(max|a| * max|b| * min(len a, len b)) + 2, max|a| being the
largest absolute real or imaginary part of a.  A slot of the product's real
or imaginary part sums at most min(len a, len b) terms of one or two part
products, so its absolute value is at most 2 * max|a| * max|b| *
min(len a, len b) < 2**(w - 1): it fits in w signed bits and cannot spill
into its neighbour.  Unpacking reads each slot as a signed w-bit integer
and adds back the 1 that a negative slot borrowed from the one above it.  A
real product costs one big-integer product, a Gaussian one three
(Karatsuba's trick on the parts).  Up to ``_SCHOOLBOOK_MAX`` coefficients in
the shorter operand, a row-by-row schoolbook product is faster.  A whole sum
of integer polynomials is evaluated once at x = 2**w and read back the same
way (:func:`evaluate_packed`).  Its bound is the sum evaluated on the
coefficient 1-norms (sum |c[k]|, subadditive and submultiplicative) of its
polynomials and the absolute values of its scalars.

Polynomial gcds use a primitive pseudo-remainder sequence (PRS) over the
Gaussian integers, the only path that computes a gcd of positive degree.
Most pairs met in canonicalization are coprime, which one integer gcd at a
point proves without the PRS: the heuristic gcd of Char, Geddes and Gonnet
(1989), made a proof by Fujiwara's root bound (1916).  For primitive a, b
with d = deg b >= 1, M = bitlen(max(|re b_d|, |im b_d|)) and L_k =
bitlen(|re b_k| + |im b_k|), every root of b is below 2**e in absolute value,
e = 1 + max(0, max over k < d of ceil((L_k - M + 1)/(d - k))); N = 2**w, w
the least prime >= e + 64.  If a and b share a factor, by Gauss's lemma a
primitive h in Z[i][z] (Z[z] for a real pair) with deg h >= 1 divides both,
so h(N) divides a(N) and b(N) and its norm divides both norms, while |h(N)|
>= |lc h| * prod |N - r| >= N - 2**e over the roots r of h, roots of b.  So
gcd(a(N), b(N)) < N - 2**e for a real pair, or else gcd(|a(N)|**2,
|b(N)|**2) < (N - 2**e)**2 (a real value normed too), proves the pair
coprime over Q(i) and the unit 1 is returned; any other outcome runs the
PRS.  w is prime because the library's denominators have their roots at 0,
+-1 and +-i, so chance common factors of the two values come from N +- 1 and
N**2 + 1: 2**w - 1 has no prime factor below 2w + 1, 2**w + 1 only 3, and
2**(2w) + 1 only 5.  Exact division divides by the divisor itself; every
divisor the library passes is primitive (a gcd, or a canonical denominator of
content 1), so the quotient has Gaussian-integer coefficients (Gauss's lemma).

Canonicalization runs a gcd only where coprimality is not known from the
inputs.  Each place that skips one rests on a proof:

* a sum whose denominators have a unit gcd is canonical as
  (p1 q2 + p2 q1)/(q1 q2); any other sum takes the full gcd;
* a product of two canonical forms can cancel only crosswise, p1 against q2
  and p2 against q1;
* a product or quotient by a nonzero exact scalar c: c p and q have the
  common factors of p and q, that is none;
* ``z_ddz``: the pair it builds is coprime but for one factor z, which it
  removes when q(0) = 0 (proof in its docstring);
* the argument transforms of ``substitute`` map a coprime pair to a
  coprime pair.

Numeric evaluation (:func:`rf_eval`) runs the exact Horner scheme of
:func:`rf_eval_exact` at the double's exact value and rounds once at the
end.  Horner reads each polynomial as z^s q(z^g), s its lowest exponent with
a nonzero coefficient and g the gcd of the gaps between such exponents, and
steps through q at z^g: the odd and even numerators and denominators of chi
and Ti and the derivative polynomials take half the steps.  A real q equal to
c (1 + r w)^e for integers c and r, as the denominators (1 -+ z^g)^(n+1) of
li, chi and Ti are, is read as that power and raised by repeated squaring.
The quotient is not reduced: over one common denominator, each part's
numerator and denominator are integers, divided once by ``int / int``,
which rounds correctly.  Each step is an identity in exact arithmetic, so
the exact value, and the double it rounds to, cannot change.
Expanded high powers such as ``(1 - z^2)^11`` are catastrophically
ill-conditioned in double-precision Horner near ``|z| = 1``; exact
accumulation keeps every multi-route identity check meaningful at the
stated tolerances.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import weakref
from fractions import Fraction

from .errors import DomainError, PoleError

__all__ = [
    "GaussianRational",
    "I",
    "Polynomial",
    "RationalFunction",
    "poly_gcd",
    "poly_exact_div",
    "z_ddz",
    "substitute",
    "rf_eval",
    "rf_eval_exact",
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

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
        if not self.im and not o.im:
            return GaussianRational(Fraction(self.re) / o.re)
        n = o.re * o.re + o.im * o.im
        return GaussianRational(
            Fraction(self.re * o.re + self.im * o.im) / n,
            Fraction(self.im * o.re - self.re * o.im) / n,
        )

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
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(*(_frac_to_float(x.numerator, x.denominator) for x in (self.re, self.im)))

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


def _power(base, k: int, out):
    """out * base**k for k >= 0, by repeated squaring."""
    while k:
        if k & 1:
            out = out * base
        k >>= 1
        if k:
            base = base * base
    return out


def _frac_to_float(num: int, den: int) -> float:
    """num/den for den > 0, rounded once by ``int / int``; +-inf, by the sign of num, past double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _binomial_power(q) -> "tuple[int, int] | None":
    """(c, r) with q(w) = c (1 + r w)^e, e = len(q) - 1 >= 2, for integers c and r, or None.

    q[1] = c e r fixes r; term k, c C(e, k) r^k, is the last times (e - k + 1) r / k, an exact
    division, and the first term that differs turns q away, mostly after one or two."""
    e = len(q) - 1
    if e < 2:
        return None
    c, t = q[0], q[1]
    r, rem = divmod(t, c * e)
    if rem:
        return None
    for k in range(2, e + 1):
        t = t * (e - k + 1) * r // k
        if t != q[k]:
            return None
    return c, r


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

    __slots__ = ("re", "im", "__weakref__")

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
            if isinstance(other, (int, Fraction, GaussianRational)):
                return self.scale(other)
            return NotImplemented
        if not self.re or not other.re:
            return Polynomial.zero()
        return _raw(*_product(self.re, self.im, other.re, other.im))

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

    def horner(self, z: GaussianRational) -> GaussianRational:
        """Exact evaluation at a Gaussian rational point, read as z^s q(z^g).

        s is the lowest exponent with a nonzero real or imaginary part and g
        the gcd of the gaps between such exponents (0 for a monomial or
        zero).  Horner runs over q's coefficients, every g-th from s, at
        w = z^g, and the sum is multiplied by z^s (Knuth, TAOCP Vol. 2,
        4.6.4).  An odd or even polynomial takes half the steps of the dense
        loop.  A real q equal to c (1 + r w)^e (``_binomial_power``), such as
        the denominators (1 -+ z^g)^(n+1) of li, chi and Ti, is raised to its
        power by repeated squaring (4.6.3) in O(log n) products.  Since both
        readings are identities and every step is exact, the value is the
        same number the dense loop gives, and so are the bits ``rf_eval``
        rounds it to.
        """
        support = [k for k, (x, y) in enumerate(zip(self.re, self.im)) if x or y]
        s = min(support, default=0)
        g = math.gcd(*(k - s for k in support))
        w = z ** g
        qr, qi = self.re[s::g or 1], self.im[s::g or 1]
        if not any(qi) and (power := _binomial_power(qr)):
            c, r = power
            return _power(z, s, _power(r * w + 1, len(qr) - 1, GaussianRational(c)))
        q = zip(reversed(qr), reversed(qi))
        acc = GaussianRational(*next(q, (0, 0)))
        for x, y in q:
            acc = acc * w
            acc = GaussianRational(acc.re + x, acc.im + y)
        return _power(z, s, acc)

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
        pad = (0,) * (d - self.degree)
        return _poly((*self.re, *pad)[::-1], (*self.im, *pad)[::-1])

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


def _product(ar, ai, br, bi) -> tuple[list, list]:
    """Parts of (ar + i*ai)(br + i*bi) for nonzero integer vectors, by the shorter length."""
    if len(ar) > len(br):
        ar, ai, br, bi = br, bi, ar, ai
    return (_rows if len(ar) <= _SCHOOLBOOK_MAX else _kronecker)(ar, ai, br, bi)


def _rows(ar, ai, br, bi) -> tuple[list, list]:
    """Schoolbook product: b times each nonzero coefficient of a, added in place."""
    re, im = [0] * (len(ar) + len(br) - 1), [0] * (len(ar) + len(br) - 1)
    gauss = any(ai) or any(bi)
    for k, t in enumerate(zip(ar, ai)):
        if t[0] or t[1]:
            _eliminate(re, im, k, (-t[0], -t[1]), (br, bi), gauss)
    return re, im


def _kronecker(ar, ai, br, bi) -> tuple[list, list]:
    """Packed product: one big-integer product if both are real, three (Karatsuba) if not."""
    n = len(ar) + len(br) - 1
    nb = _slot_bytes(max(map(abs, [*ar, *ai])) * max(map(abs, [*br, *bi])) * min(len(ar), len(br)))
    ones = int.from_bytes((b"\x01" + bytes(nb - 1)) * max(len(ar), len(br)), "little")
    pa, pb = _pack(ar, nb, ones), _pack(br, nb, ones)
    if not any(ai) and not any(bi):
        return _unpack(pa * pb, nb, n), [0] * n
    qa, qb = _pack(ai, nb, ones), _pack(bi, nb, ones)
    rr, ii = pa * pb, qa * qb
    return _unpack(rr - ii, nb, n), _unpack((pa + qa) * (pb + qb) - rr - ii, nb, n)


def _slot_bytes(bound: int) -> int:
    """The slot width nb in bytes for parts up to ``bound``: w = 8*nb >= bitlen(bound) + 2."""
    return (bound.bit_length() + 9) // 8


def evaluate_packed(expr, bound: int, length: int) -> Polynomial:
    """The integer polynomial p with p(2**w) = expr(2**w), an int; |coefficients| <= bound."""
    nb = _slot_bytes(bound)
    return _poly(_unpack(expr(1 << (8 * nb)), nb, length), [0] * length)


def _pack(v, nb: int, ones: int) -> int:
    """sum v[k] * 2**(8*nb*k) for ints |v[k]| < 2**(8*nb - 1); ``ones`` marks every slot.

    A negative v[k], written in two's complement, reads as v[k] + 2**w: its
    sign bit finds it, and the carry it adds to slot k + 1 is taken back.
    """
    w = 8 * nb
    u = int.from_bytes(b"".join([x.to_bytes(nb, "little", signed=True) for x in v]), "little")
    return u - (((u >> (w - 1)) & ones) << w)


def _unpack(x: int, nb: int, n: int) -> list:
    """The n slots c[k] of x = sum c[k] * 2**(8*nb*k), for |c[k]| < 2**(8*nb - 1)."""
    b = x.to_bytes(n * nb, "little", signed=True)
    s = [int.from_bytes(b[i:i + nb], "little", signed=True) for i in range(0, n * nb, nb)]
    # a negative slot borrowed 1 from the slot above it
    return [s[0], *[c + (lo < 0) for c, lo in zip(s[1:], s)]]


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
    """The vector divided by its content (the empty vector stays empty); a real one with ``//``."""
    g = _content(re, im) if re else (1, 0)
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
                rr, ri = _rows((lr,), (li,), rr, ri)
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
    """sum v[k] * 2**(w*k) by Horner with shifts; the v[k] may be wider than w bits."""
    return functools.reduce(lambda acc, c: (acc << w) + c, reversed(v), 0)


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
    w = _prime_at_least(e + 64)
    gap = (1 << w) - (1 << e)
    if not any(ai) and not any(bi):
        return math.gcd(_at(ar, w), _at(br, w)) < gap
    x, y, u, v = _at(ar, w), _at(ai, w), _at(br, w), _at(bi, w)
    return math.gcd(x * x + y * y, u * u + v * v) < gap * gap


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
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        # joint content 1 and a sector-normal lead
        n = len(num.re)
        re, im = _primitive([*num.re, *den.re], [*num.im, *den.im])
        re, im = _rotate(re, im, _sector_turns(re[-1], im[-1]))
        self.num = _canonical(re[:n], im[:n])
        self.den = _canonical(re[n:], im[n:])

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

    def _coerce(self, x) -> "RationalFunction | None":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return RationalFunction.constant(x)
        return None

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self.num, self.den, o.num, o.den
        coprime = poly_gcd(q1, q2).degree == 0
        return RationalFunction(p1 * q2 + p2 * q1, q1 * q2, _reduced=coprime)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

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
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self.num, self.den, o.num, o.den
        g1 = poly_gcd(p1, q2)
        if g1.degree > 0:
            p1 = poly_exact_div(p1, g1)
            q2 = poly_exact_div(q2, g1)
        g2 = poly_gcd(p2, q1)
        if g2.degree > 0:
            p2 = poly_exact_div(p2, g2)
            q1 = poly_exact_div(q1, g2)
        return RationalFunction(p1 * p2, q1 * q2, _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self._scaled(GaussianRational(1) / other)  # raises for a zero scalar
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * RationalFunction(o.den, o.num, _reduced=True)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

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


def z_ddz(f: RationalFunction) -> RationalFunction:
    """The derivation z * d/dz applied once, quotient rule then canonicalized.

    With f = p/q and g = gcd(q, q'), the quotient rule is taken over g first:
    z N / (q u) with u = q/g, v = q'/g and N = p' u - p v, instead of
    z (p' q - p q') / q**2.  That pair needs no second gcd.  A root r of q of
    multiplicity m is a root of g of multiplicity m - 1 (characteristic 0),
    so u(r) = 0 and v(r) != 0; p(r) != 0 as p/q is canonical; hence
    N(r) = -p(r) v(r) != 0, and N is coprime to q u, whose roots are those of
    q.  So z N and q u share at most one factor z, exactly when q(0) = 0,
    and that z is shifted out of q u.
    """
    p, q = f.num, f.den
    dq = q.derivative()
    g = poly_gcd(q, dq)
    u, v = poly_exact_div(q, g), poly_exact_div(dq, g)
    num, den = p.derivative() * u - p * v, q * u
    if q.re[0] or q.im[0]:
        num = Polynomial.variable() * num
    else:
        den = _raw(den.re[1:], den.im[1:])
    return RationalFunction(num, den, _reduced=True)


_SUBSTITUTIONS = {
    "negate_z": lambda p, d: p.turn_arg(2),
    "square_z": lambda p, d: p.square_arg(),
    "i_times_z": lambda p, d: p.turn_arg(1),
    "invert_z": Polynomial.invert_arg,
}


def substitute(f: RationalFunction, kind: str) -> RationalFunction:
    """Exact argument transform: z -> -z, z^2, i*z, or 1/z, in O(n) steps and no polynomial gcd.

    Each transform preserves coprimality of the canonical pair p/q, so only
    re-normalization is needed.  For 1/z, f(1/z) = z^d p(1/z) / z^d q(1/z)
    with d = max(deg p, deg q): both parts padded to d and reversed.  A common
    root r != 0 of the two would make 1/r a common root of p and q, and z
    divides both only if d exceeded both degrees.
    """
    if kind not in _SUBSTITUTIONS:
        raise ValueError(f"unknown substitution {kind!r}; expected one of {tuple(_SUBSTITUTIONS)}")
    transform, d = _SUBSTITUTIONS[kind], max(f.num.degree, f.den.degree)
    return RationalFunction(transform(f.num, d), transform(f.den, d), _reduced=True)


def rf_eval(f: RationalFunction, z) -> complex:
    """Evaluate at a complex double: the exact value there, rounded once per part.

    The double z is read as the Gaussian rational it represents exactly.  With
    the exact numerator and denominator values (a + b i)/p and (c + d i)/p
    over one denominator p, each part of (a + b i)(c - d i)/(c^2 + d^2) is
    rounded once by ``int / int``, which rounds correctly: the double the
    reduced quotient would round to, as both are one number.  A part beyond
    double range rounds to +-inf with its sign.  Raises PoleError only when
    the exact denominator is zero at that point: a small nonzero denominator
    is not a pole; raises DomainError when a part of z is not finite.
    """
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise DomainError(f"evaluation needs a finite point, got z = {zc}")
    num_val, den_val = _values(f, GaussianRational(zc.real, zc.imag))
    parts = (num_val.re, num_val.im, den_val.re, den_val.im)
    p = math.lcm(*(x.denominator for x in parts))
    a, b, c, d = (x.numerator * (p // x.denominator) for x in parts)
    norm = c * c + d * d
    return complex(_frac_to_float(a * c + b * d, norm), _frac_to_float(b * c - a * d, norm))


def rf_eval_exact(f: RationalFunction, z) -> GaussianRational:
    """Evaluate exactly at a Gaussian rational (or int/Fraction) point, by Horner."""
    num_val, den_val = _values(f, z if isinstance(z, GaussianRational) else GaussianRational(z))
    return num_val / den_val


def _values(f: RationalFunction, z: GaussianRational) -> tuple[GaussianRational, GaussianRational]:
    """The exact numerator and denominator values at z; PoleError where the denominator is zero."""
    den_val = f.den.horner(z)
    if den_val.is_zero():
        raise PoleError(f"evaluation at a pole: z = {z}")
    return f.num.horner(z), den_val


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
