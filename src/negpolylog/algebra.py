"""Canonical dense polynomials and rational functions over exact coefficients.

Coefficients are Gaussian rationals (exact real and imaginary parts), so the
imaginary unit can be carried exactly through intermediate algebra.  A
:class:`RationalFunction` is always stored in canonical form:

* numerator and denominator are coprime polynomials,
* all coefficients are Gaussian integers with joint content 1,
* the denominator's leading coefficient lies in the half-open sector
  ``re > 0, im >= 0`` (i.e. it is positive in the purely real case),

which makes structural equality of the stored pair a valid identity test.

Polynomial gcds use a primitive pseudo-remainder sequence (PRS) over the
Gaussian integers, the only path that computes a gcd of positive degree.
Most pairs met in canonicalization are coprime, and a modular certificate
proves that without the PRS (Brown 1971):

* the prime is p = 998244353, below 2**30 so residues stay one-digit
  integers, and large enough that a coprime pair rarely meets the
  fallback below; since p = 1 (mod 4), -1 has a square root s mod p, so
  i -> s is a ring map from the Gaussian integers onto the field F_p and
  no extension field is needed;
* if the primitive a and b share a factor h of positive degree, Gauss's
  lemma makes h a Gaussian-integer polynomial whose leading coefficient
  divides both leading coefficients; when neither leading coefficient maps
  to 0, the image of h keeps its degree and divides both images, so their
  gcd mod p is not constant;
* hence a constant gcd mod p, with both leading coefficients nonzero mod p,
  proves a and b coprime over Q(i), and the unit 1 is returned;
* any other outcome (a leading coefficient that maps to 0, or a gcd of
  positive degree mod p, which a coprime pair gets when p divides its
  resultant) falls through to the PRS.

Values are immutable after construction and all operations are pure.

The kernel takes an integer path wherever its input already allows one, and
gives the same values as the general path:

* canonicalization reads the integer parts directly when every coefficient
  is integral (no common denominator to clear), and divides by a joint
  content that is a real integer with ``//``; a non-real content goes
  through Gaussian-integer division;
* exact division by a polynomial whose leading coefficient is a unit
  (1, -1, i or -i) multiplies by the inverse unit, so integer parts stay
  ``int``; any other divisor divides through ``Fraction``.

Every zero coefficient the kernel builds from integer parts (in canonical
forms and gcds) or pads a coefficient list with is the one shared object
``_ZERO``, so the many zero coefficients of the even and odd closed forms do
not cost an object each.  Sharing is sound only because no code assigns to
``re``/``im`` outside ``GaussianRational.__init__``; a test walks the
package's syntax trees to keep it so.

Numeric evaluation (:func:`rf_eval`) runs Horner's scheme with exact
coefficient arithmetic and rounds once at the end.  Expanded high powers such
as ``(1 - z^2)^11`` are catastrophically ill-conditioned in double-precision
Horner near ``|z| = 1``; exact accumulation keeps every multi-route identity
check meaningful at the stated tolerances.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import PoleError

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
]

def _q(x):
    """Promote an int to Fraction so division stays exact."""
    return Fraction(x) if type(x) is int else x


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
            return GaussianRational(_q(self.re) / o.re)
        n = o.re * o.re + o.im * o.im
        return GaussianRational(
            _q(self.re * o.re + self.im * o.im) / n,
            _q(self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(_frac_to_float(self.re), _frac_to_float(self.im))

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
_ZERO = GaussianRational(0)

_UNITS = (
    GaussianRational(1),
    GaussianRational(0, 1),
    GaussianRational(-1),
    GaussianRational(0, -1),
)
# (re, im) of each unit -> its inverse: 1/i = -i and 1/(-i) = i
_UNIT_INVERSES = {(1, 0): _UNITS[0], (0, 1): _UNITS[3], (-1, 0): _UNITS[2], (0, -1): _UNITS[1]}


def _from_pair(a: int, b: int) -> GaussianRational:
    """The coefficient a + b*i of integer parts; every zero is the shared ``_ZERO``."""
    return GaussianRational(a, b) if a or b else _ZERO


def _frac_to_float(fr) -> float:
    try:
        return float(fr)
    except OverflowError:
        return math.inf if fr > 0 else -math.inf


def _round_div(p: int, q: int) -> int:
    """Nearest integer to p/q for q > 0 (halves round up)."""
    return (2 * p + q) // (2 * q)


def _gauss_int_gcd(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Euclidean gcd in the Gaussian integers, unit-ambiguous."""
    if a[1] == 0 and b[1] == 0:
        return (math.gcd(a[0], b[0]), 0)
    while b != (0, 0):
        br, bi = b
        n = br * br + bi * bi
        ar, ai = a
        qr = _round_div(ar * br + ai * bi, n)
        qi = _round_div(ai * br - ar * bi, n)
        a, b = b, (ar - (qr * br - qi * bi), ai - (qr * bi + qi * br))
    return a


def _gauss_int_div(c: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
    """Exact division in the Gaussian integers."""
    cr, ci = c
    gr, gi = g
    n = gr * gr + gi * gi
    pr, rr = divmod(cr * gr + ci * gi, n)
    pi, ri = divmod(ci * gr - cr * gi, n)
    if rr or ri:
        raise ArithmeticError("non-exact Gaussian division")
    return pr, pi


class Polynomial:
    """Dense univariate polynomial, ascending coefficients, trailing zeros stripped."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs=(), var: str = "z"):
        cs = [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    @classmethod
    def zero(cls, var: str = "z") -> "Polynomial":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "z") -> "Polynomial":
        return cls((1,), var)

    @classmethod
    def variable(cls, var: str = "z") -> "Polynomial":
        return cls((0, 1), var)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def constant(self) -> GaussianRational:
        return self.coeffs[0] if self.coeffs else _ZERO

    def lead(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_var(self, other: "Polynomial"):
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out, self.var)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs], self.var)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, (int, Fraction, GaussianRational)):
                return self.scale(other)
            return NotImplemented
        self._check_var(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.var)
        a, b = self.coeffs, other.coeffs
        out = [_ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero():
                continue
            for j, cb in enumerate(b):
                if not cb.is_zero():
                    out[i + j] = out[i + j] + ca * cb
        return Polynomial(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Polynomial.one(self.var)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.var == other.var and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def scale(self, c) -> "Polynomial":
        c = c if isinstance(c, GaussianRational) else GaussianRational(c)
        if c.is_zero():
            return Polynomial.zero(self.var)
        return Polynomial([ci * c for ci in self.coeffs], self.var)

    def derivative(self) -> "Polynomial":
        return Polynomial([c * k for k, c in enumerate(self.coeffs) if k], self.var)

    def horner(self, z: GaussianRational) -> GaussianRational:
        """Exact evaluation at a Gaussian rational point."""
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    # argument transforms used by `substitute`
    def negate_arg(self) -> "Polynomial":
        return Polynomial(
            [(-c if k & 1 else c) for k, c in enumerate(self.coeffs)], self.var
        )

    def square_arg(self) -> "Polynomial":
        out = [_ZERO] * (2 * len(self.coeffs))
        for k, c in enumerate(self.coeffs):
            out[2 * k] = c
        return Polynomial(out, self.var)

    def scale_arg(self, s: GaussianRational) -> "Polynomial":
        out, p = [], GaussianRational(1)
        for c in self.coeffs:
            out.append(c * p)
            p = p * s
        return Polynomial(out, self.var)

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.coeffs)

    def is_integral(self) -> bool:
        return all(c.is_integer() for c in self.coeffs)

    def __str__(self):
        return poly_text(self)

    def __repr__(self):
        return f"Polynomial({poly_text(self)!r}, var={self.var!r})"


def _int_pairs(p: Polynomial, lam: int) -> list[tuple[int, int]]:
    """Integer parts of lam * p, for lam a common denominator of p's coefficients."""
    if lam == 1:
        return [(c.re.numerator, c.im.numerator) for c in p.coeffs]
    return [((c.re * lam).numerator, (c.im * lam).numerator) for c in p.coeffs]


def _denominator_lcm(polys) -> int:
    lam = 1
    for p in polys:
        for c in p.coeffs:
            if type(c.re) is not int:
                lam = math.lcm(lam, c.re.denominator)
            if type(c.im) is not int:
                lam = math.lcm(lam, c.im.denominator)
    return lam


def _content(pairs) -> tuple[int, int]:
    if all(b == 0 for _, b in pairs):
        g = 0
        for a, _ in pairs:
            g = math.gcd(g, a)
            if g == 1:
                break
        return (g, 0) if g else (1, 0)
    g = (0, 0)
    for pr in pairs:
        if pr == (0, 0):
            continue
        g = _gauss_int_gcd(g, pr) if g != (0, 0) else pr
        if g[0] * g[0] + g[1] * g[1] == 1:
            break
    return g if g != (0, 0) else (1, 0)


def _pairs_from_poly(p: Polynomial) -> list[tuple[int, int]]:
    return _int_pairs(p, _denominator_lcm([p]))


def _divide_content(pairs: list[tuple[int, int]], g: tuple[int, int]) -> list[tuple[int, int]]:
    """Exact division of every pair by a content g; a real g divides with ``//``."""
    if g == (1, 0):
        return pairs
    gr, gi = g
    if not gi:
        return [(a // gr, b // gr) for a, b in pairs]
    return [_gauss_int_div(c, g) for c in pairs]


def _pairs_primitive(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    while pairs and pairs[-1] == (0, 0):
        pairs.pop()
    if not pairs:
        return pairs
    return _divide_content(pairs, _content(pairs))


def _to_int_primitive(p: Polynomial) -> Polynomial:
    """Scale p to Gaussian-integer coefficients with content 1 (unit-ambiguous)."""
    if p.is_zero():
        return p
    pairs = _pairs_primitive(_pairs_from_poly(p))
    return Polynomial([_from_pair(a, b) for a, b in pairs], p.var)


def _pairs_pseudo_rem(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Ring multiple of a mod b over the Gaussian integers; caller strips content."""
    db = len(b) - 1
    br, bi = b[-1]
    real_lc = bi == 0
    r = list(a)
    for k in range(len(a) - 1 - db, -1, -1):
        tr, ti = r[db + k]
        if tr == 0 and ti == 0:
            continue
        if real_lc:
            for i in range(db + k):
                xr, xi = r[i]
                r[i] = (xr * br, xi * br)
        else:
            for i in range(db + k):
                xr, xi = r[i]
                r[i] = (xr * br - xi * bi, xr * bi + xi * br)
        for i in range(db):
            cr, ci = b[i]
            xr, xi = r[i + k]
            r[i + k] = (xr - (tr * cr - ti * ci), xi - (tr * ci + ti * cr))
        r[db + k] = (0, 0)
    del r[db:]
    while r and r[-1] == (0, 0):
        r.pop()
    return r


_MOD_P = 998244353
_MOD_I = pow(3, (_MOD_P - 1) // 4, _MOD_P)  # 3 generates F_p^*, so this squares to -1


def _coprime_mod_p(a: list[tuple[int, int]], b: list[tuple[int, int]]) -> bool:
    """True when the images of a, b in F_p[z] keep their degrees and have a constant gcd.

    A True answer proves a and b coprime over Q(i) (see the module docstring);
    False proves nothing.
    """
    p, s = _MOD_P, _MOD_I
    f = [(x + y * s) % p for x, y in a]
    g = [(x + y * s) % p for x, y in b]
    if not f[-1] or not g[-1]:
        return False
    while len(g) > 1:
        dg = len(g) - 1
        inv = pow(g[-1], -1, p)
        low = g[:dg]
        for k in range(len(f) - 1 - dg, -1, -1):
            c = f[dg + k] * inv % p
            if c:
                f[k:dg + k] = [(x - c * y) % p for x, y in zip(f[k:dg + k], low)]
        del f[dg:]
        while f and not f[-1]:
            f.pop()
        if not f:
            return False
        f, g = g, f
    return True


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Primitive gcd via a primitive pseudo-remainder sequence (unit-ambiguous).

    A pair the modular certificate proves coprime returns the unit 1 without
    running the sequence.
    """
    f._check_var(g)
    a = _pairs_primitive(_pairs_from_poly(f)) if not f.is_zero() else []
    b = _pairs_primitive(_pairs_from_poly(g)) if not g.is_zero() else []
    if not a:
        a, b = b, a
    if len(a) < len(b):
        a, b = b, a
    if b and _coprime_mod_p(a, b):
        return Polynomial.one(f.var)
    while b:
        a, b = b, _pairs_primitive(_pairs_pseudo_rem(a, b))
    return Polynomial([_from_pair(x, y) for x, y in a], f.var)


def _poly_divmod(a: Polynomial, b: Polynomial) -> tuple[Polynomial, Polynomial]:
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    a._check_var(b)
    if a.degree < b.degree:
        return Polynomial.zero(a.var), a
    q = [_ZERO] * (a.degree - b.degree + 1)
    r = list(a.coeffs)
    lcb = b.coeffs[-1]
    # a unit lead divides as a product with its inverse, so integer parts stay int
    inv = _UNIT_INVERSES.get((lcb.re, lcb.im))
    for k in range(a.degree - b.degree, -1, -1):
        c = r[b.degree + k] * inv if inv is not None else r[b.degree + k] / lcb
        q[k] = c
        if not c.is_zero():
            for i, bc in enumerate(b.coeffs):
                r[i + k] = r[i + k] - c * bc
    return Polynomial(q, a.var), Polynomial(r, a.var)


def poly_exact_div(a: Polynomial, b: Polynomial) -> Polynomial:
    q, r = _poly_divmod(a, b)
    if not r.is_zero():
        raise ArithmeticError("polynomial division was not exact")
    return q


def _sector_unit(lead: GaussianRational) -> GaussianRational:
    """Unit u with u*lead in the half-open sector {re > 0, im >= 0}."""
    for u in _UNITS:
        c = u * lead
        if c.re > 0 and c.im >= 0:
            return u
    raise ValueError("zero leading coefficient")  # unreachable for lead != 0


class RationalFunction:
    """Canonical quotient of two polynomials; equality is structural."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial, *, _reduced: bool = False):
        num._check_var(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator rational function")
        if num.is_zero():
            self.num = Polynomial.zero(num.var)
            self.den = Polynomial.one(num.var)
            return
        if not _reduced:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
        # joint scaling: Gaussian-integer coefficients, content 1, sector-normal lead
        lam = _denominator_lcm([num, den])
        npairs = _int_pairs(num, lam)
        dpairs = _int_pairs(den, lam)
        g = _content(npairs + dpairs)
        npairs = _divide_content(npairs, g)
        dpairs = _divide_content(dpairs, g)
        u = _sector_unit(GaussianRational(*dpairs[-1]))
        if not u.is_one():
            ur, ui = u.re, u.im
            rot = lambda a, b: (a * ur - b * ui, a * ui + b * ur)  # noqa: E731
            npairs = [rot(a, b) for a, b in npairs]
            dpairs = [rot(a, b) for a, b in dpairs]
        self.num = Polynomial([_from_pair(a, b) for a, b in npairs], num.var)
        self.den = Polynomial([_from_pair(a, b) for a, b in dpairs], num.var)

    # -- constructors ----------------------------------------------------
    @classmethod
    def constant(cls, c, var: str = "z") -> "RationalFunction":
        return cls(Polynomial([c], var), Polynomial.one(var), _reduced=True)

    @classmethod
    def zero(cls, var: str = "z") -> "RationalFunction":
        return cls(Polynomial.zero(var), Polynomial.one(var), _reduced=True)

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_real(self) -> bool:
        return self.num.is_real() and self.den.is_real()

    def _coerce(self, x) -> "RationalFunction | None":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return RationalFunction.constant(x, self.var)
        return None

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self.num, self.den, o.num, o.den
        g = poly_gcd(q1, q2)
        if g.degree == 0:
            return RationalFunction(p1 * q2 + p2 * q1, q1 * q2, _reduced=True)
        u = poly_exact_div(q1, g)
        v = poly_exact_div(q2, g)
        t = p1 * v + p2 * u
        h = poly_gcd(t, g)
        if h.degree > 0:
            t = poly_exact_div(t, h)
            g = poly_exact_div(g, h)
        return RationalFunction(t, g * u * v, _reduced=True)

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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, p2, q2 = self.num, self.den, o.num, o.den
        if p1.is_zero() or p2.is_zero():
            return RationalFunction.zero(self.var)
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
        if k == 0:
            return RationalFunction.constant(1, self.var)
        return RationalFunction(self.num**k, self.den**k, _reduced=True)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (
            self.var == other.var
            and self.num.coeffs == other.num.coeffs
            and self.den.coeffs == other.den.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.num.coeffs, self.den.coeffs))

    def __str__(self):
        return rf_to_text(self)

    def __repr__(self):
        return f"<RationalFunction {rf_to_text(self)}>"


def z_ddz(f: RationalFunction) -> RationalFunction:
    """The derivation z * d/dz applied once, quotient rule then canonicalized.

    With f = p/q and g = gcd(q, q'), the quotient rule is taken over g first:
    z (p' (q/g) - p (q'/g)) / (q (q/g)) instead of z (p' q - p q') / q**2.
    Both are the same function, and the canonical form is unique.
    """
    p, q = f.num, f.den
    dq = q.derivative()
    g = poly_gcd(q, dq)
    if g.degree > 0:
        u, v = poly_exact_div(q, g), poly_exact_div(dq, g)
    else:
        u, v = q, dq
    num = Polynomial.variable(f.var) * (p.derivative() * u - p * v)
    return RationalFunction(num, q * u)


_SUBSTITUTIONS = ("negate_z", "square_z", "invert_z", "i_times_z")


def substitute(f: RationalFunction, kind: str) -> RationalFunction:
    """Exact argument transform: z -> -z, z^2, 1/z, or i*z.

    All four transforms preserve coprimality of the canonical pair, so only
    re-normalization is needed.  ``invert_z`` clears negative powers by
    multiplying numerator and denominator by z**max(deg num, deg den).
    """
    if kind == "negate_z":
        return RationalFunction(f.num.negate_arg(), f.den.negate_arg(), _reduced=True)
    if kind == "square_z":
        return RationalFunction(f.num.square_arg(), f.den.square_arg(), _reduced=True)
    if kind == "i_times_z":
        return RationalFunction(f.num.scale_arg(I), f.den.scale_arg(I), _reduced=True)
    if kind == "invert_z":
        if f.num.is_zero():
            return f
        d = max(f.num.degree, f.den.degree)
        var = f.var

        def rev(p: Polynomial) -> Polynomial:
            out = [_ZERO] * (d + 1)
            for k, c in enumerate(p.coeffs):
                out[d - k] = c
            return Polynomial(out, var)

        return RationalFunction(rev(f.num), rev(f.den), _reduced=True)
    raise ValueError(f"unknown substitution {kind!r}; expected one of {_SUBSTITUTIONS}")


def rf_eval(f: RationalFunction, z) -> complex:
    """Evaluate at a complex double by exact-coefficient Horner, rounding once.

    The double z is read as the Gaussian rational it represents exactly, and
    the exact value there is rounded to the nearest double in each part; a
    part beyond double range rounds to +-inf, as float arithmetic does.
    Raises PoleError only when the exact denominator is zero at that point:
    a small nonzero denominator is not a pole.
    """
    zc = complex(z)
    zg = GaussianRational(Fraction(zc.real), Fraction(zc.imag))
    den_val = f.den.horner(zg)
    if den_val.is_zero():
        raise PoleError(f"evaluation at a pole: den({zc}) = 0")
    return (f.num.horner(zg) / den_val).to_complex()


def rf_eval_exact(f: RationalFunction, z) -> GaussianRational:
    """Evaluate exactly at a Gaussian rational (or int/Fraction) point."""
    zg = z if isinstance(z, GaussianRational) else GaussianRational(z)
    den_val = f.den.horner(zg)
    if den_val.is_zero():
        raise PoleError(f"exact evaluation at a pole: z = {zg}")
    return f.num.horner(zg) / den_val


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


def poly_text(p: Polynomial, *, spaced: bool = True, latex: bool = False) -> str:
    """Render ascending-power text such as ``z + 6z^3 + z^5`` (ASCII minus)."""
    if p.is_zero():
        return "0"
    parts: list[str] = []
    for k, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        neg, mag = _split_sign(c)
        body = _magnitude_text(mag, k, latex) + _power_text(p.var, k, latex)
        if not body:
            body = "1"
        if not parts:
            parts.append(("-" if neg else "") + body)
        elif spaced:
            parts.append((" - " if neg else " + ") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


def powered_parts(f: RationalFunction) -> tuple[Polynomial, Polynomial, int]:
    """Display form (num, base, e) with f = num / base**e and a positive base.

    The stored canonical pair normalizes the denominator's leading
    coefficient; for display the base is flipped to have a positive constant
    term (the usual ``1 - z^2`` convention), with the sign folded into the
    numerator.
    """
    num, den = f.num, f.den
    if den.degree <= 0:
        return num, den, 1
    base, e = den, 1
    g = poly_gcd(den, den.derivative())
    if g.degree > 0:
        rad = _to_int_primitive(poly_exact_div(den, g))
        if rad.degree > 0 and den.degree % rad.degree == 0:
            cand_e = den.degree // rad.degree
            if cand_e > 1:
                base, e = rad, cand_e
    c0 = base.constant() if not base.constant().is_zero() else base.lead()
    if (c0.is_real() and c0.re < 0) or (not c0.is_real() and not c0.re and c0.im < 0):
        base = -base
    pw = base**e
    s = pw.lead() / den.lead()
    if den.scale(s) != pw:
        # not a clean perfect power after all; fall back to the plain pair
        base, e, pw = den, 1, den
        c0 = base.constant() if not base.constant().is_zero() else base.lead()
        if (c0.is_real() and c0.re < 0):
            base = -base
            pw = base
        s = pw.lead() / den.lead()
    return num.scale(s), base, e


def _den_text(base: Polynomial, e: int, latex: bool) -> str:
    body = poly_text(base, spaced=False, latex=latex)
    bare_monomial = (
        len([c for c in base.coeffs if not c.is_zero()]) == 1
        and base.lead().is_one()
        and base.degree == 1
    )
    if e == 1:
        if bare_monomial or (base.degree == 0):
            return body
        return f"({body})"
    exp = f"^{{{e}}}" if latex else f"^{e}"
    if bare_monomial:
        return f"{base.var}{exp}"
    return f"({body}){exp}"


def rf_to_text(f: RationalFunction) -> str:
    """Canonical ASCII rendering, e.g. ``(z + 6z^3 + z^5)/(1-z^2)^3``."""
    if f.num.is_zero():
        return "0"
    num, base, e = powered_parts(f)
    num_str = poly_text(num, spaced=True)
    if base.degree == 0 and base.constant().is_one() and e == 1:
        return num_str
    if len([c for c in num.coeffs if not c.is_zero()]) > 1:
        num_str = f"({num_str})"
    return f"{num_str}/{_den_text(base, e, latex=False)}"


def rf_to_latex(f: RationalFunction) -> str:
    if f.num.is_zero():
        return "0"
    num, base, e = powered_parts(f)
    num_str = poly_text(num, spaced=True, latex=True)
    if base.degree == 0 and base.constant().is_one() and e == 1:
        return num_str
    return rf"\frac{{{num_str}}}{{{_den_text(base, e, latex=True)}}}"


_COEF_RE = re.compile(
    r"^(?P<re>[+-]?\d+(?:/\d+)?)?"
    r"(?:(?P<im>[+-](?:\d+(?:/\d+)?)?|(?:\d+(?:/\d+)?)?)i)?$"
)


def _coef_from_str(s: str) -> GaussianRational:
    s = s.strip().replace(" ", "")
    if not s:
        raise ValueError("empty coefficient")
    if not s.endswith("i"):
        return GaussianRational(Fraction(s))
    m = _COEF_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse coefficient {s!r}")
    re_part = m.group("re")
    im_part = m.group("im")
    if im_part in ("", "+", None):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    # a bare "3i" parses with re filled and im empty; disambiguate
    if re_part is not None and im_part in ("", None):
        return GaussianRational(0, Fraction(re_part))
    return GaussianRational(Fraction(re_part or 0), im)


def rf_to_json(f: RationalFunction) -> dict:
    """JSON form {"num": [...], "den": [...]} with coefficients as decimal strings."""
    return {
        "num": [str(c) for c in f.num.coeffs],
        "den": [str(c) for c in f.den.coeffs],
    }


def rf_from_json(obj: dict, var: str = "z") -> RationalFunction:
    num = Polynomial([_coef_from_str(s) for s in obj["num"]], var)
    den = Polynomial([_coef_from_str(s) for s in obj["den"]], var)
    return RationalFunction(num, den)
