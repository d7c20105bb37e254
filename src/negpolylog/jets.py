"""Truncated Taylor jets: the library's independent differentiation oracle.

A jet stores ``c[k] = f^(k)(x0) / k!`` up to a fixed order.  Sums, products,
quotients and square roots propagate coefficients by the standard
recurrences; truncation is exact for the coefficients that are kept, so a
jet of order N carries the first N derivatives with only rounding error.

Elementary functions are lifted directly (sin and cos have closed
coefficient formulas, tan, cot, sec and csc come from jet division, tanh,
sech, coth and csch from their first-order systems).  The twelve inverse
functions share one builder: each derivative is sign/Q or sign/sqrt(Q) for a
Laurent polynomial Q, whose jet is inverted and integrated once, taking the
constant term from the math library.  The reciprocal-argument companions
(arccsc, arcsec, arccsch, arcsech) take Q = x^4 -+ x^2 or x^2 - x^4, since
|x| sqrt(x^2 -+ 1) = sqrt(x^4 -+ x^2).  :func:`check_point` guards every
lift and, in :func:`route`, the csc, sec, csch and sech routes with one
table, ``_DOMAINS`` (poles, their period, the real domain): SingularityError
within the guard radius, DomainError outside it or at a non-finite point.

Jets are double precision on purpose: this oracle's job is numeric
cross-checking at tolerances of 1e-7..1e-9, while all exact checking lives
in the rational-function layer.  The public constructor converts what it is
given; every jet the arithmetic and the lifts build is made once, by
``_jet``, from a tuple that already holds floats.
"""

from __future__ import annotations

import functools
import math

from .combinatorics import factorial
from .errors import DomainError, OrderExhaustedError, SingularityError

__all__ = [
    "Jet",
    "FUNCTION_IDS",
    "SINGULARITY_GUARD",
    "require_clear",
    "check_point",
    "jet_lift",
    "nth_derivative",
    "apply_operator_power",
    "laurent_jet",
]

SINGULARITY_GUARD = 1e-6

class Jet:
    """Taylor coefficients of a function at ``x0`` through a fixed order."""

    __slots__ = ("x0", "coeffs")

    def __init__(self, x0: float, coeffs):
        self.x0 = float(x0)
        self.coeffs = tuple(float(c) for c in coeffs)
        if not self.coeffs:
            raise ValueError("a jet needs at least the order-0 coefficient")

    @staticmethod
    def constant(value: float, x0: float, order: int) -> "Jet":
        return _jet(float(x0), (float(value),) + (0.0,) * order)

    @staticmethod
    def identity(x0: float, order: int) -> "Jet":
        x0 = float(x0)
        return _jet(x0, (x0,) if order == 0 else (x0, 1.0) + (0.0,) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> float:
        return self.coeffs[0]

    def _pair(self, other: "Jet") -> tuple[tuple, tuple]:
        if self.x0 != other.x0:
            raise ValueError("jets expanded at different points")
        n = min(len(self.coeffs), len(other.coeffs))
        return self.coeffs[:n], other.coeffs[:n]

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            return _jet(self.x0, tuple([x + y for x, y in zip(a, b)]))
        c = self.coeffs
        return _jet(self.x0, (c[0] + float(other), *c[1:]))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _jet(self.x0, tuple([-c for c in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            n = len(a)
            out = [0.0] * n
            for i, ai in enumerate(a):
                if ai == 0.0:
                    continue
                for j in range(n - i):
                    out[i + j] += ai * b[j]
            return _jet(self.x0, tuple(out))
        f = float(other)
        return _jet(self.x0, tuple([c * f for c in self.coeffs]))

    __rmul__ = __mul__

    def reciprocal(self) -> "Jet":
        return Jet.constant(1.0, self.x0, self.order) / self

    def __truediv__(self, other):
        if isinstance(other, Jet):
            a, b = self._pair(other)
            if b[0] == 0.0:
                raise ZeroDivisionError("jet division by zero value")
            n = len(a)
            out = [0.0] * n
            for k in range(n):
                s = a[k]
                for j in range(k):
                    s -= out[j] * b[k - j]
                out[k] = s / b[0]
            return _jet(self.x0, tuple(out))
        return self * (1.0 / float(other))

    def __pow__(self, k: int):
        if k < 0:
            return self.reciprocal() ** (-k)
        out = self if k else Jet.constant(1.0, self.x0, self.order)
        for _ in range(k - 1):
            out = out * self
        return out

    def sqrt(self) -> "Jet":
        c = self.coeffs
        if c[0] <= 0.0:
            raise DomainError("jet square root of a non-positive value")
        n = len(c)
        out = [0.0] * n
        out[0] = math.sqrt(c[0])
        for k in range(1, n):
            s = c[k]
            for j in range(1, k):
                s -= out[j] * out[k - j]
            out[k] = s / (2.0 * out[0])
        return _jet(self.x0, tuple(out))

    def differentiate(self) -> "Jet":
        """Jet of the derivative; consumes one order."""
        if self.order == 0:
            raise OrderExhaustedError("jet order exhausted: no derivative information left")
        return _jet(self.x0, tuple([(k + 1) * c for k, c in enumerate(self.coeffs[1:])]))

    def integrate(self, constant: float) -> "Jet":
        return _jet(self.x0, (float(constant), *[c / (k + 1) for k, c in enumerate(self.coeffs)]))

    def derivative_value(self, n: int) -> float:
        """n-th derivative at x0, i.e. n! * c[n]."""
        if n > self.order:
            raise OrderExhaustedError(f"jet of order {self.order} cannot give derivative {n}")
        return factorial(n) * self.coeffs[n]

    def __repr__(self):
        return f"Jet(x0={self.x0}, coeffs={self.coeffs})"


def _jet(x0: float, coeffs: tuple) -> Jet:
    """A jet from a float x0 and a non-empty tuple of floats, stored as they are."""
    jet = object.__new__(Jet)
    jet.x0, jet.coeffs = x0, coeffs
    return jet


def require_clear(what: str, x: float, *poles: float, period: float | None = None) -> None:
    """Raise DomainError for a non-finite x, SingularityError within SINGULARITY_GUARD of a pole.

    With ``period`` the poles repeat: each one stands for pole + k * period.
    """
    if not math.isfinite(x):
        raise DomainError(f"{what} needs a finite x, got {x}")
    for pole in poles:
        d = abs(x - pole) if period is None else abs(math.remainder(x - pole, period))
        if d < SINGULARITY_GUARD:
            raise SingularityError(f"{what} is singular within {SINGULARITY_GUARD} of x = {x}")


_PI = math.pi

# fn -> (poles, their period or None, outside-the-domain test or None, the domain as text)
_DOMAINS = {
    **dict.fromkeys(("tan", "sec"), ((_PI / 2,), _PI, None, "")),
    **dict.fromkeys(("cot", "csc"), ((0.0,), _PI, None, "")),
    **dict.fromkeys(("coth", "csch", "arccsch"), ((0.0,), None, None, "")),
    **dict.fromkeys(("arctanh", "arcsin", "arccos"),
                    ((1.0, -1.0), None, lambda x: abs(x) >= 1, "|x0| < 1")),
    **dict.fromkeys(("arccoth", "arccsc", "arcsec"),
                    ((1.0, -1.0), None, lambda x: abs(x) <= 1, "|x0| > 1")),
    "arccosh": ((1.0,), None, lambda x: x < 1, "x0 >= 1"),
    "arcsech": ((0.0, 1.0), None, lambda x: not 0 < x <= 1, "0 < x0 <= 1"),
}


def check_point(fn: str, x0: float):
    """Raise SingularityError within the guard radius, DomainError off the domain or at inf/nan."""
    poles, period, outside, domain = _DOMAINS.get(fn, ((), None, None, ""))
    require_clear(fn, x0, *poles, period=period)
    if outside is not None and outside(x0):
        raise DomainError(f"{fn} needs {domain}, got {x0}")


def route(fn: str, label: str):
    """Declare body(n, x) a route for (d/dx)^n fn: order and point guarded; keeps fn, label."""
    def declare(body):
        @functools.wraps(body)
        def evaluate(n: int, x: float) -> float:
            if n < 0:
                raise ValueError("n must be >= 0")
            check_point(fn, x)
            return body(n, x)
        evaluate.fn, evaluate.label = fn, label
        return evaluate
    return declare


def _cyclic(vals, x0: float, n: int) -> Jet:
    """Jet whose k-th derivative is vals[k % len(vals)]: sin and cos."""
    return _jet(x0, tuple([vals[k % len(vals)] / factorial(k) for k in range(n + 1)]))


def _build_sin(x0, n):
    s, c = math.sin(x0), math.cos(x0)
    return _cyclic((s, c, -s, -c), x0, n)


def _build_cos(x0, n):
    s, c = math.sin(x0), math.cos(x0)
    return _cyclic((c, -s, -c, s), x0, n)


def _hyperbolic_pair(x0: float, n: int, sigma: float) -> tuple[Jet, Jet]:
    """Jets of (tanh, sech) for sigma = 1, (coth, csch) for sigma = -1: f' = sigma g^2, g' = -g f.

    Cauchy products give (k+1) f[k+1] = sigma sum_j g[j] g[k-j] and
    (k+1) g[k+1] = -sum_j g[j] f[k-j]: no quotient of sinh and cosh jets cancels as |x0| grows.
    With s = sign(x0), t = exp(-|x0|) and 1 - t^2 = -expm1(-2|x0|), no seed overflows:
    tanh = s(1 - t^2)/(1 + t^2), sech = 2t/(1 + t^2), coth = 1/tanh, csch = 2st/(1 - t^2).
    """
    s, t = math.copysign(1.0, x0), math.exp(-abs(x0))
    p, q = -math.expm1(-2.0 * abs(x0)), 1.0 + t * t
    f, g = ([s * p / q], [2.0 * t / q]) if sigma > 0 else ([s * q / p], [2.0 * s * t / p])
    for k in range(n):
        gg = gf = 0.0
        for j in range(k + 1):
            gg += g[j] * g[k - j]
            gf += g[j] * f[k - j]
        f.append(sigma * gg / (k + 1))
        g.append(-gf / (k + 1))
    return _jet(x0, tuple(f)), _jet(x0, tuple(g))


def laurent_jet(terms: dict[int, float]):
    """Coefficient-jet builder for sums of integer powers c_p * x**p (p may be < 0)."""

    def build(x0: float, order: int) -> Jet:
        x = Jet.identity(x0, order)
        recip = None
        acc = Jet.constant(0.0, x0, order)
        for p, c in sorted(terms.items()):
            if p == 0:
                acc = acc + Jet.constant(c, x0, order)
            else:
                if p < 0 and recip is None:
                    recip = x.reciprocal()
                term = x**p if p > 0 else recip ** (-p)
                acc = acc + (term if c == 1 else term * c)  # x * 1.0 is x for every double
        return acc

    return build


def _inverse(terms: dict[int, float], root: bool, sign: int, value):
    """Builder for F with F' = sign/Q or sign/sqrt(Q), Q = sum c_p x^p: Q's jet through order
    n - 1, one square root or none, one division, and the integral from F(x0) = value(x0).

    A square-root row whose Q's jet overflows raises DomainError: 1/sqrt(inf) would read a
    true value near 1/|x|^2 or 1/|x| as 0.  A rational row keeps its 0, as 1/Q then lies below
    the normal range."""
    q = laurent_jet(terms)

    def build(x0, n):
        if n == 0:
            return _jet(x0, (value(x0),))
        d = q(x0, n - 1)
        if root and not all(map(math.isfinite, d.coeffs)):
            raise DomainError(f"the radicand's jet at {x0} is beyond double range")
        d = (d.sqrt() if root else d).reciprocal()
        return (d if sign > 0 else -d).integrate(value(x0))

    return build


_BUILDERS = {
    "sin": _build_sin,
    "cos": _build_cos,
    "tan": lambda x0, n: _build_sin(x0, n) / _build_cos(x0, n),
    "cot": lambda x0, n: _build_cos(x0, n) / _build_sin(x0, n),
    "sec": lambda x0, n: _build_cos(x0, n).reciprocal(),
    "csc": lambda x0, n: _build_sin(x0, n).reciprocal(),
    "tanh": lambda x0, n: _hyperbolic_pair(x0, n, 1.0)[0],
    "sech": lambda x0, n: _hyperbolic_pair(x0, n, 1.0)[1],
    "coth": lambda x0, n: _hyperbolic_pair(x0, n, -1.0)[0],
    "csch": lambda x0, n: _hyperbolic_pair(x0, n, -1.0)[1],
    # Q's terms, root, sign, F; the last four read |x| sqrt(x^2 -+ 1) and |x| sqrt(1 - x^2), x != 0,
    # as sqrt(x^4 -+ x^2) and sqrt(x^2 - x^4)
    "arctan": _inverse({0: 1.0, 2: 1.0}, False, 1, math.atan),
    "arccot": _inverse({0: 1.0, 2: 1.0}, False, -1, lambda x: _PI / 2 - math.atan(x)),
    "arctanh": _inverse({0: 1.0, 2: -1.0}, False, 1, math.atanh),
    "arccoth": _inverse({0: 1.0, 2: -1.0}, False, 1, lambda x: math.atanh(1.0 / x)),
    "arcsin": _inverse({0: 1.0, 2: -1.0}, True, 1, math.asin),
    "arccos": _inverse({0: 1.0, 2: -1.0}, True, -1, math.acos),
    "arcsinh": _inverse({0: 1.0, 2: 1.0}, True, 1, math.asinh),
    "arccosh": _inverse({0: -1.0, 2: 1.0}, True, 1, math.acosh),
    "arccsc": _inverse({2: -1.0, 4: 1.0}, True, -1, lambda x: math.asin(1.0 / x)),
    "arcsec": _inverse({2: -1.0, 4: 1.0}, True, 1, lambda x: math.acos(1.0 / x)),
    "arccsch": _inverse({2: 1.0, 4: 1.0}, True, -1, lambda x: math.asinh(1.0 / x)),
    "arcsech": _inverse({2: 1.0, 4: -1.0}, True, -1, lambda x: math.acosh(1.0 / x)),
}

FUNCTION_IDS = frozenset(_BUILDERS)


def jet_lift(fn: str, x0: float, order: int) -> Jet:
    """Taylor coefficients of a supported function at x0 through ``order``."""
    if fn not in FUNCTION_IDS:
        raise ValueError(f"unknown function id {fn!r}")
    if order < 0:
        raise ValueError("order must be >= 0")
    check_point(fn, float(x0))
    return _BUILDERS[fn](float(x0), order)


def nth_derivative(fn: str, x0: float, n: int) -> float:
    """n-th derivative of a supported function at x0, via a jet of order n; nan is a DomainError."""
    val = jet_lift(fn, x0, n).derivative_value(n)
    if math.isnan(val):  # inf - inf in a lift
        raise DomainError(f"derivative {n} of {fn} at {x0} is beyond double range")
    return val


def apply_operator_power(a, fn: str, n: int, x0: float) -> float:
    """Value at x0 of (a(x) d/dx)**n applied to fn.

    ``a`` maps (x0, order) to the coefficient function's jet.  Each round
    differentiates the running jet (consuming one order) and multiplies by
    the coefficient jet, so both are lifted at order n: the n rounds use up
    every order above 0.  A nan value is a DomainError.
    """
    if n < 0:
        raise ValueError("operator power must be >= 0")
    f = jet_lift(fn, x0, n)
    a_jet = a(float(x0), n) if n else None
    for _ in range(n):
        f = a_jet * f.differentiate()
    if math.isnan(f.value):
        raise DomainError(f"operator power {n} on {fn} at {x0} is beyond double range")
    return f.value
