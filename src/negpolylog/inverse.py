"""Operator identities for the twelve inverse trigonometric/hyperbolic functions.

Each identity states that the Legendre chi (or inverse tangent integral)
closed form, evaluated at a transformed argument g(x), equals an (n+1)-fold
application of a first-order operator a(x) d/dx to an inverse function:

    chi side:  chi(g(x)) = sign * (a(x) d/dx)^(n+1) F(x)
    Ti  side:  Ti(g(x))  = sign * (a(x) d/dx)^(n+1) F(x)

with a = g/g' in every case.  The registry pins the twelve records with
fixed sample points; verification compares the exact rational closed form
on the left against the Taylor-jet operator evaluation on the right.

Sample-point policy: points sit strictly inside each domain, at least 0.05
from every endpoint or singularity, and on the chi side they additionally
keep |g(x)| <= ~0.91 so the (1 - z^2)^(n+1) denominators stay comfortably
conditioned; each record carries its rationale.  On the Ti side |g(x)| = 1
is harmless (the 1 + z^2 denominators have no real poles), so arctan
includes x = 1 exactly.

The two arccosh records cover the same curve from both sides: the x >= 1
branch uses arccosh itself, while the 0 < x <= 1 branch is real-valued only
for the reciprocal-argument companion (arcsech x = arccosh(1/x), whose
derivative matches the stated operator), so that record targets arcsech.
At reciprocal point pairs the two transformed arguments coincide, which the
tests exploit as a branch-consistency check.

For a generic operand f(x) with f(x) != -1 there is also the substitution
z -> f/(1+f), giving

    Li(f/(1+f)) = ((f/f')(1+f) d/dx)^n f = sum_k k! {n+1 brace k+1} f^(k+1);

``verify_generic_operand`` checks the closed-form equality for f = sin, cos
(and the operator route for n <= 3, where tan(1+sin) or -cot(1+cos) is
jet-liftable at the chosen points).
"""

from __future__ import annotations

import math
from collections import namedtuple

from .algebra import rf_eval
from .combinatorics import factorial, stirling_power_sum
from .errors import DomainError
from .jets import SINGULARITY_GUARD, Jet, apply_operator_power, jet_lift, laurent_jet, require_clear
from .polylog import chi_neg, li_neg, ti_neg
from .reports import VerificationReport, check

__all__ = ["InverseIdentity", "registry", "verify_identity", "verify_generic_operand"]


class InverseIdentity(namedtuple("InverseIdentity", [
    "name",
    "side",  # "chi" | "ti"
    "target",  # jet FunctionId receiving the operator
    "arg_tag",  # human-readable g(x)
    "operator_tag",  # human-readable a(x) d/dx
    "outer_sign",  # +1 or -1
    "arg",  # g: float -> float
    "coefficient",  # a: (x, order) -> Jet
    "domain",
    "sample_points",  # tuple of floats
    "rationale",
])):
    __slots__ = ()

    def describe(self) -> str:
        side = "chi" if self.side == "chi" else "Ti"
        sign = "-" if self.outer_sign < 0 else ""
        return f"{side}[-n]({self.arg_tag}) = {sign}({self.operator_tag})^(n+1) {self.target}(x)"


def _sgn_sqrt1p(x: float) -> float:
    # x * sqrt(1 + x^-2), which equals sign(x) * sqrt(1 + x^2)
    return x * math.sqrt(1.0 + x**-2)


_REGISTRY = (
    InverseIdentity(
        "arctanh", "chi", "arctanh", "x", "x d/dx", 1,
        lambda x: x, laurent_jet({1: 1.0}),
        "|x| < 1",
        (-0.8, -0.3, 0.2, 0.5, 0.75),
        "inside the unit interval, >= 0.2 from the chi poles at x = +/-1",
    ),
    InverseIdentity(
        "arccoth", "chi", "arccoth", "1/x", "-x d/dx", 1,
        lambda x: 1.0 / x, laurent_jet({1: -1.0}),
        "|x| > 1",
        (-3.0, -1.6, 1.2, 2.0, 5.0),
        "both signs, >= 0.2 from the branch points at +/-1; |1/x| <= 0.83",
    ),
    InverseIdentity(
        "arcsinh", "chi", "arcsinh", "x/sqrt(1+x^2)", "(x + x^3) d/dx", 1,
        lambda x: x / math.sqrt(1.0 + x * x), laurent_jet({1: 1.0, 3: 1.0}),
        "all real x",
        (-2.0, -0.7, 0.4, 1.0, 2.0),
        "|x| <= 2 keeps |g| <= 0.9 so the chi denominator stays conditioned",
    ),
    InverseIdentity(
        "arccsch", "chi", "arccsch", "1/(x sqrt(1+x^-2))", "-(x + 1/x) d/dx", 1,
        lambda x: 1.0 / _sgn_sqrt1p(x), laurent_jet({1: -1.0, -1: -1.0}),
        "x != 0",
        (-2.5, -0.5, 0.5, 1.0, 2.0),
        "includes x < 0 to exercise x*sqrt(1+x^-2) = -sqrt(1+x^2); |x| >= 0.5 keeps |g| <= 0.9",
    ),
    InverseIdentity(
        "arccosh_upper", "chi", "arccosh", "sqrt(x^2-1)/x", "x(x^2 - 1) d/dx", 1,
        lambda x: math.sqrt(x * x - 1.0) / x, laurent_jet({3: 1.0, 1: -1.0}),
        "x >= 1",
        (1.15, 1.3, 1.6, 2.0, 2.4),
        "slightly above 1 through 2.4; x <= 2.4 keeps |g| <= 0.91",
    ),
    InverseIdentity(
        "arccosh_lower", "chi", "arcsech", "sqrt(1-x^2)", "(x - 1/x) d/dx", 1,
        lambda x: math.sqrt(1.0 - x * x), laurent_jet({1: 1.0, -1: -1.0}),
        "0 < x <= 1 (real branch: arcsech x = arccosh(1/x))",
        (1 / 2.4, 0.5, 0.625, 1 / 1.3, 1 / 1.15),
        "reciprocal images of the upper-branch points, for the branch-consistency check",
    ),
    InverseIdentity(
        "arctan", "ti", "arctan", "x", "x d/dx", 1,
        lambda x: x, laurent_jet({1: 1.0}),
        "all real x",
        (-2.0, -0.8, 0.5, 1.0, 3.0),
        "includes x = 1 exactly: the Ti denominator 1 + z^2 has no real pole",
    ),
    InverseIdentity(
        "arccot", "ti", "arccot", "x", "x d/dx", -1,
        lambda x: x, laurent_jet({1: 1.0}),
        "all real x",
        (-1.5, -0.5, 0.4, 1.0, 2.5),
        "shares points with arctan at x = 1 for the relative-sign check",
    ),
    InverseIdentity(
        "arcsin", "ti", "arcsin", "x/sqrt(1-x^2)", "(x - x^3) d/dx", 1,
        lambda x: x / math.sqrt(1.0 - x * x), laurent_jet({1: 1.0, 3: -1.0}),
        "|x| <= 1",
        (-0.9, -0.4, 0.2, 0.6, 0.9),
        ">= 0.1 from the branch points at +/-1; large |g| is fine on the Ti side",
    ),
    InverseIdentity(
        "arccos", "ti", "arccos", "sqrt(1-x^2)/x", "(x^3 - x) d/dx", 1,
        lambda x: math.sqrt(1.0 - x * x) / x, laurent_jet({3: 1.0, 1: -1.0}),
        "|x| <= 1, x != 0",
        (-0.85, -0.45, 0.3, 0.55, 0.9),
        "avoids x = 0 where g blows up and +/-1 where arccos' derivative is singular",
    ),
    InverseIdentity(
        "arccsc", "ti", "arccsc", "1/(x sqrt(1-x^-2))", "(1/x - x) d/dx", 1,
        lambda x: 1.0 / (x * math.sqrt(1.0 - x**-2)), laurent_jet({-1: 1.0, 1: -1.0}),
        "|x| >= 1",
        (-3.0, -1.4, 1.2, 2.0, 4.0),
        "both signs, >= 0.2 from the branch points at +/-1",
    ),
    InverseIdentity(
        "arcsec", "ti", "arcsec", "x sqrt(1-x^-2)", "(x - 1/x) d/dx", 1,
        lambda x: x * math.sqrt(1.0 - x**-2), laurent_jet({1: 1.0, -1: -1.0}),
        "|x| >= 1",
        (-2.5, -1.3, 1.2, 1.8, 3.5),
        "both signs, >= 0.2 from the branch points at +/-1",
    ),
)


def registry() -> list[InverseIdentity]:
    """The twelve identity records with their fixed sample points."""
    return list(_REGISTRY)


def verify_identity(ident: InverseIdentity, n: int, tol: float = 1e-7) -> VerificationReport:
    """Compare the exact closed form at g(x) against the jet operator route."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lhs_rf = chi_neg(n) if ident.side == "chi" else ti_neg(n)
    points = [check(x, lambda: (rf_eval(lhs_rf, ident.arg(x)).real,
                                ident.outer_sign * apply_operator_power(
                                    ident.coefficient, ident.target, n + 1, x)), tol)
              for x in ident.sample_points]
    return VerificationReport(ident.name, n, tol, points)


def _sin_coefficient(x0: float, order: int) -> Jet:
    return jet_lift("tan", x0, order) * (jet_lift("sin", x0, order) + 1.0)


def _cos_coefficient(x0: float, order: int) -> Jet:
    return -(jet_lift("cot", x0, order) * (jet_lift("cos", x0, order) + 1.0))


def verify_generic_operand(f: str, n: int, x: float, tol: float = 1e-9) -> VerificationReport:
    """Check Li(f/(1+f)) = sum_k k! {n+1 brace k+1} f^(k+1) at one point.

    For n <= 3 the operator route ((f/f')(1+f) d/dx)^n f is checked as well.
    Diverges only where f(x) = -1, which is rejected up front.
    """
    if f not in ("sin", "cos"):
        raise ValueError("generic-operand instances cover f in {sin, cos}")
    if n < 0:
        raise ValueError("n must be >= 0")
    require_clear(f"generic-operand {f}", x)
    fx = math.sin(x) if f == "sin" else math.cos(x)
    if abs(1.0 + fx) < SINGULARITY_GUARD:
        raise DomainError(f"substitution diverges where {f}(x) = -1; x = {x}")
    zstar = fx / (1.0 + fx)
    rhs = stirling_power_sum(n, fx, factorial)
    points = [check(x, lambda: (rf_eval(li_neg(n), zstar).real, rhs), tol, "closed-form sum")]
    if n <= 3:
        coefficient = _sin_coefficient if f == "sin" else _cos_coefficient
        points.append(check(x, lambda: (points[0].lhs, apply_operator_power(coefficient, f, n, x)),
                            tol, "operator route"))
    return VerificationReport(f"generic-operand {f}", n, tol, points)
