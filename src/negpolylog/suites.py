"""The verification suites behind ``negpolylog verify``, callable as a library.

Each suite sweeps the orders 0..n_max (or 1..n_max where an identity starts
at n = 1) and returns one :class:`VerificationReport` per identity and order.
The exact suites compare canonical rational functions, in ``core`` the csc
route forms in t = tan(x/2), the sec ones, the operator routes of chi and
Ti and the generic operand Li[-n](u/(1+u)) in u = f(x); the numeric suites
compare one route per function against the Taylor-jet oracle at a relative
tolerance, and every numeric report carries the tolerance it was run at.
``SUITES`` maps each suite to its runner, its largest supported n_max and its
default tolerance; ``all`` runs every suite in table order, each clipped to
its own cap.  The exact suites go to ``MAX_ORDER``, the largest order of a
closed form; the numeric ones to ``MAX_NUMERIC_SWEEP``.
"""

from __future__ import annotations

import math

from . import circular, hyperbolic, inverse, ladder
from .algebra import Polynomial, RationalFunction, evaluate_packed, rf_eval, substitute, z_ddz
from .circular import TRIG_GRID
from .combinatorics import factorial, stirling_power_sum
from .hyperbolic import HYP_GRID
from .jets import nth_derivative
from .polylog import (
    chi_from_li, chi_neg, defining_series_agree, li_neg, li_neg_operator, li_neg_stirling,
    ti_from_chi, ti_neg,
)
from .reports import VerificationReport, check, exact_report

__all__ = ["DERIVATIVE_POLYS", "MAX_NUMERIC_SWEEP", "MAX_ORDER", "SUITES", "SweepRangeError", "run_suite"]

MAX_ORDER = 64
MAX_NUMERIC_SWEEP = 10

DERIVATIVE_POLYS = {"cot": circular.cot_derivative_poly, "tan": circular.tan_derivative_poly,
                    "coth": hyperbolic.coth_derivative_poly, "tanh": hyperbolic.tanh_derivative_poly}


def _core(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    """Exact identities: routes, series, chi/Ti, duplication, polynomials, route forms, generic operand.

    The duplication identity Li[-n](w) + Li[-n](-w) = 2^(n+1) Li[-n](w^2) is
    also the double angle of the cot derivatives, 2^(n+1) cot^(n)(2x) =
    cot^(n)(x) - tan^(n)(x): at w = exp(2ix), cot x = -i - 2i Li[0](w),
    tan x = i + 2i Li[0](-w) and d/dx = 2i w d/dw turn one into the other.

    The inversion chi(1/z) = (-1)^(n+1) chi(z), Ti(1/z) = (-1)^n Ti(z) is the
    palindromy of the type-B Eulerian row (Brenti 1994).

    The operator route of chi and Ti applies z d/dz to z/(1 -+ z^2), their order-0 forms, and
    steps across the orders like h; it is independent of the type-B Eulerian row.

    The generic operand Li[-n](u/(1+u)) = sum_k k! {n+1 brace k+1} u^(k+1) = (u(1+u) d/du)^n u
    holds in u = f(x) for any f; the operator side steps across the orders, h <- (1 + u) u dh/du.
    """
    u = RationalFunction(Polynomial.variable(), Polynomial.one())
    reports, h = [], u
    chi, ti = (RationalFunction(Polynomial.variable(), Polynomial([1, 0, s])) for s in (-1, 1))
    for n in range(n_max + 1):
        checks = (
            ("construction route equality", lambda: li_neg_operator(n) == li_neg_stirling(n) == li_neg(n)),
            ("closed form vs defining series", lambda: defining_series_agree(n)),
            ("chi from polylog difference", lambda: chi_from_li(n) == chi_neg(n)),
            ("Ti from rotated chi", lambda: ti_from_chi(n) == ti_neg(n)),
            ("chi and Ti inversion",
             lambda: substitute(chi_neg(n), "invert_z") == chi_neg(n) * (-1) ** (n + 1)
             and substitute(ti_neg(n), "invert_z") == ti_neg(n) * (-1) ** n),
            ("chi and Ti operator route", lambda: chi == chi_neg(n) and ti == ti_neg(n)),
            ("duplication identity", lambda: li_neg(n) + substitute(li_neg(n), "negate_z")
             == substitute(li_neg(n), "square_z") * (2 ** (1 + n))),
            *((f"{target} polynomial vs recurrence", lambda target=target, build=build:
               build(n).poly == circular.derivative_poly_recurrence(target, n).poly)
              for target, build in DERIVATIVE_POLYS.items()),
            ("csc route forms agree", lambda: len({r.form(n) for r in (
                circular.csc_derivative_eval, circular.csc_derivative_via_li,
                circular.csc_derivative_binomial, ladder.leibniz_csc_route)}) == 1),
            ("sec route forms agree", lambda: len({r.form(n) for r in (
                circular.sec_derivative_eval, circular.sec_derivative_via_li,
                circular.sec_derivative_binomial)}) == 1),
            ("generic operand", lambda: substitute(li_neg(n), "z_over_1_plus_z") == h == RationalFunction(
                evaluate_packed(lambda x: stirling_power_sum(n, x, factorial),
                                stirling_power_sum(n, 1, factorial), n + 2), Polynomial.one())),
        )
        reports += [exact_report(label, n, holds) for label, holds in checks]
        h = (u + 1) * z_ddz(h)
        chi, ti = z_ddz(chi), z_ddz(ti)
    return reports


def _jet_reports(route, grid, n_max: int, tol: float) -> list:
    """One report per order of a ``jets.route`` against ``nth_derivative(route.fn, x, n)``.

    A library error of either side fails its point, with the error as the note.
    """
    return [VerificationReport(f"{route.label} vs jet oracle", n, tol,
                               [check(x, lambda: (route(n, x), nth_derivative(route.fn, x, n)), tol)
                                for x in grid])
            for n in range(n_max + 1)]


def _trig(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    return [r for route in (circular.csc_derivative_eval, circular.sec_derivative_eval)
            for r in _jet_reports(route, TRIG_GRID, n_max, tol)]


def _hyperbolic(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    reports = []
    for route in (hyperbolic.csch_derivative_eval, hyperbolic.sech_derivative_eval):
        reports += _jet_reports(route, HYP_GRID, n_max, tol)
    # Li(e^x) against the coth relation, Li(-e^x) against the tanh one
    relations = (("coth", 1.0, hyperbolic.li_relation_coth),
                 ("tanh", -1.0, hyperbolic.li_relation_tanh))
    for n in range(1, n_max + 1):
        points = [check(x, lambda: (rf_eval(li_neg(n), sign * math.exp(x)).real, relation(n, x)),
                        tol, label)
                  for x in HYP_GRID for label, sign, relation in relations]
        reports.append(VerificationReport("polylog half-argument relations", n, tol, points))
    return reports


def _inverse(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    """The twelve registry identities, or only ``name``; ``core`` proves the generic operand."""
    return [inverse.verify_identity(ident, n, tol) for ident in inverse.registry()
            if name is None or ident.name == name for n in range(n_max + 1)]


def _ladder(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    return [exact_report(label, n, holds) for n in range(n_max + 1) for label, holds in (
        ("ladder main relation", lambda: ladder.verify_ladder_exact(n)),
        ("ladder chi form", lambda: ladder.chi_ladder(n)),
        ("ladder Ti form", lambda: ladder.ti_ladder(n)),
        ("ladder rotated variant", lambda: ladder.verify_ladder_sec_variant(n)),
    )]


# suite -> (runner, largest n_max, default tolerance); "all" runs them in this order
SUITES = {
    "core": (_core, MAX_ORDER, 0.0),
    "trig": (_trig, MAX_NUMERIC_SWEEP, 1e-7),
    "hyperbolic": (_hyperbolic, MAX_NUMERIC_SWEEP, 1e-8),
    "inverse": (_inverse, MAX_NUMERIC_SWEEP, 1e-7),
    "ladder": (_ladder, MAX_ORDER, 0.0),
}


class SweepRangeError(ValueError):
    """n_max is outside 0..cap, tol is not finite and >= 0, or name selects no identity."""


def run_suite(suite: str, n_max: int, tol: float | None = None,
              name: str | None = None) -> list[VerificationReport]:
    """Run one suite, or every suite for ``"all"``, over orders up to ``n_max``.

    ``tol`` overrides each numeric suite's default tolerance; ``name`` restricts
    the inverse suite to one identity.  Raises SweepRangeError when tol is not
    finite and >= 0, when n_max lies outside 0..cap, or when ``name`` is given to
    a suite without named identities (any but inverse and all) or names none.
    """
    if tol is not None and not 0.0 <= tol < math.inf:
        raise SweepRangeError(f"--tolerance must be finite and >= 0, got {tol}")
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if name is not None and suite not in ("inverse", "all"):
        raise SweepRangeError(f"the {suite} suite has no named identities to select")
    if name is not None and name not in {ident.name for ident in inverse.registry()}:
        raise SweepRangeError(f"no identity named {name!r} in the inverse suite")
    names = list(SUITES) if suite == "all" else [suite]
    cap = max(SUITES[s][1] for s in names)
    if not 0 <= n_max <= cap:
        raise SweepRangeError(f"the {suite} suite supports --n-max 0..{cap}, got {n_max}")
    reports: list[VerificationReport] = []
    for s in names:
        runner, suite_cap, default_tol = SUITES[s]
        reports += runner(min(n_max, suite_cap), default_tol if tol is None else tol, name)
    return reports
