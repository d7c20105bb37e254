"""The verification suites behind ``negpolylog verify``, callable as a library.

Each suite sweeps the orders 0..n_max (or 1..n_max where an identity starts
at n = 1) and returns one :class:`VerificationReport` per identity and order.
The exact suites compare canonical rational functions; the numeric suites
compare evaluator routes against the Taylor-jet oracle at a relative
tolerance.  ``SUITES`` maps each suite to its runner, its largest supported
n_max and its default tolerance; ``all`` runs every suite in table order,
each clipped to its own cap.
"""

from __future__ import annotations

import functools
import math

from . import circular, hyperbolic, inverse, ladder
from .algebra import rf_eval, substitute
from .circular import TRIG_GRID
from .hyperbolic import HYP_GRID
from .jets import nth_derivative
from .polylog import (
    chi_from_li, chi_neg, defining_series_agree, li_neg, li_neg_operator, li_neg_stirling,
    ti_from_chi, ti_neg,
)
from .reports import VerificationReport, check, exact_report

__all__ = ["MAX_EXACT_SWEEP", "MAX_NUMERIC_SWEEP", "SUITES", "SweepRangeError", "run_suite"]

MAX_EXACT_SWEEP = 15
MAX_NUMERIC_SWEEP = 10


def _core(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    """Exact closed-form identities: route equality, series, cross-routes, duplication."""
    reports = []
    for n in range(n_max + 1):
        checks = (
            ("construction route equality", li_neg_operator(n) == li_neg_stirling(n) == li_neg(n)),
            ("closed form vs defining series", defining_series_agree(n)),
            ("chi from polylog difference", chi_from_li(n) == chi_neg(n)),
            ("Ti from rotated chi", ti_from_chi(n) == ti_neg(n)),
            (
                "duplication identity",
                li_neg(n) + substitute(li_neg(n), "negate_z")
                == substitute(li_neg(n), "square_z") * (2 ** (1 + n)),
            ),
        )
        reports += [exact_report(label, n, ok) for label, ok in checks]
    return reports


def _jet_reports(label: str, route, fn: str, grid, n_max: int, tol: float,
                 derivative=nth_derivative) -> list:
    """One report per order comparing ``route(n, x)`` with ``derivative(fn, x, n)``.

    A library error of either side fails its point, with the error as the note.
    """
    return [VerificationReport(f"{label} vs jet oracle", n, tol,
                               [check(x, lambda: (route(n, x), derivative(fn, x, n)), tol)
                                for x in grid])
            for n in range(n_max + 1)]


def _trig(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    reports = []
    derivative = functools.cache(nth_derivative)  # one jet per (fn, x, n) for all routes of fn
    for label, route in (
        ("csc single-sum", circular.csc_derivative_eval),
        ("csc polylog-difference", circular.csc_derivative_via_li),
        ("csc binomial", circular.csc_derivative_binomial),
        ("csc leibniz", ladder.leibniz_csc_route),
        ("sec single-sum", circular.sec_derivative_eval),
        ("sec polylog-difference", circular.sec_derivative_via_li),
        ("sec binomial", circular.sec_derivative_binomial),
    ):
        reports += _jet_reports(label, route, label.split()[0], TRIG_GRID, n_max, tol, derivative)
    # double-angle consequence: 2 cot 2x = cot x - tan x
    points = [check(x, lambda: (2.0 * math.cos(2 * x) / math.sin(2 * x),
                                math.cos(x) / math.sin(x) - math.tan(x)), 1e-12)
              for x in (0.11 * i for i in range(1, 11))]
    reports.append(VerificationReport("cot double angle", 0, 1e-12, points))
    return reports


def _hyperbolic(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    reports = []
    for target, builder in (("coth", hyperbolic.coth_derivative_poly),
                            ("tanh", hyperbolic.tanh_derivative_poly)):
        for n in range(1, n_max + 1):
            same = builder(n).poly == circular.derivative_poly_recurrence(target, n).poly
            reports.append(exact_report(f"{target} polynomial vs recurrence", n, same))
    for label, route in (("csch single-sum", hyperbolic.csch_derivative_eval),
                         ("sech single-sum", hyperbolic.sech_derivative_eval)):
        reports += _jet_reports(label, route, label.split()[0], HYP_GRID, n_max, tol)
    # Li(e^x) against the coth relation, Li(-e^x) against the tanh one
    relations = (("coth", 1.0, hyperbolic.li_relation_coth),
                 ("tanh", -1.0, hyperbolic.li_relation_tanh))
    for n in range(1, n_max + 1):
        points = [check(x, lambda: (rf_eval(li_neg(n), sign * math.exp(x)).real, relation(n, x)),
                        tol, label)
                  for x in HYP_GRID for label, sign, relation in relations]
        reports.append(VerificationReport("polylog half-argument relations", n, tol, points))
    for n in range(1, n_max + 1):
        for x in HYP_GRID:
            reports.append(hyperbolic.chi_ti_hyperbolic_relations(n, x, tol))
    return reports


def _inverse(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    """The twelve registry identities (or only ``name``), then the generic operands."""
    reports = []
    for ident in inverse.registry():
        if name is not None and ident.name != name:
            continue
        for n in range(n_max + 1):
            reports.append(inverse.verify_identity(ident, n, tol))
    if name is None:
        for f, xs in (("sin", (0.5, 1.0, 2.0)), ("cos", (0.4, 1.0, 1.8))):
            for n in range(min(n_max, 8) + 1):
                for x in xs:
                    reports.append(inverse.verify_generic_operand(f, n, x, 1e-9))
    return reports


def _ladder(n_max: int, tol: float, name: str | None) -> list[VerificationReport]:
    reports = []
    for n in range(n_max + 1):
        for label, ok in (
            ("ladder main relation", ladder.verify_ladder_exact(n)),
            ("ladder chi form", ladder.chi_ladder(n)),
            ("ladder Ti form", ladder.ti_ladder(n)),
            ("ladder rotated variant", ladder.verify_ladder_sec_variant(n, 0.7)),
        ):
            reports.append(exact_report(label, n, ok))
    return reports


# suite -> (runner, largest n_max, default tolerance); "all" runs them in this order
SUITES = {
    "core": (_core, MAX_EXACT_SWEEP, 0.0),
    "trig": (_trig, MAX_NUMERIC_SWEEP, 1e-7),
    "hyperbolic": (_hyperbolic, MAX_NUMERIC_SWEEP, 1e-8),
    "inverse": (_inverse, MAX_NUMERIC_SWEEP, 1e-7),
    "ladder": (_ladder, MAX_EXACT_SWEEP, 0.0),
}


class SweepRangeError(ValueError):
    """n_max is negative or above the suite's cap, or name selects no identity of it."""


def run_suite(suite: str, n_max: int, tol: float | None = None,
              name: str | None = None) -> list[VerificationReport]:
    """Run one suite, or every suite for ``"all"``, over orders up to ``n_max``.

    ``tol`` overrides each numeric suite's default tolerance; ``name``
    restricts the inverse suite to one identity.  Raises SweepRangeError when
    n_max lies outside 0..cap, or when ``name`` is given to a suite without
    named identities (any but inverse and all) or names none of them.
    """
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
