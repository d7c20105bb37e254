"""Machine-readable verification outcomes shared by the sweep modules.

Every numeric point is judged by :func:`check`: ``sides()`` gives the two
sides, and the point passes when their relative error is at most the
tolerance.  A library error raised while computing either side fails the
point, with the error in its note, so one bad point never aborts a suite;
any other exception propagates.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import NegPolylogError

__all__ = ["rel_err", "PointCheck", "VerificationReport"]


def rel_err(a: float, b: float) -> float:
    """Relative difference |a - b| / max(|a|, |b|), 0 when both vanish."""
    m = max(abs(a), abs(b))
    if m == 0.0:
        return 0.0
    return abs(a - b) / m


class PointCheck(namedtuple("PointCheck", "x lhs rhs rel_err ok label note", defaults=("", ""))):
    """One sample point: x, both sides, their relative error, and the verdict."""

    __slots__ = ()

    def to_dict(self) -> dict:
        d = {"x": self.x, "lhs": self.lhs, "rhs": self.rhs, "rel_err": self.rel_err}
        if self.label:
            d["label"] = self.label
        if self.note:
            d["note"] = self.note
        return d


def check(x: float, sides, tol: float, label: str = "") -> PointCheck:
    """Judge one point: ``sides()`` returns (lhs, rhs); pass when rel_err <= tol."""
    try:
        lhs, rhs = sides()
    except NegPolylogError as exc:
        note = f"{type(exc).__name__}: {exc}"
        return PointCheck(x, math.nan, math.nan, math.inf, False, label, note)
    r = rel_err(lhs, rhs)
    return PointCheck(x, lhs, rhs, r, r <= tol, label)


class VerificationReport(namedtuple("VerificationReport", "identity n tolerance points exact")):
    """The PointChecks of one identity at order n against a tolerance."""

    __slots__ = ()

    def __new__(cls, identity: str, n: int, tolerance: float, points=None, exact: bool = False):
        return super().__new__(cls, identity, n, tolerance, [] if points is None else points, exact)

    @property
    def passed(self) -> bool:
        return all(p.ok for p in self.points)

    @property
    def max_rel_err(self) -> float:
        return max((p.rel_err for p in self.points), default=0.0)

    def to_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "n": self.n,
            "tolerance": self.tolerance,
            "points": [p.to_dict() for p in self.points],
            "pass": self.passed,
        }
        if self.exact:
            d["exact"] = True
        return d


def exact_report(identity: str, n: int, ok: bool) -> VerificationReport:
    """Report of one exact identity check, as a single placeholder point."""
    point = PointCheck(0.0, 0.0, 0.0, 0.0 if ok else 1.0, ok)
    return VerificationReport(identity, n, 0.0, [point], exact=True)
