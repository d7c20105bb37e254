"""Machine-readable verification outcomes shared by the sweep modules."""

from __future__ import annotations

from dataclasses import dataclass, field


def rel_err(a: float, b: float) -> float:
    """Relative difference |a - b| / max(|a|, |b|), 0 when both vanish."""
    m = max(abs(a), abs(b))
    if m == 0.0:
        return 0.0
    return abs(a - b) / m


@dataclass
class PointCheck:
    x: float
    lhs: float
    rhs: float
    rel_err: float
    ok: bool
    label: str = ""
    note: str = ""

    def to_dict(self) -> dict:
        d = {"x": self.x, "lhs": self.lhs, "rhs": self.rhs, "rel_err": self.rel_err}
        if self.label:
            d["label"] = self.label
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class VerificationReport:
    identity: str
    n: int
    tolerance: float
    points: list[PointCheck] = field(default_factory=list)
    exact: bool = False

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
