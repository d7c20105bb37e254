"""The verification-suite registry used by ``negpolylog verify``."""

import math

import pytest

from negpolylog import circular, hyperbolic, ladder, suites
from negpolylog.errors import ImaginaryResidueError, PoleError
from negpolylog.jets import FUNCTION_IDS
from negpolylog.numutil import route
from negpolylog.reports import PointCheck, check, exact_report, rel_err
from negpolylog.suites import MAX_NUMERIC_SWEEP, MAX_ORDER, SUITES, SweepRangeError, run_suite


def test_exact_suites_pass():
    reports = run_suite("ladder", 3)
    assert len(reports) == 4 * 4
    assert all(r.passed and r.exact and r.tolerance == 0.0 for r in reports)
    core = run_suite("core", 2)
    assert {r.identity for r in core} == {
        "construction route equality", "closed form vs defining series",
        "chi from polylog difference", "Ti from rotated chi", "chi and Ti inversion",
        "duplication identity",
        *(f"{target} polynomial vs recurrence" for target in ("cot", "tan", "coth", "tanh")),
    }
    assert all(r.passed and r.exact for r in core)
    assert exact_report("x", 2, False).to_dict() == {
        "identity": "x", "n": 2, "tolerance": 0.0, "exact": True, "pass": False,
        "points": [{"x": 0.0, "lhs": 0.0, "rhs": 0.0, "rel_err": 1.0}],
    }
    point = PointCheck(1.0, 2.0, 3.0, 0.5, False, "l", "m")
    assert (point.to_dict(), point.ok) == (
        {"x": 1.0, "lhs": 2.0, "rhs": 3.0, "rel_err": 0.5, "label": "l", "note": "m"}, False)


def test_default_and_overridden_tolerances():
    assert {r.tolerance for r in run_suite("trig", 1)} == {1e-7}
    reports = run_suite("inverse", 1, tol=1e-6, name="arctan")
    assert {(r.identity, r.tolerance) for r in reports} == {("arctan", 1e-6)}
    assert [r.n for r in reports] == [0, 1]
    # a tolerance must be finite and >= 0, in the library as on the command line
    for tol in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(SweepRangeError, match="--tolerance must be finite and >= 0"):
            run_suite("trig", 2, tol=tol)
    # a zero tolerance is a tolerance, not "use the default"
    for suite in ("trig", "hyperbolic"):  # every report of these is numeric and takes tol
        zero = run_suite(suite, 1, tol=0.0)
        assert {(r.tolerance, r.exact) for r in zero} == {(0.0, False)}
        assert not all(r.passed for r in zero)
    # the generic operands keep their fixed 1e-9, whatever --tolerance says
    zero = run_suite("inverse", 1, tol=0.0)
    generic = {r.identity for r in zero if r.identity.startswith("generic-operand")}
    assert generic and {r.tolerance for r in zero if r.identity in generic} == {1e-9}
    assert {r.tolerance for r in zero if r.identity not in generic} == {0.0}


def test_a_raising_route_fails_its_points_and_the_suite_goes_on():
    @route("csc", "csc stub")
    def broken(n, x):
        if n == 1:
            raise ImaginaryResidueError("residue")
        return 1.0 / math.sin(x)

    reports = suites._jet_reports(broken, (0.5, 1.0), 2, 1e-7)
    assert {r.identity for r in reports} == {"csc stub vs jet oracle"}
    assert [r.n for r in reports] == [0, 1, 2]
    failed = reports[1].points
    assert [(p.x, p.ok, p.rel_err, p.note) for p in failed] == [
        (0.5, False, math.inf, "ImaginaryResidueError: residue"),
        (1.0, False, math.inf, "ImaginaryResidueError: residue"),
    ]
    assert all(math.isnan(p.lhs) and math.isnan(p.rhs) for p in failed)
    # a point at a pole fails alone: the route's guard raises what the oracle would
    reports = suites._jet_reports(route("csc", "csc stub")(lambda n, x: 1.0), (math.pi, 1.0), 1, 10.0)
    for report in reports:
        at_pole, clear = report.points
        assert (at_pole.ok, at_pole.rel_err, at_pole.note) == (
            False, math.inf, f"SingularityError: csc is singular within 1e-06 of x = {math.pi}")
        assert (clear.ok, clear.note) == (True, "")


def test_check_judges_one_point():
    assert check(0.5, lambda: (1.0, 1.0 + 1e-9), 1e-8, "l") == PointCheck(
        0.5, 1.0, 1.0 + 1e-9, rel_err(1.0, 1.0 + 1e-9), True, "l")
    assert not check(0.5, lambda: (1.0, 1.1), 1e-8).ok
    assert check(0.5, lambda: (2.0, 2.0), 0.0).ok  # the tolerance itself passes

    def pole():
        raise PoleError("evaluation at a pole: z = 1")

    failed = check(0.5, pole, 1e-8, "l")
    assert (failed.ok, failed.rel_err, failed.label, failed.note) == (
        False, math.inf, "l", "PoleError: evaluation at a pole: z = 1")
    with pytest.raises(ZeroDivisionError):  # not a library error: it propagates
        check(0.5, lambda: (1.0 / 0.0, 1.0), 1e-8)


def test_all_runs_every_suite_clipped_to_its_cap(monkeypatch):
    calls = []
    for suite, (_, cap, tol) in list(SUITES.items()):
        def record(n_max, tol, name, suite=suite):
            calls.append((suite, n_max, tol))
            return []
        monkeypatch.setitem(SUITES, suite, (record, cap, tol))
    run_suite("all", 12)
    assert calls == [("core", 12, 0.0), ("trig", 10, 1e-7), ("hyperbolic", 10, 1e-8),
                     ("inverse", 10, 1e-7), ("ladder", 12, 0.0)]


def test_caps():
    assert {suite: cap for suite, (_, cap, _) in SUITES.items()} == {
        "core": MAX_ORDER, "trig": MAX_NUMERIC_SWEEP, "hyperbolic": MAX_NUMERIC_SWEEP,
        "inverse": MAX_NUMERIC_SWEEP, "ladder": MAX_ORDER}
    for suite, n_max in (("trig", MAX_NUMERIC_SWEEP + 1), ("core", MAX_ORDER + 1),
                         ("ladder", MAX_ORDER + 1), ("all", MAX_ORDER + 1), ("inverse", -1)):
        with pytest.raises(SweepRangeError, match="n-max"):
            run_suite(suite, n_max)
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("banana", 1)


def test_name_must_select_an_inverse_identity():
    for suite in ("inverse", "all"):
        with pytest.raises(ValueError, match="no identity named 'bogus'"):
            run_suite(suite, 1, name="bogus")
    for suite in ("core", "trig", "hyperbolic", "ladder"):
        with pytest.raises(ValueError, match="no named identities"):
            run_suite(suite, 1, name="arctan")
    assert {r.identity for r in run_suite("inverse", 0, name="arccsc")} == {"arccsc"}


ROUTES = (circular.csc_derivative_eval, circular.csc_derivative_via_li,
          circular.csc_derivative_binomial, ladder.leibniz_csc_route, circular.sec_derivative_eval,
          circular.sec_derivative_via_li, circular.sec_derivative_binomial,
          hyperbolic.csch_derivative_eval, hyperbolic.sech_derivative_eval)


def test_each_route_is_declared_with_its_jet_and_label():
    assert len({r.__name__ for r in ROUTES}) == 9
    for r in ROUTES:
        assert r.fn in FUNCTION_IDS and r.label.split()[0] == r.fn, r.__name__
    assert len({r.label for r in ROUTES}) == 9


def test_numeric_suites_keep_their_identities_in_order():
    jets = [f"{fn} {kind} vs jet oracle n={n}"
            for fn, kinds in (("csc", ("single-sum", "polylog-difference", "binomial", "leibniz")),
                              ("sec", ("single-sum", "polylog-difference", "binomial")))
            for kind in kinds for n in (0, 1)]
    assert [f"{r.identity} n={r.n}" for r in run_suite("trig", 1)] == jets
    assert [f"{r.identity} n={r.n}" for r in run_suite("hyperbolic", 1)] == [
        "csch single-sum vs jet oracle n=0", "csch single-sum vs jet oracle n=1",
        "sech single-sum vs jet oracle n=0", "sech single-sum vs jet oracle n=1",
        "polylog half-argument relations n=1"]
