"""Hyperbolic derivative polynomials, evaluators and polylog relations."""

import math

import pytest

from negpolylog import hyperbolic
from negpolylog.algebra import rf_eval
from negpolylog.circular import derivative_poly_recurrence
from negpolylog.errors import SingularityError
from negpolylog.hyperbolic import (
    HYP_GRID,
    coth_derivative_poly,
    csch_derivative_eval,
    li_relation_coth,
    li_relation_tanh,
    sech_derivative_eval,
    tanh_derivative_poly,
)
from negpolylog.jets import nth_derivative
from negpolylog.polylog import chi_neg, li_neg, ti_neg
from negpolylog.reports import rel_err
from negpolylog.suites import run_suite


def test_first_order_polynomials():
    # coth' = -csch^2 = 1 - coth^2, tanh' = sech^2 = 1 - tanh^2
    assert coth_derivative_poly(1).coefficient_ints() == (1, 0, -1)
    assert tanh_derivative_poly(1).coefficient_ints() == (1, 0, -1)


def test_polynomials_match_recurrence():
    assert tanh_derivative_poly(3).poly == derivative_poly_recurrence("tanh", 3).poly
    for n in (*range(1, 17), 24, 40, 64):  # up to the CLI's cap
        assert coth_derivative_poly(n).poly == derivative_poly_recurrence("coth", n).poly
        assert tanh_derivative_poly(n).poly == derivative_poly_recurrence("tanh", n).poly


def test_polynomials_evaluate_to_jet_derivatives():
    for n in (2, 5, 9):
        for x in (0.6, 1.5):
            got = coth_derivative_poly(n)(math.cosh(x) / math.sinh(x))
            assert rel_err(got, nth_derivative("coth", x, n)) < 1e-9
            got = tanh_derivative_poly(n)(math.tanh(x))
            assert rel_err(got, nth_derivative("tanh", x, n)) < 1e-9


def test_li_relation_values():
    # at n = 0 the relation misses the constant -1/2: Li form gives -2 at
    # z = e^x = 2 while the half-argument derivative form gives -3/2
    assert rf_eval(li_neg(0), 2.0).real == pytest.approx(-2.0)
    assert li_relation_coth(0, math.log(2)) == pytest.approx(-1.5)
    assert rf_eval(li_neg(0), -1.0).real == pytest.approx(-0.5)
    assert li_relation_tanh(0, 0.0) == pytest.approx(0.0)
    # from n >= 1 on, both sides agree
    lhs = rf_eval(li_neg(3), math.exp(1.2)).real
    assert rel_err(lhs, li_relation_coth(3, 1.2)) < 1e-9


def test_li_relations_on_grid():
    for n in range(1, 11):
        for x in HYP_GRID:
            lhs = rf_eval(li_neg(n), math.exp(x)).real
            assert rel_err(lhs, li_relation_coth(n, x)) < 1e-9, ("coth", n, x)
            lhs = rf_eval(li_neg(n), -math.exp(x)).real
            assert rel_err(lhs, li_relation_tanh(n, x)) < 1e-9, ("tanh", n, x)


def test_csch_sech_examples():
    assert sech_derivative_eval(0, 0.0) == pytest.approx(1.0)
    assert rel_err(csch_derivative_eval(1, 1.0), nth_derivative("csch", 1.0, 1)) < 1e-9
    assert rel_err(sech_derivative_eval(6, 0.5), nth_derivative("sech", 0.5, 6)) < 1e-8


def test_csch_sech_on_grid():
    for n in range(11):
        for x in HYP_GRID:
            assert rel_err(csch_derivative_eval(n, x), nth_derivative("csch", x, n)) < 1e-8
            assert rel_err(sech_derivative_eval(n, x), nth_derivative("sech", x, n)) < 1e-8


def test_csch_sech_at_large_and_negative_x():
    # sums in powers of exp(|x|) give 0.0 at (10, 75) and overflow at the other three large |x|
    points = [(10, 75.0), (1, 356.0), (1, 400.0), (10, -80.0),
              *((n, -x) for n in (0, 3) for x in HYP_GRID)]
    for n, x in points:
        for fn, route in (("csch", csch_derivative_eval), ("sech", sech_derivative_eval)):
            assert rel_err(route(n, x), nth_derivative(fn, x, n)) < 1e-10, (fn, n, x)
    # near 0 at order 64 the value is beyond double range, where the jet gives nan
    assert csch_derivative_eval(64, 1.01e-6) == math.inf
    assert csch_derivative_eval(64, -1.01e-6) == -math.inf


def test_chi_ti_relations_hand_values():
    # the paper's relations at e^x, by hand at n = 0: 2 e/(1 - e^2) = -1/sinh(1) and
    # 2 e/(1 + e^2) = 1/cosh(1); the routes read the same forms at e^-x
    chi, ti = 2 * rf_eval(chi_neg(0), math.e).real, 2 * rf_eval(ti_neg(0), math.e).real
    assert chi == pytest.approx(2 * math.e / (1 - math.e**2)) == pytest.approx(-1 / math.sinh(1.0))
    assert ti == pytest.approx(2 * math.e / (1 + math.e**2)) == pytest.approx(1 / math.cosh(1.0))
    assert chi == pytest.approx(-csch_derivative_eval(0, 1.0), rel=1e-15)
    assert ti == pytest.approx(sech_derivative_eval(0, 1.0), rel=1e-15)


def test_a_raising_side_fails_only_its_point(monkeypatch):
    def oracle(fn, x, n):
        if fn == "coth":
            raise SingularityError("stub")
        return nth_derivative(fn, x, n)

    monkeypatch.setattr(hyperbolic, "nth_derivative", oracle)
    (report,) = [r for r in run_suite("hyperbolic", 1) if r.identity == "polylog half-argument relations"]
    assert [p.label for p in report.points] == ["coth", "tanh"] * len(HYP_GRID)
    for p in report.points:
        if p.label == "coth":
            assert (p.ok, p.rel_err, p.note) == (False, math.inf, "SingularityError: stub")
        else:
            assert (p.ok, p.note) == (True, "")


def test_chi_ti_relations_sweep():
    # the relations at e^x agree with the routes, which read the forms at e^-|x|
    for n in range(11):
        for x in (*HYP_GRID, -0.8):
            chi, ti = (2 * rf_eval(f(n), math.exp(x)).real for f in (chi_neg, ti_neg))
            assert rel_err(chi, -csch_derivative_eval(n, x)) < 1e-13, (n, x)
            assert rel_err(ti, sech_derivative_eval(n, x)) < 1e-13, (n, x)


def test_singularities():
    with pytest.raises(SingularityError):
        csch_derivative_eval(2, 0.0)
    with pytest.raises(SingularityError):
        li_relation_coth(3, 0.0)


@pytest.mark.parametrize("n, x", [(64, 0.3), (120, 1.0), (160, 1.0), (170, 1.0)])
def test_csch_sech_single_sums_hold_at_high_order(n, x):
    # the float sums lost all digits of sech here and overflowed from n = 160 at x = 1
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(150):  # the alternating sech series cancels about 45 of its digits
        # csch x = 2 sum_j e^(-(2j+1)x) and sech x = 2 sum_j (-1)^j e^(-(2j+1)x) for x > 0
        terms = [2 * (-(2 * j + 1)) ** n * mpmath.exp(-(2 * j + 1) * mpmath.mpf(x))
                 for j in range(1000)]
        want = {"csch": mpmath.fsum(terms), "sech": mpmath.fsum(t * (-1) ** j for j, t in enumerate(terms))}
    for fn, route in (("csch", csch_derivative_eval), ("sech", sech_derivative_eval)):
        assert abs(float(route(n, x) / want[fn] - 1)) < 2e-14, (fn, n, x)


def test_csch_reads_one_minus_t_squared_uncancelled():
    # 1 - t^2 at the double t = exp(-x) would be off by about 1e-16/x per factor (2e-10 at
    # (10, 1.01e-6)); the route takes it from expm1 instead
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for n, x in ((10, 1.01e-6), (3, 1e-5), (10, 1e-3)):
            want = mpmath.diff(mpmath.csch, mpmath.mpf(x), n)
            assert abs(float(csch_derivative_eval(n, x) / want - 1)) < 2e-14, (n, x)
