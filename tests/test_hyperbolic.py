"""Hyperbolic derivative polynomials, evaluators and polylog relations."""

import math

import pytest

from negpolylog import hyperbolic
from negpolylog.algebra import rf_eval
from negpolylog.circular import derivative_poly_recurrence
from negpolylog.errors import SingularityError
from negpolylog.hyperbolic import (
    HYP_GRID,
    chi_ti_hyperbolic_relations,
    coth_derivative_poly,
    csch_derivative_eval,
    li_relation_coth,
    li_relation_tanh,
    sech_derivative_eval,
    tanh_derivative_poly,
)
from negpolylog.jets import nth_derivative
from negpolylog.polylog import li_neg
from negpolylog.reports import rel_err


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
    rep = chi_ti_hyperbolic_relations(0, 1.0, tol=1e-12)
    chi_point = next(p for p in rep.points if p.label == "chi-csch")
    # 2 e/(1 - e^2) = -1/sinh(1), by hand
    assert chi_point.lhs == pytest.approx(2 * math.e / (1 - math.e**2))
    assert chi_point.lhs == pytest.approx(-1 / math.sinh(1.0))
    ti_point = next(p for p in rep.points if p.label == "ti-sech")
    assert ti_point.lhs == pytest.approx(2 * math.e / (1 + math.e**2))
    assert ti_point.lhs == pytest.approx(1 / math.cosh(1.0))
    assert rep.passed


def test_a_raising_side_fails_only_its_point(monkeypatch):
    def oracle(fn, x, n):
        if fn == "csch":
            raise SingularityError("stub")
        return nth_derivative(fn, x, n)

    monkeypatch.setattr(hyperbolic, "nth_derivative", oracle)
    chi, ti = chi_ti_hyperbolic_relations(2, 0.8).points
    assert (chi.label, chi.ok, chi.rel_err, chi.note) == (
        "chi-csch", False, math.inf, "SingularityError: stub")
    assert (ti.label, ti.ok, ti.note) == ("ti-sech", True, "")


def test_chi_ti_relations_sweep():
    for n in range(1, 11):
        for x in HYP_GRID:
            assert chi_ti_hyperbolic_relations(n, x, tol=1e-8).passed, (n, x)
    assert chi_ti_hyperbolic_relations(5, 0.8, tol=1e-8).passed


def test_singularities():
    with pytest.raises(SingularityError):
        csch_derivative_eval(2, 0.0)
    with pytest.raises(SingularityError):
        li_relation_coth(3, 0.0)
    with pytest.raises(SingularityError):
        chi_ti_hyperbolic_relations(2, 0.0)
