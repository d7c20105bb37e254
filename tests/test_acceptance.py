"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from negpolylog.algebra import (
    GaussianRational,
    Polynomial,
    RationalFunction,
    rf_to_text,
    substitute,
    z_ddz,
)
from negpolylog.circular import (
    TRIG_GRID,
    cot_derivative_poly,
    csc_derivative_binomial,
    csc_derivative_eval,
    csc_derivative_via_li,
    derivative_poly_recurrence,
    sec_derivative_binomial,
    sec_derivative_eval,
    sec_derivative_via_li,
    tan_derivative_poly,
)
from negpolylog.combinatorics import eulerian_b_row, factorial
from negpolylog.hyperbolic import HYP_GRID, csch_derivative_eval, sech_derivative_eval
from negpolylog.inverse import registry, verify_generic_operand, verify_identity
from negpolylog.jets import jet_lift, nth_derivative
from negpolylog.ladder import (
    chi_ladder,
    ladder_coefficients,
    leibniz_csc_route,
    ti_ladder,
    verify_ladder_exact,
)
from negpolylog.polylog import chi_neg, li_neg, li_neg_operator, li_neg_stirling, ti_neg
from negpolylog.reports import rel_err


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {desc}")


CHI_TABLE = [
    "z/(1-z^2)",
    "(z + z^3)/(1-z^2)^2",
    "(z + 6z^3 + z^5)/(1-z^2)^3",
    "(z + 23z^3 + 23z^5 + z^7)/(1-z^2)^4",
    "(z + 76z^3 + 230z^5 + 76z^7 + z^9)/(1-z^2)^5",
]
TI_TABLE = [
    "z/(1+z^2)",
    "(z - z^3)/(1+z^2)^2",
    "(z - 6z^3 + z^5)/(1+z^2)^3",
    "(z - 23z^3 + 23z^5 - z^7)/(1+z^2)^4",
    "(z - 76z^3 + 230z^5 - 76z^7 + z^9)/(1+z^2)^5",
]


def test_criterion_1_table_reproduction():
    with criterion(1, "chi/Ti table rows n=0..4 render character-for-character"):
        t0 = time.monotonic()
        for n in range(5):
            assert rf_to_text(chi_neg(n)) == CHI_TABLE[n], n
            assert rf_to_text(ti_neg(n)) == TI_TABLE[n], n
        assert time.monotonic() - t0 < 1.0


def test_criterion_2_construction_route_equality():
    with criterion(2, "operator and Stirling-sum constructions agree exactly, n=0..25"):
        t0 = time.monotonic()
        for n in range(26):
            assert li_neg_operator(n) == li_neg_stirling(n) == li_neg(n), n
        assert time.monotonic() - t0 < 10.0


def test_criterion_3_type_b_eulerian_properties():
    with criterion(3, "type-B Eulerian rows: sum 2^n n!, symmetry, table rows"):
        for n in range(21):
            row = eulerian_b_row(n)
            assert sum(row) == 2**n * factorial(n)
            assert row == row[::-1]
        assert [eulerian_b_row(n) for n in range(5)] == [
            (1,),
            (1, 1),
            (1, 6, 1),
            (1, 23, 23, 1),
            (1, 76, 230, 76, 1),
        ]


def test_criterion_4_duplication_formula():
    with criterion(4, "exact duplication identity through n=20"):
        for n in range(21):
            f = li_neg(n)
            lhs = f + substitute(f, "negate_z")
            rhs = substitute(f, "square_z") * (2 ** (1 + n))
            assert lhs == rhs, n


def test_criterion_5_ladder_suite():
    with criterion(5, "ladder relations exact (n<=15), listed rows, chi/Ti forms (n<=10)"):
        t0 = time.monotonic()
        for n in range(16):
            assert verify_ladder_exact(n), n
        expected_rows = {
            0: (1,),
            1: (-1, 2),
            2: (1, -4, 4),
            3: (-1, 6, -12, 8),
            4: (1, -8, 24, -32, 16),
            6: (1, -12, 60, -160, 240, -192, 64),
        }
        for n, row in expected_rows.items():
            assert ladder_coefficients(n).coefficients == row, n
        for n in range(11):
            assert chi_ladder(n), n
            assert ti_ladder(n), n
        assert time.monotonic() - t0 < 10.0


def test_criterion_6_trig_derivative_polynomials():
    with criterion(6, "cot/tan polynomials equal the recurrence oracle exactly, n<=15"):
        for n in range(1, 16):
            built = cot_derivative_poly(n)
            assert built.poly.is_real() and all(type(x) is int for x in built.poly.re + built.poly.im)
            assert built.poly == derivative_poly_recurrence("cot", n).poly, ("cot", n)
            built = tan_derivative_poly(n)
            assert built.poly.is_real() and all(type(x) is int for x in built.poly.re + built.poly.im)
            assert built.poly == derivative_poly_recurrence("tan", n).poly, ("tan", n)


def test_criterion_7_multi_route_numeric_agreement():
    with criterion(7, "csc/sec routes within 1e-7 of the jet oracle (n<=10); "
                      "csch/sech within 1e-8"):
        t0 = time.monotonic()
        csc_routes = (
            csc_derivative_eval,
            csc_derivative_via_li,
            csc_derivative_binomial,
            leibniz_csc_route,
        )
        sec_routes = (sec_derivative_eval, sec_derivative_via_li, sec_derivative_binomial)
        for n in range(11):
            for x in TRIG_GRID:
                want = nth_derivative("csc", x, n)
                for route in csc_routes:
                    assert rel_err(route(n, x), want) <= 1e-7, (route.__name__, n, x)
                want = nth_derivative("sec", x, n)
                for route in sec_routes:
                    assert rel_err(route(n, x), want) <= 1e-7, (route.__name__, n, x)
            for x in HYP_GRID:
                assert rel_err(csch_derivative_eval(n, x), nth_derivative("csch", x, n)) <= 1e-8
                assert rel_err(sech_derivative_eval(n, x), nth_derivative("sech", x, n)) <= 1e-8
        assert time.monotonic() - t0 < 30.0


def test_criterion_8_inverse_identity_suite():
    with criterion(8, "all 12 operator identities pass n=0..6 at 1e-7; "
                      "generic-operand instances at 1e-9 for n<=8"):
        idents = registry()
        assert len(idents) == 12
        for ident in idents:
            assert len(ident.sample_points) >= 5
            for n in range(7):
                rep = verify_identity(ident, n, tol=1e-7)
                assert rep.passed, (ident.name, n)
        arccsch = next(i for i in idents if i.name == "arccsch")
        assert any(x < 0 for x in arccsch.sample_points)
        upper = next(i for i in idents if i.name == "arccosh_upper")
        lower = next(i for i in idents if i.name == "arccosh_lower")
        assert min(upper.sample_points) > 1
        assert all(0 < x <= 1 for x in lower.sample_points)
        for f, xs in (("sin", (0.5, 1.0, 2.0, 4.0, math.pi / 6)),
                      ("cos", (0.4, 1.0, 1.8, 2.5, 3.6))):
            for n in range(9):
                for x in xs:
                    assert verify_generic_operand(f, n, x, tol=1e-9).passed, (f, n, x)


small_ints = st.integers(-5, 5)
polys = st.lists(small_ints, min_size=0, max_size=5).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
rationals = st.builds(RationalFunction, polys, nonzero_polys)


@given(rationals, rationals)
@settings(max_examples=120)
def _derivation_property(f, g):
    assert z_ddz(f * g) == z_ddz(f) * g + f * z_ddz(g)


@given(st.floats(-3.0, 3.0))
@settings(max_examples=120)
def _jet_pythagorean_consistency(x0):
    s = jet_lift("sin", x0, 8)
    c = jet_lift("cos", x0, 8)
    total = s * s + c * c
    assert abs(total.coeffs[0] - 1.0) < 1e-12
    assert all(abs(cf) < 1e-12 for cf in total.coeffs[1:])


@given(
    polys,
    nonzero_polys,
    st.sampled_from([1, 2, -3, Fraction(5, 7), GaussianRational(0, 1), GaussianRational(2, -3)]),
)
@settings(max_examples=120)
def _canonical_form_idempotence(num, den, s):
    f = RationalFunction(num, den)
    again = RationalFunction(f.num, f.den)
    assert (again.num.coeffs, again.den.coeffs) == (f.num.coeffs, f.den.coeffs)
    # s = g/d: scale both sides by its Gaussian-integer numerator g, and by its denominator d
    s = s if isinstance(s, GaussianRational) else GaussianRational(s)
    d = math.lcm(s.re.denominator, s.im.denominator)
    for c in (s * d, d):
        assert RationalFunction(num.scale(c), den.scale(c)) == f


@given(st.integers(0, 100))
@settings(max_examples=120)
def _coefficient_sum(n):
    assert sum(ladder_coefficients(n).coefficients) == 1


def test_criterion_9_property_tests():
    # calling a @given-decorated function runs its full randomized sweep
    with criterion(9, "property tests (derivation, jet consistency, canonical "
                      "idempotence, coefficient sum) ran >= 100 randomized trials each"):
        _derivation_property()
        _jet_pythagorean_consistency()
        _canonical_form_idempotence()
        _coefficient_sum()
