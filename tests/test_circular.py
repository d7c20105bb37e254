"""Derivative polynomials and the multi-route csc/sec evaluators."""

import cmath
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from negpolylog.algebra import rf_eval
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
from negpolylog.combinatorics import eulerian_b_row
from negpolylog.errors import ImaginaryResidueError, SingularityError
from negpolylog.hyperbolic import (
    HYP_GRID, coth_derivative_poly, csch_derivative_eval, sech_derivative_eval, tanh_derivative_poly,
)
from negpolylog.jets import nth_derivative
from negpolylog.numutil import checked_real, i_power
from negpolylog.polylog import li_neg
from negpolylog.reports import rel_err

CSC_ROUTES = (csc_derivative_eval, csc_derivative_via_li, csc_derivative_binomial)
SEC_ROUTES = (sec_derivative_eval, sec_derivative_via_li, sec_derivative_binomial)


def test_cot_polynomials():
    assert cot_derivative_poly(1).coefficient_ints() == (-1, 0, -1)
    assert cot_derivative_poly(2).coefficient_ints() == (0, 2, 0, 2)
    assert cot_derivative_poly(3).coefficient_ints() == (-2, 0, -8, 0, -6)


def test_tan_polynomials():
    assert tan_derivative_poly(1).coefficient_ints() == (1, 0, 1)
    assert tan_derivative_poly(2).coefficient_ints() == (0, 2, 0, 2)
    assert tan_derivative_poly(4).poly == derivative_poly_recurrence("tan", 4).poly


def test_recurrence_base_cases():
    assert derivative_poly_recurrence("cot", 0).coefficient_ints() == (0, 1)
    assert derivative_poly_recurrence("tan", 0).coefficient_ints() == (0, 1)
    # two steps by hand: P1 = -(1+u^2), P2 = -(1+u^2) * (-2u) = 2u + 2u^3
    assert derivative_poly_recurrence("cot", 2).coefficient_ints() == (0, 2, 0, 2)
    with pytest.raises(ValueError):
        derivative_poly_recurrence("sec", 1)


def test_polynomial_routes_agree_exactly():
    for n in (*range(1, 17), 24, 40, 64):  # up to the CLI's cap
        assert cot_derivative_poly(n).poly == derivative_poly_recurrence("cot", n).poly
        assert tan_derivative_poly(n).poly == derivative_poly_recurrence("tan", n).poly


def test_polynomial_shape_invariants():
    for n in range(1, 12):
        p = cot_derivative_poly(n).poly
        assert p.degree == n + 1
        # parity: only terms with k = n+1 (mod 2) survive
        for k, c in enumerate(p.coeffs):
            if (k - (n + 1)) % 2 != 0:
                assert c.is_zero(), (n, k)


def test_polynomial_evaluation_matches_jet():
    for n in (1, 3, 6):
        for x in (0.7, 2.0):
            p = cot_derivative_poly(n)
            want = nth_derivative("cot", x, n)
            got = p(math.cos(x) / math.sin(x))
            assert rel_err(got, want) < 1e-9
            q = tan_derivative_poly(n)
            want = nth_derivative("tan", x, n)
            got = q(math.tan(x))
            assert rel_err(got, want) < 1e-9


def _exact_rounded(coeffs, u: complex) -> tuple[float, float]:
    """sum c_k u^k over Fractions at the double u, each part rounded once."""
    a, b = Fraction(u.real), Fraction(u.imag)
    re = im = Fraction(0)
    for c in reversed(coeffs):
        re, im = re * a - im * b + c, re * b + im * a
    return float(re), float(im)


def test_derivative_polynomials_evaluate_exactly_rounded_once():
    # near |u| = 1 and on the imaginary axis P_n cancels badly; float Horner lost every digit
    points = (0.3, 0.999, -0.999, 1.001, -1.001, 2.5, 0.999j, 0.01 + 1j, -0.2 + 1.01j)
    for build in (cot_derivative_poly, tan_derivative_poly, coth_derivative_poly, tanh_derivative_poly):
        for n in (0, 1, 10, 30, 64):
            p = build(n)
            for u in points:
                re, im = _exact_rounded(p.coefficient_ints(), complex(u))
                got = p(u)
                if isinstance(u, complex):
                    assert (got.real, got.imag) == (re, im), (p.target, n, u)
                else:
                    assert type(got) is float and got == re, (p.target, n, u)

def test_csc_examples():
    assert csc_derivative_eval(0, math.pi / 2) == pytest.approx(1.0)
    assert csc_derivative_eval(1, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    got = csc_derivative_eval(4, 1.0)
    want = nth_derivative("csc", 1.0, 4)
    assert rel_err(got, want) < 1e-8
    assert csc_derivative_via_li(0, math.pi / 2) == pytest.approx(1.0)
    assert rel_err(csc_derivative_via_li(2, 0.7), csc_derivative_eval(2, 0.7)) < 1e-9
    assert rel_err(csc_derivative_via_li(6, 2.0), nth_derivative("csc", 2.0, 6)) < 1e-8
    assert csc_derivative_binomial(0, math.pi / 2) == pytest.approx(1.0)
    assert rel_err(csc_derivative_binomial(3, 1.1), csc_derivative_eval(3, 1.1)) < 1e-8


def test_sec_examples():
    assert sec_derivative_eval(0, 0.0) == pytest.approx(1.0)
    assert sec_derivative_eval(2, 0.0) == pytest.approx(1.0)
    assert rel_err(sec_derivative_binomial(3, 0.4), nth_derivative("sec", 0.4, 3)) < 1e-7
    for route in SEC_ROUTES:
        assert rel_err(route(5, 0.9), nth_derivative("sec", 0.9, 5)) < 1e-8


def test_multi_route_agreement_on_grid():
    for n in range(11):
        for x in TRIG_GRID:
            want = nth_derivative("csc", x, n)
            for route in CSC_ROUTES:
                assert rel_err(route(n, x), want) < 1e-7, (route.__name__, n, x)
            want = nth_derivative("sec", x, n)
            for route in SEC_ROUTES:
                assert rel_err(route(n, x), want) < 1e-7, (route.__name__, n, x)


def test_cot_double_angle():
    # 2 cot 2x = cot x - tan x, differentiated n times, through the library's polynomials
    for n in range(11):
        cot, tan = cot_derivative_poly(n), tan_derivative_poly(n)
        for i in range(1, 11):
            x = 0.13 * i
            lhs = 2 ** (n + 1) * cot(1 / math.tan(2 * x))
            rhs = cot(1 / math.tan(x)) - tan(math.tan(x))
            assert rel_err(lhs, rhs) <= 1e-12, (n, x)


def test_singularity_guards():
    with pytest.raises(SingularityError):
        csc_derivative_eval(2, math.pi)
    with pytest.raises(SingularityError):
        sec_derivative_via_li(1, math.pi / 2)


# Under python -O each exactness check must still raise: the derivative-polynomial
# check when the packed evaluation returns a non-real sum, the Polynomial type's
# check on a non-integral coefficient, and the ti_from_chi check when the rotated
# closed form comes out non-real.
_OPTIMIZED_PROBE = textwrap.dedent("""
    from fractions import Fraction
    from negpolylog import circular, polylog
    from negpolylog.algebra import I, Polynomial
    from negpolylog.errors import ImaginaryResidueError, NegPolylogError

    def raised(fn, exc_type):
        try:
            fn()
        except NegPolylogError as exc:
            return type(exc) is exc_type
        return False

    circular.evaluate_packed = lambda expr, bound, length: Polynomial([I])
    results = [raised(lambda: circular.cot_derivative_poly(3), ImaginaryResidueError)]
    try:
        Polynomial([Fraction(1, 3)])
        results.append(False)
    except ValueError:
        results.append(True)
    polylog.chi_neg = polylog.li_neg
    results.append(raised(lambda: polylog.ti_from_chi(2), ImaginaryResidueError))
    print(__debug__, results)
""")


def test_exactness_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.strip() == "False [True, True, True]"


def test_imaginary_residue_error_states_its_bound_and_ratio():
    assert checked_real(3.0 + 4e-9j) == 3.0  # |im| <= 1e-9 * (1 + 3)
    with pytest.raises(ImaginaryResidueError) as exc:
        checked_real(1.0 + 0.5j, context="csc test")
    assert str(exc.value) == (
        "imaginary residue 0.5 too large relative to 1.0: |im| exceeds "
        "bound*(1+|re|) = 2e-09 by a ratio of 2.5e+08 in csc test"
    )


# The single-sum loops and polylog-difference bodies written out, as they were
# before csc, sec, csch and sech shared one kernel each: reference copies.  The
# csch and sech references are the sums in t = exp(-x), exact in Fractions at the
# doubles t and 1 - t^2 (csch, from expm1) and rounded once.
def _csc_sum_loop(n, x):
    row = eulerian_b_row(n)
    total = 0j
    for k in range(1, n + 2):
        total += row[k - 1] * cmath.exp(-1j * (n - 2 * k) * x)
    val = ((-1) ** n / 2**n) * cmath.exp(-2j * x) * (1.0 / math.sin(x)) ** (n + 1) * total
    return checked_real(val)


def _sec_sum_loop(n, x):
    row = eulerian_b_row(n)
    total = 0j
    for k in range(1, n + 2):
        total += (-1) ** k * row[k - 1] * cmath.exp(-1j * (n - 2 * k) * x)
    val = -(i_power(n) / 2**n) * cmath.exp(-2j * x) * (1.0 / math.cos(x)) ** (n + 1) * total
    return checked_real(val)


def _t_sum(n, sign, t):
    return sum(sign**k * b * t ** (2 * k - 1) for k, b in enumerate(eulerian_b_row(n), 1))


def _csch_exact_sum(n, x):  # x > 0
    t, u = Fraction(math.exp(-x)), Fraction(-math.expm1(-2 * x))
    return float((-1) ** n * 2 * _t_sum(n, 1, t) / u ** (n + 1))


def _sech_exact_sum(n, x):
    t = Fraction(math.exp(-x))
    return float((-1) ** n * -2 * _t_sum(n, -1, t) / (1 + t * t) ** (n + 1))


def _csc_difference_body(n, x):
    z = cmath.exp(1j * x)
    f = li_neg(n)
    return checked_real(i_power(n - 1) * (rf_eval(f, z) - rf_eval(f, -z)))


def _sec_difference_body(n, x):
    z = cmath.exp(1j * x)
    f = li_neg(n)
    return checked_real(i_power(n - 1) * (rf_eval(f, 1j * z) - rf_eval(f, -1j * z)))


def test_shared_kernels_match_the_loops_they_replaced():
    cases = (
        (csc_derivative_eval, _csc_sum_loop, TRIG_GRID),
        (sec_derivative_eval, _sec_sum_loop, TRIG_GRID),
        (csc_derivative_via_li, _csc_difference_body, TRIG_GRID),
        (sec_derivative_via_li, _sec_difference_body, TRIG_GRID),
        (csch_derivative_eval, _csch_exact_sum, HYP_GRID),
        (sech_derivative_eval, _sech_exact_sum, HYP_GRID),
    )
    for route, reference, grid in cases:
        for n in range(11):
            for x in grid:
                got, want = route(n, x), reference(n, x)
                assert got == want and repr(got) == repr(want), (route.__name__, n, x)
