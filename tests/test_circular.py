"""Derivative polynomials and the multi-route csc/sec evaluators."""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from negpolylog import circular, ladder
from negpolylog.algebra import I, GaussianRational, Polynomial, rf_eval_exact
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
from negpolylog.combinatorics import binomial, eulerian_b_row, factorial, stirling2_row
from negpolylog.errors import ImaginaryResidueError, SingularityError
from negpolylog.hyperbolic import (
    HYP_GRID, coth_derivative_poly, csch_derivative_eval, sech_derivative_eval, tanh_derivative_poly,
)
from negpolylog.jets import nth_derivative
from negpolylog.polylog import li_neg, ti_neg
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


def test_negative_orders_raise():
    builders = [cot_derivative_poly, tan_derivative_poly, coth_derivative_poly, tanh_derivative_poly]
    builders += [lambda n, t=t: derivative_poly_recurrence(t, n) for t in ("cot", "tan", "coth", "tanh")]
    for build in builders:
        with pytest.raises(ValueError, match="n must be >= 0"):
            build(-1)


def _recurrence_by_polynomial_products(target, n):
    """The recurrence as first written, a Polynomial product m * P' a step: the reference copy."""
    mult = Polynomial({"cot": [-1, 0, -1], "tan": [1, 0, 1], "coth": [1, 0, -1], "tanh": [1, 0, -1]}[target])
    p = Polynomial.variable()
    for _ in range(n):
        p = mult * p.derivative()
    return p


def test_recurrence_step_matches_the_polynomial_product():
    for target in ("cot", "tan", "coth", "tanh"):
        for n in range(65):
            got = derivative_poly_recurrence(target, n)
            assert got.poly == _recurrence_by_polynomial_products(target, n), (target, n)
            assert type(got.poly.re) is tuple and all(type(x) is int for x in got.poly.re + got.poly.im)


def test_polynomial_routes_agree_exactly():
    for n in (*range(1, 17), 24, 40, 64):  # up to the CLI's cap
        assert cot_derivative_poly(n).poly == derivative_poly_recurrence("cot", n).poly
        assert tan_derivative_poly(n).poly == derivative_poly_recurrence("tan", n).poly


def _weights_by_binomial_sums(n):
    """The binomial routes' weights as first written: i^(n-1+j) a_j, j = 0..n+1, with
    a_j = sum_k (-1)^k k! 2^(n-k) {n+1 brace k+1} C(k+1, j), summed over k first."""
    row = stirling2_row(n + 1)
    w = [(-1) ** k * factorial(k) * 2 ** (n - k) * row[k + 1] for k in range(n + 1)]
    return [I ** ((n - 1 + j) % 4) * sum(w[k] * binomial(k + 1, j) for k in range(max(j - 1, 0), n + 1))
            for j in range(n + 2)]


def test_binomial_weights_are_the_tan_derivative_polynomial():
    # the csc and sec binomial routes read their weights off P = tan_derivative_poly(n)
    for n in range(1, 65):
        assert _weights_by_binomial_sums(n) == list(tan_derivative_poly(n).poly.coeffs), n
    # at n = 0 only the constant term differs, and it cancels in t^0 - (-1/t)^0
    assert _weights_by_binomial_sums(0) == [-I, 1] and tan_derivative_poly(0).coefficient_ints() == (0, 1)


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
# check on a non-integral coefficient, the ti_from_chi check when the rotated
# closed form comes out non-real, and a route's check that its form in t is real.
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
    circular.chi_neg = polylog.ti_neg
    results.append(raised(lambda: circular.csc_derivative_eval(3, 1.0), ImaginaryResidueError))
    print(__debug__, results)
""")


def test_exactness_checks_survive_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_PROBE], env=env,
                         capture_output=True, text=True, timeout=120, check=True).stdout
    assert out.strip() == "False [True, True, True, True]"


def test_a_non_real_route_form_raises_naming_its_route_and_order(monkeypatch):
    # 2 i^(n-1) Ti(w) in place of 2 i^(n-1) chi(w) is -i times sec's real form in t; forms are
    # memoized, so the cache is cleared around the build
    monkeypatch.setattr(circular, "chi_neg", ti_neg)
    csc_derivative_eval.form.cache_clear()
    try:
        with pytest.raises(ImaginaryResidueError, match=r"^csc single-sum n=5: its exact form has non-real"):
            csc_derivative_eval(5, 1.0)
    finally:
        csc_derivative_eval.form.cache_clear()


# Each route's own formula, done exactly at w = exp(ix) = (1 + it)/(1 - it) for the double
# t = tan(x/2), and the csch and sech sums in t = exp(-x), exact in Fractions at the doubles
# t and 1 - t^2 (csch, from expm1): each value is real, and rounded once it is the route's
# value bit for bit.
def _w(x):
    t = GaussianRational(math.tan(x / 2))
    return (1 + I * t) / (1 - I * t)


def _csc_single_sum(n, x):  # the type-B Eulerian single sum with phase exp(i(2k-n-2)x)
    w = _w(x)
    total = sum((b * w ** (2 * k - n) for k, b in enumerate(eulerian_b_row(n), 1)), GaussianRational(0))
    csc = 2 * I / (w - w**-1)
    return GaussianRational((-1) ** n, 0) / 2**n * w**-2 * csc ** (n + 1) * total


def _sec_single_sum(n, x):
    w = _w(x)
    total = sum(((-1) ** k * b * w ** (2 * k - n) for k, b in enumerate(eulerian_b_row(n), 1)),
                GaussianRational(0))
    sec = GaussianRational(2) / (w + w**-1)
    return -(I**n) / 2**n * w**-2 * sec ** (n + 1) * total


def _difference(n, w):
    return I ** (n - 1) * (rf_eval_exact(li_neg(n), w) - rf_eval_exact(li_neg(n), -w))


def _binomial_weights(n):  # (-1)^k k!/2^k {n+1 brace k+1}
    row = stirling2_row(n + 1)
    return [Fraction((-1) ** k * factorial(k) * row[k + 1], 2**k) for k in range(n + 1)]


def _csc_binomial(n, x):  # the literal half-angle double sum
    t = GaussianRational(math.tan(x / 2))
    total = GaussianRational(0)
    for k, wk in enumerate(_binomial_weights(n)):
        total += wk * sum((binomial(k + 1, j) * I**j * (t**j - (-1) ** j * t**-j) for j in range(k + 2)),
                          GaussianRational(0))
    return I ** (n - 1) / 2 * total


def _sec_binomial(n, x):  # the literal tan/sec triple sum
    t = GaussianRational(math.tan(x / 2))
    tan, sec = 2 * t / (1 - t * t), (1 + t * t) / (1 - t * t)
    total = GaussianRational(0)
    for k, wk in enumerate(_binomial_weights(n)):
        for j in range(k + 2):
            inner = sum((2 * binomial(j, ell) * tan ** (j - ell) * sec**ell for ell in range(1, j + 1, 2)),
                        GaussianRational(0))
            total += wk * I**j * binomial(k + 1, j) * inner
    return I ** (n - 1) / 2 * total


def _t_sum(n, sign, t):
    return sum(sign**k * b * t ** (2 * k - 1) for k, b in enumerate(eulerian_b_row(n), 1))


def _csch_exact_sum(n, x):  # x > 0
    t, u = Fraction(math.exp(-x)), Fraction(-math.expm1(-2 * x))
    return GaussianRational((-1) ** n * 2 * _t_sum(n, 1, t) / u ** (n + 1))


def _sech_exact_sum(n, x):
    t = Fraction(math.exp(-x))
    return GaussianRational((-1) ** n * -2 * _t_sum(n, -1, t) / (1 + t * t) ** (n + 1))


def test_routes_are_their_own_formulas_exact_at_the_double_t_rounded_once():
    trig = [(n, x) for n in range(11) for x in TRIG_GRID]
    # at x = 700 the double t = exp(-x) carries about 1,060 bits; the rest lie off the grid,
    # where the suites' digests do not reach
    hyp = [(n, x) for n in range(11) for x in HYP_GRID] + [(10, 1.3), (64, 0.3), (64, 20.0), (64, 700.0)]
    cases = (
        (csc_derivative_eval, _csc_single_sum, trig),
        (sec_derivative_eval, _sec_single_sum, trig),
        (csc_derivative_via_li, lambda n, x: _difference(n, _w(x)), trig),
        (sec_derivative_via_li, lambda n, x: _difference(n, I * _w(x)), trig),
        (csc_derivative_binomial, _csc_binomial, trig),
        (sec_derivative_binomial, _sec_binomial, trig),
        (csch_derivative_eval, _csch_exact_sum, hyp),
        (sech_derivative_eval, _sech_exact_sum, hyp),
    )
    for route, reference, points in cases:
        for n, x in points:
            exact = reference(n, x)
            assert exact.im == 0, (route.__name__, n, x)
            got, want = route(n, x), float(exact.re)
            assert got == want and repr(got) == repr(want), (route.__name__, n, x)


def test_csc_and_sec_routes_are_one_form_in_t():
    # every route is built by its own construction; the forms in t = tan(x/2) are equal canonical
    # forms, so the routes agree exactly at every t
    for n in range(25):
        csc = {r.form(n) for r in (*CSC_ROUTES, ladder.leibniz_csc_route)}
        sec = {r.form(n) for r in SEC_ROUTES}
        assert len(csc) == 1 and len(sec) == 1, n
        (f,), (g,) = csc, sec
        assert f.is_real() and g.is_real() and f != g


@pytest.mark.parametrize("n", [30, 64])
def test_circular_routes_hold_at_high_order(n):
    # the complex-double routes raised ImaginaryResidueError at every binomial cell here and at
    # the single sums at n = 64; sec at (64, 1.4) is the worst cell measured, 1.7e-14
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        def want(x):  # (d/dx)^n csc x = (-1)^n n! sum_k (-1)^k (x - k pi)^-(n+1), n >= 1
            return mpmath.fsum((-1) ** (n + k) * mpmath.factorial(n) * (mpmath.mpf(x) - k * mpmath.pi) ** -(n + 1)
                               for k in range(-20, 21))
        for x in (0.3, 1.4, 2.8):
            for route in (*CSC_ROUTES, ladder.leibniz_csc_route):
                assert abs(float(route(n, x) / want(x) - 1)) < 2e-14, (route.__name__, n, x)
            for route in SEC_ROUTES:
                assert abs(float(route(n, x) / want(x + mpmath.pi / 2) - 1)) < 2e-14, (route.__name__, n, x)
