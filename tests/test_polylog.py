"""Closed-form construction routes, their exact agreement, and the series oracle."""

import sys
from math import comb

import pytest

from negpolylog.algebra import (
    Polynomial,
    RationalFunction,
    powered_parts,
    rf_eval,
    substitute,
)
from negpolylog.combinatorics import eulerian_b_row
from negpolylog.errors import DomainError, NonConvergenceError
from negpolylog.polylog import (
    chi_from_li,
    chi_neg,
    li_neg,
    li_neg_operator,
    li_neg_stirling,
    li_series_eval,
    ti_from_chi,
    ti_neg,
)


def RF(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


def test_operator_first_orders():
    assert li_neg_operator(0) == RF([0, 1], [1, -1])
    # one z d/dz application by hand: z/(1-z)^2
    assert li_neg_operator(1) == RF([0, 1], [1, -2, 1])
    # two applications by hand: (z + z^2)/(1-z)^3
    assert li_neg_operator(2) == RF([0, 1, 1], [1, -3, 3, -1])


def test_stirling_route_matches_operator():
    assert li_neg_stirling(0) == RF([0, 1], [1, -1])
    for n in (0, 1, 2, 3, 6, 64, 128):
        assert li_neg_stirling(n) == li_neg_operator(n) == li_neg(n)


def test_chi_ti_closed_forms():
    assert chi_neg(0) == RationalFunction(Polynomial([0, 1]), Polynomial([1, 0, -1]))
    assert chi_neg(2) == RationalFunction(
        Polynomial([0, 1, 0, 6, 0, 1]), Polynomial([1, 0, -1]) ** 3
    )
    assert chi_neg(4) == RationalFunction(
        Polynomial([0, 1, 0, 76, 0, 230, 0, 76, 0, 1]), Polynomial([1, 0, -1]) ** 5
    )
    assert ti_neg(0) == RationalFunction(Polynomial([0, 1]), Polynomial([1, 0, 1]))
    assert ti_neg(1) == RationalFunction(Polynomial([0, 1, 0, -1]), Polynomial([1, 0, 1]) ** 2)
    assert ti_neg(3) == RationalFunction(
        Polynomial([0, 1, 0, -23, 0, 23, 0, -1]), Polynomial([1, 0, 1]) ** 4
    )
    # the skipped gcd: equal to the construction that runs it in full
    for n in (0, 1, 40, 64):
        row = eulerian_b_row(n)
        chi_num = Polynomial([0, 1]) * Polynomial(row).square_arg()
        ti_num = Polynomial([0, 1]) * Polynomial([(-1) ** k * b for k, b in enumerate(row)]).square_arg()
        assert chi_neg(n) == RationalFunction(chi_num, Polynomial([1, 0, -1]) ** (n + 1))
        assert ti_neg(n) == RationalFunction(ti_num, Polynomial([1, 0, 1]) ** (n + 1))


def test_li_closed_form_matches_the_full_gcd_form():
    # the accessor's skipped gcd, against z A_n(z)/(1 - z)^(n+1) with the
    # Eulerian numbers A(n, m) from their explicit sum, canonicalized in full
    def eulerian(n, m):
        return sum((-1) ** j * comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 2))

    for n in (0, 1, 40, 64):
        num = [0, *(eulerian(n, m) for m in range(n))] if n else [0, 1]
        assert li_neg(n) == RationalFunction(Polynomial(num), Polynomial([1, -1]) ** (n + 1))


def test_cold_li_neg_nests_one_level():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    li_neg.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        got = li_neg(64)
    finally:
        sys.setrecursionlimit(limit)
    assert got == li_neg_stirling(64)


def test_chi_from_li_route():
    assert chi_from_li(0) == chi_neg(0)
    for n in [*range(21), 40, 64]:
        assert chi_from_li(n) == chi_neg(n)


def test_ti_gaussian_route():
    for n in [*range(21), 40, 64]:
        assert ti_from_chi(n) == ti_neg(n)


def test_duplication_formula_small():
    for n in range(8):
        f = li_neg(n)
        lhs = f + substitute(f, "negate_z")
        rhs = substitute(f, "square_z") * (2 ** (1 + n))
        assert lhs == rhs


def test_li_numerator_is_z_times_palindrome():
    for n in range(1, 16):
        coeffs, _, _ = powered_parts(li_neg(n))
        assert coeffs[0].is_zero()
        inner = [c.re for c in coeffs[1:]]
        assert len(inner) == n  # degree n-1 polynomial times z
        assert all(c > 0 and c.denominator == 1 for c in inner)
        assert inner == inner[::-1]


def test_series_examples():
    assert li_series_eval(0, 0.5) == pytest.approx(1.0, abs=1e-10)
    # z/(1-z)^2 at 0.5 is 2.0
    assert li_series_eval(-1, 0.5) == pytest.approx(2.0, abs=1e-9)
    z = 0.3 + 0.2j
    want = rf_eval(li_neg(3), z)
    got = li_series_eval(-3, z, tol=1e-13)
    assert abs(got - want) <= 1e-10 * (1 + abs(want))


def test_series_against_closed_forms_on_grid():
    pts = [0.5, -0.62, 0.7, 0.35 + 0.35j, -0.3 + 0.55j, 0.1 - 0.6j]
    for n in range(9):
        f = li_neg(n)
        for z in pts:
            want = rf_eval(f, z)
            got = li_series_eval(-n, z, tol=1e-13)
            assert abs(got - want) <= 1e-9 * (1 + abs(want)), (n, z)


def test_series_domain_and_convergence_errors():
    with pytest.raises(DomainError):
        li_series_eval(0, 1.0)
    with pytest.raises(DomainError):
        li_series_eval(-2, 0.8 + 0.7j)
    with pytest.raises(ValueError):
        li_series_eval(0, 0.5, tol=0.0)
    with pytest.raises(NonConvergenceError):
        li_series_eval(-1, 1 - 1e-9)
