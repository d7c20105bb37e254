"""Closed-form construction routes, their exact agreement, and their defining series."""

import sys
from fractions import Fraction
from math import comb, lcm

import pytest

from negpolylog import polylog
from negpolylog.algebra import (
    I,
    Polynomial,
    RationalFunction,
    powered_parts,
    rf_eval,
    substitute,
)
from negpolylog.combinatorics import eulerian_b_row, eulerian_row
from negpolylog.polylog import (
    chi_from_li,
    chi_neg,
    defining_series_agree,
    li_neg,
    li_neg_operator,
    li_neg_stirling,
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
    eulerian_row.cache_clear()
    polylog._row_form.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        got = li_neg(64)
    finally:
        sys.setrecursionlimit(limit)
    assert got == li_neg_stirling(64)


def test_chi_ti_inversion():
    # chi(1/z) = (-1)^(n+1) chi(z) and Ti(1/z) = (-1)^n Ti(z): the type-B row is a palindrome
    for n in range(65):
        assert eulerian_b_row(n) == eulerian_b_row(n)[::-1]
        assert substitute(chi_neg(n), "invert_z") == chi_neg(n) * (-1) ** (n + 1)
        assert substitute(ti_neg(n), "invert_z") == ti_neg(n) * (-1) ** n
        if n:  # and Li(1/z) = (-1)^(n+1) Li(z), by the palindromic Eulerian row
            assert substitute(li_neg(n), "invert_z") == li_neg(n) * (-1) ** (n + 1)
    # the reversal skips the gcd: equal to the form canonicalized in full
    for n in (0, 5, 40):
        for f in (chi_neg(n), ti_neg(n)):
            num, den = ([*reversed([*p.coeffs, *[0] * (2 * n + 2 - p.degree)])] for p in (f.num, f.den))
            assert substitute(f, "invert_z") == RationalFunction(Polynomial(num), Polynomial(den))


def test_chi_from_li_route():
    for n in range(65):
        assert chi_from_li(n) == chi_neg(n), n


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


def test_defining_series_examples(monkeypatch):
    # z/(1-z)^2 = sum k z^k, with B = (1-z)^2 of degree 2; a wrong series or a wrong form fails
    assert polylog._equals_series(RF([0, 1], [1, -2, 1]), lambda k: k, 2)
    assert not polylog._equals_series(RF([0, 1], [1, -2, 1]), lambda k: k * k, 2)
    assert not polylog._equals_series(RF([0, 1, 1], [1, -2, 1]), lambda k: k, 2)
    # planted wrong forms: one numerator coefficient off by 1 or by i, the denominator times 1 + z
    for name in ("li_neg", "chi_neg", "ti_neg"):
        good = getattr(polylog, name)(5)
        coeffs = list(good.num.coeffs)
        for bump in (1, I):
            coeffs[3] += bump
            wrong = RationalFunction(Polynomial(coeffs), good.den)
            coeffs[3] -= bump
            monkeypatch.setattr(polylog, name, lambda n, wrong=wrong: wrong)
            assert not defining_series_agree(5), (name, bump)
        wrong = RationalFunction(good.num, good.den * Polynomial([1, 1]))
        monkeypatch.setattr(polylog, name, lambda n, wrong=wrong: wrong)
        assert not defining_series_agree(5), name
        monkeypatch.undo()
    assert defining_series_agree(5)


def null_space(rows, width):
    """A basis of the rational null space of an integer matrix, by exact Gauss-Jordan elimination."""
    rows, pivots = [[Fraction(x) for x in r] for r in rows], []
    for c in range(width):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        rows[k] = [x / rows[k][c] for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[k])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -rows[k][free]
        basis.append(v)
    return basis


@pytest.mark.parametrize("name, coeff, lowered", [
    ("chi_neg", lambda k: k % 2 * k ** 3, 2 * 3 - 2),
    ("ti_neg", lambda k: k % 2 * (-1) ** (k // 2) * k ** 3, 3 + 4),
])
def test_a_form_that_fools_a_lowered_series_bound_is_refused(monkeypatch, name, coeff, lowered):
    # at n = 3 the bound is d = 2n + 2 = 8, the degree of B = (1 -+ z^2)^4.  Forms p/q with deg p,
    # deg q <= 8 that agree with the series through z^(8 + lowered) solve 9 + lowered linear
    # conditions in 18 unknowns; the multiples of the true pair span one dimension of that null
    # space and, as lowered < 8, it has more.  Any other vector is a wrong form that the lowered
    # bound passes and the proof's bound refuses.
    n, d = 3, 8
    good = getattr(polylog, name)(n)
    rows = [[-(i == j) for i in range(d + 1)] + [coeff(j - i) if i <= j else 0 for i in range(d + 1)]
            for j in range(d + lowered + 1)]
    forms = []
    for v in null_space(rows, 2 * d + 2):
        scale = lcm(*(x.denominator for x in v))
        v = [int(x * scale) for x in v]
        forms.append(RationalFunction(Polynomial(v[:d + 1]), Polynomial(v[d + 1:])))
    wrong = next(f for f in forms if f != good)
    assert polylog._equals_series(wrong, coeff, lowered)
    assert not polylog._equals_series(wrong, coeff, 2 * n + 2)
    monkeypatch.setattr(polylog, name, lambda n: wrong)
    assert defining_series_agree(n) is False


def test_closed_forms_equal_their_defining_series():
    assert all(defining_series_agree(n) for n in range(65))
    with pytest.raises(ValueError):
        defining_series_agree(-1)
