"""The binomial ladder sum, its chi/Ti restatements and the Leibniz csc route."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negpolylog import ladder
from negpolylog.algebra import (
    I,
    GaussianRational,
    Polynomial,
    RationalFunction,
    rf_eval_exact,
    substitute,
)
from negpolylog.circular import (
    TRIG_GRID,
    csc_derivative_binomial,
    csc_derivative_eval,
    csc_derivative_via_li,
)
from negpolylog.errors import SingularityError
from negpolylog.jets import nth_derivative
from negpolylog.ladder import (
    LadderCoefficients,
    _weighted_sum,
    chi_ladder,
    ladder_coefficients,
    leibniz_csc_route,
    ti_ladder,
    verify_ladder_exact,
    verify_ladder_sec_variant,
)
from negpolylog.polylog import chi_neg, li_neg
from negpolylog.reports import rel_err


def test_coefficient_rows():
    assert ladder_coefficients(0).coefficients == (1,)
    assert ladder_coefficients(1).coefficients == (-1, 2)
    assert ladder_coefficients(2).coefficients == (1, -4, 4)
    assert ladder_coefficients(3).coefficients == (-1, 6, -12, 8)
    assert ladder_coefficients(4).coefficients == (1, -8, 24, -32, 16)
    assert ladder_coefficients(6).coefficients == (1, -12, 60, -160, 240, -192, 64)


def test_coefficient_invariants():
    for n in range(31):
        c = ladder_coefficients(n).coefficients
        assert c[-1] == 2**n
        assert sum(c) == 1  # the alternating binomial sum (2-1)^n
        signs = [(-1) ** (n - k) for k in range(n + 1)]
        assert all((ck > 0) == (s > 0) for ck, s in zip(c, signs))


@given(st.integers(0, 120))
@settings(max_examples=120)
def test_coefficient_sum_is_one(n):
    assert sum(ladder_coefficients(n).coefficients) == 1


def test_main_relation_exact():
    for n in range(65):
        assert verify_ladder_exact(n), n


def test_chi_ti_ladders_exact():
    for n in range(65):
        assert chi_ladder(n), n
        assert ti_ladder(n), n


def _pairwise_sum(n: int, negate: bool) -> RationalFunction:
    """sum_k c_k Li[-k](+-z^2) as canonical pairwise rational-function additions."""
    c = ladder_coefficients(n).coefficients
    acc = RationalFunction.zero()
    for k in range(n + 1):
        f = li_neg(k)
        if negate:
            f = substitute(f, "negate_z")
        acc = acc + substitute(f, "square_z") * c[k]
    return acc


@pytest.mark.parametrize("n", [0, 1, 7, 20, 40])
def test_weighted_sum_matches_pairwise_accumulation(n):
    s = _weighted_sum(n)
    assert substitute(s, "square_z") == _pairwise_sum(n, negate=False)
    assert substitute(substitute(s, "negate_z"), "square_z") == _pairwise_sum(n, negate=True)


def test_weighted_sum_is_built_once_per_order():
    for n in range(65):
        assert _weighted_sum(n) is _weighted_sum(n), n
        assert _weighted_sum(n) == _weighted_sum.__wrapped__(n), n


@pytest.fixture
def uncached_weighted_sum():
    """A planted mutant must reach S_n's construction, and must not leave its S_n cached."""
    _weighted_sum.cache_clear()
    yield
    _weighted_sum.cache_clear()


def test_weighted_sum_rejects_a_broken_denominator_chain(monkeypatch, uncached_weighted_sum):
    def planted(k):  # 1/(1 + 2z), then 1/(1 + 3z): the first does not divide the second
        return RationalFunction(Polynomial([1]), Polynomial([1, k + 2]))

    monkeypatch.setattr(ladder, "li_neg", planted)
    with pytest.raises(ArithmeticError):
        _weighted_sum(1)


def test_perturbed_coefficient_fails_every_exact_ladder(monkeypatch, uncached_weighted_sum):
    exact = ladder.ladder_coefficients

    def perturbed(n):
        c = list(exact(n).coefficients)
        c[n // 2] += 1
        return LadderCoefficients(n, tuple(c))

    monkeypatch.setattr(ladder, "ladder_coefficients", perturbed)
    for n in (0, 3, 12):
        assert not verify_ladder_exact(n), n
        assert not chi_ladder(n), n
        assert not ti_ladder(n), n


def test_main_and_chi_forms_are_mutually_consistent():
    # (z/2) * [Li(z) - Li(-z)] equals z * chi(z) exactly
    half_z = RationalFunction(Polynomial([0, 1]), Polynomial([2]))
    z = RationalFunction(Polynomial([0, 1]), Polynomial([1]))
    for n in range(8):
        f = li_neg(n)
        assert half_z * (f - substitute(f, "negate_z")) == z * chi_neg(n)


def test_ti_zero_order_by_hand():
    # z * Ti0(z) = z^2/(1+z^2) = -Li0(-z^2)
    z = RationalFunction(Polynomial([0, 1]), Polynomial([1]))
    from negpolylog.polylog import ti_neg

    lhs = z * ti_neg(0)
    assert lhs == RationalFunction(Polynomial([0, 0, 1]), Polynomial([1, 0, 1]))


def test_sec_variant():
    # an equality of canonical forms, so it holds at every z
    for n in range(65):
        assert verify_ladder_sec_variant(n), n


def test_leibniz_route_examples():
    assert leibniz_csc_route(0, math.pi / 2) == pytest.approx(1.0)
    assert rel_err(leibniz_csc_route(2, 0.9), csc_derivative_eval(2, 0.9)) < 1e-8
    assert rel_err(leibniz_csc_route(7, 1.7), nth_derivative("csc", 1.7, 7)) < 1e-7
    with pytest.raises(SingularityError):
        leibniz_csc_route(1, math.pi)


def test_leibniz_route_agrees_with_all_csc_routes():
    for n in range(11):
        for x in TRIG_GRID:
            got = leibniz_csc_route(n, x)
            for other in (csc_derivative_eval, csc_derivative_via_li, csc_derivative_binomial):
                assert rel_err(got, other(n, x)) < 1e-7, (other.__name__, n, x)


def test_leibniz_sum_is_the_exact_weighted_sum_rounded_once():
    # the route's formula 2 i^(n-1) w^-1 sum_k c_k Li[-k](w^2), exact at w = (1 + it)/(1 - it)
    # for the double t = tan(x/2): real, and rounded once it is the route's value bit for bit
    for n in range(11):
        c = ladder_coefficients(n).coefficients
        s = _weighted_sum(n)
        for x in TRIG_GRID:
            t = GaussianRational(math.tan(x / 2))
            w = (1 + I * t) / (1 - I * t)
            want = sum((ck * rf_eval_exact(li_neg(k), w * w) for k, ck in enumerate(c)), GaussianRational(0))
            assert rf_eval_exact(s, w * w) == want, (n, x)
            exact = 2 * I ** (n - 1) * w**-1 * want
            assert exact.im == 0, (n, x)
            got = leibniz_csc_route(n, x)
            assert got == float(exact.re) and repr(got) == repr(float(exact.re)), (n, x)

