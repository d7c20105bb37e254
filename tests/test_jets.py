"""Jet arithmetic and the differentiation oracle built on it."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negpolylog import jets
from negpolylog.circular import TRIG_GRID
from negpolylog.errors import DomainError, NegPolylogError, OrderExhaustedError, SingularityError
from negpolylog.hyperbolic import HYP_GRID
from negpolylog.inverse import registry
from negpolylog.jets import (
    FUNCTION_IDS,
    SINGULARITY_GUARD,
    Jet,
    apply_operator_power,
    jet_lift,
    laurent_jet,
    nth_derivative,
    require_clear,
)
from negpolylog.reports import rel_err


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_arctanh_jet_is_odd_series():
    j = jet_lift("arctanh", 0.0, 3)
    want = [0.0, 1.0, 0.0, 1 / 3]
    assert all(abs(a - b) < 1e-15 for a, b in zip(j.coeffs, want))


def test_cot_jet_at_half_pi():
    j = jet_lift("cot", math.pi / 2, 2)
    want = [0.0, -1.0, 0.0]
    assert all(abs(a - b) < 1e-12 for a, b in zip(j.coeffs, want))


def test_nth_derivative_basics():
    assert nth_derivative("sin", 0.0, 1) == pytest.approx(1.0)
    assert nth_derivative("tan", 0.0, 3) == pytest.approx(2.0)


_RECIPROCAL_ARGUMENT_CASES = (
    ("arccsc", 2.3, lambda x: math.asin(1 / x)),
    ("arcsec", -1.7, lambda x: math.acos(1 / x)),
    ("arccsch", 0.8, lambda x: math.asinh(1 / x)),
    ("arccsch", -1.9, lambda x: math.asinh(1 / x)),
    ("arcsech", 0.6, lambda x: math.acosh(1 / x)),
)


def test_reciprocal_argument_functions_against_finite_differences():
    for fn, x0, ref in _RECIPROCAL_ARGUMENT_CASES:
        assert jet_lift(fn, x0, 0).value == pytest.approx(ref(x0), rel=1e-14)
        got = nth_derivative(fn, x0, 1)
        assert got == pytest.approx(central_diff(ref, x0), rel=1e-7), (fn, x0)


@given(st.floats(-3.0, 3.0))
@settings(max_examples=150)
def test_sin_squared_plus_cos_squared_is_one(x0):
    s = jet_lift("sin", x0, 8)
    c = jet_lift("cos", x0, 8)
    total = s * s + c * c
    assert abs(total.coeffs[0] - 1.0) < 1e-12
    assert all(abs(cf) < 1e-12 for cf in total.coeffs[1:])


def test_apply_operator_power_examples():
    x_coef = laurent_jet({1: 1.0})
    # x * arctanh'(x) at 0.5 = 0.5 / 0.75 = 2/3
    assert apply_operator_power(x_coef, "arctanh", 1, 0.5) == pytest.approx(2 / 3)
    # zeroth power is the identity
    assert apply_operator_power(x_coef, "cos", 0, 1.1) == pytest.approx(math.cos(1.1))
    # x * arctan'(x) at 1 = 1/2
    assert apply_operator_power(x_coef, "arctan", 1, 1.0) == pytest.approx(0.5)


def test_operator_power_bits_are_pinned():
    # Every operator round differentiates first, so the libm constant term of a lift (math.atan,
    # math.asin, ...) never reaches the value. What does reach it is +, -, *, / and sqrt, each
    # correctly rounded, so these bits hold on every platform and through any change of the jet
    # code that keeps each operation and its order.
    lines = [f"{ident.name} {n} {x!r} {apply_operator_power(ident.coefficient, ident.target, n + 1, x)!r}"
             for ident in registry() for n in range(11) for x in ident.sample_points]
    assert len(lines) == 660
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "07a6eb75585a76152ba9c94d4c6d7d378c1c1dc034b08402618bc72a8fafdd9b"


def test_every_jet_holds_floats_only():
    # internal results skip the public constructor's conversion, so no int or Fraction may get in
    lifted = []
    for fn in sorted(FUNCTION_IDS):
        for x in TRIG_GRID:
            try:
                lifted += [jet_lift(fn, x, order) for order in range(7)]
            except NegPolylogError:  # x off fn's domain
                pass
    assert {j.x0 for j in lifted} == set(TRIG_GRID) and len(lifted) > 7 * len(FUNCTION_IDS)
    public = [Jet(1, [1, 2]), Jet.constant(1, 0, 2), Jet.identity(1, 2), Jet(0.5, [1.0]).integrate(0)]
    for j in lifted + public:
        assert type(j.x0) is float and all(type(c) is float for c in j.coeffs), j


def test_operator_power_on_arctanh_collapses():
    # (1 - x^2) arctanh'(x) = 1, so the first power is 1 and the second 0
    a = laurent_jet({0: 1.0, 2: -1.0})
    for x0 in (-0.7, 0.1, 0.5):
        assert apply_operator_power(a, "arctanh", 1, x0) == pytest.approx(1.0, abs=1e-13)
        assert apply_operator_power(a, "arctanh", 2, x0) == pytest.approx(0.0, abs=1e-12)


def test_order_accounting():
    j = jet_lift("sin", 0.3, 3)
    for _ in range(3):
        j = j.differentiate()
    assert j.order == 0
    assert j.value == pytest.approx(-math.cos(0.3))
    with pytest.raises(OrderExhaustedError):
        j.differentiate()
    with pytest.raises(OrderExhaustedError):
        jet_lift("sin", 0.3, 2).derivative_value(3)


def test_domain_and_singularity_errors():
    with pytest.raises(DomainError):
        jet_lift("arccosh", 0.5, 2)
    with pytest.raises(DomainError):
        jet_lift("arctanh", 1.5, 2)
    with pytest.raises(SingularityError):
        jet_lift("arctanh", 1.0 + 1e-7, 2)
    with pytest.raises(SingularityError):
        jet_lift("tan", math.pi / 2 + 1e-8, 2)
    with pytest.raises(SingularityError):
        jet_lift("csch", 1e-8, 2)
    for fn in ("gamma", "exp"):
        with pytest.raises(ValueError, match="unknown function id"):
            jet_lift(fn, 0.0, 1)


# (fn, n, x): the cancelling points of the sinh/cosh quotient jets, then a spread of n and x
_HYPERBOLIC_PRECISION_POINTS = (
    ("tanh", 1, 20.0), ("csch", 10, 20.0), ("csch", 20, 40.0), ("csch", 30, 30.0),
    ("csch", 64, 20.0),
    *((fn, n, x) for fn in ("tanh", "coth") for n in (1, 2, 5, 10, 20) for x in (20.0, -20.0)),
    *((fn, n, x) for fn in ("tanh", "coth", "sech", "csch") for n, x in (
        (0, 1e-6 * 1.01), (2, 1e-3), (5, 0.5), (10, -2.0), (20, 5.0), (30, -10.0), (64, 40.0))),
)


@pytest.mark.parametrize("fn, n, x", _HYPERBOLIC_PRECISION_POINTS)
def test_hyperbolic_jets_hold_their_precision_at_large_x(fn, n, x):
    # tanh, sech, coth and csch are lifted from their first-order systems,
    # not divided out of sinh and cosh jets, so no cancellation grows with |x|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        want = mpmath.diff(getattr(mpmath, fn), mpmath.mpf(x), n)
        assert abs(nth_derivative(fn, x, n) - want) <= 1e-13 * abs(want), (fn, n, x)


def test_hyperbolic_jets_beyond_double_range():
    assert repr(nth_derivative("csch", 800.0, 3)) == "-0.0"
    for fn in ("tanh", "sech", "coth", "csch"):
        for x in (800.0, -800.0, 1e4, -1e4):
            assert nth_derivative(fn, x, 5) == 0.0, (fn, x)
            assert abs(nth_derivative(fn, x, 0)) == (1.0 if fn in ("tanh", "coth") else 0.0)
    # order 64 at the guard radius: the value overflows to an infinity of the right sign
    assert nth_derivative("csch", 1.01e-6, 64) == math.inf
    assert nth_derivative("coth", -1.01e-6, 64) == -math.inf


@pytest.mark.parametrize("fn, x", [
    ("arcsec", 1e80), ("arccsc", 1.2e77), ("arccsch", -1.2e77),  # x^4 overflows
    ("arcsinh", 1e200), ("arccosh", 1.4e154),  # x^2 overflows
])
def test_square_root_inverse_lifts_refuse_an_overflowed_radicand(fn, x):
    # 1/sqrt(inf) would read a true derivative near 1/x^2 or 1/|x| as 0.0
    with pytest.raises(DomainError, match="beyond double range"):
        nth_derivative(fn, x, 1)


def test_square_root_inverse_lifts_below_the_overflow_keep_their_value():
    assert nth_derivative("arcsec", 1e70, 1) == pytest.approx(1e-140, rel=1e-15)
    assert nth_derivative("arcsinh", 1e150, 1) == pytest.approx(1e-150, rel=1e-15)
    # a rational row keeps its 0: 1/Q lies below the normal range once Q overflows
    assert nth_derivative("arctan", 1e200, 1) == 0.0


def test_laurent_jet_negative_powers():
    a = laurent_jet({1: -1.0, -1: -1.0})  # -(x + 1/x)
    j = a(2.0, 4)
    assert j.value == pytest.approx(-2.5)
    # derivative of -(x + 1/x) is -(1 - 1/x^2)
    assert j.coeffs[1] == pytest.approx(-(1 - 0.25))
    # a constant term: 2 + x at 0.5
    assert laurent_jet({0: 2.0, 1: 1.0})(0.5, 3).coeffs == (2.5, 1.0, 0.0, 0.0)


def test_function_id_inventory():
    assert "arcsech" in FUNCTION_IDS and "sin" in FUNCTION_IDS
    assert FUNCTION_IDS.isdisjoint({"exp", "sinh", "cosh", "log"})
    assert len(FUNCTION_IDS) == 22


# Reference copies of what the oracle collapsed: the reciprocal's own Cauchy
# loop, the if/elif domain chain, and the reciprocal-argument lifts composed
# as outer(1/x).
def _reciprocal_loop(self):
    b = self.coeffs
    if b[0] == 0.0:
        raise ZeroDivisionError("reciprocal of a jet with zero value")
    n = len(b)
    out = [0.0] * n
    out[0] = 1.0 / b[0]
    for k in range(1, n):
        s = 0.0
        for j in range(k):
            s += out[j] * b[k - j]
        out[k] = -s / b[0]
    return Jet(self.x0, out)


def _check_point_chain(fn, x0):
    if fn in ("tan", "sec"):
        require_clear(fn, x0, math.pi / 2, period=math.pi)
    elif fn in ("cot", "csc"):
        require_clear(fn, x0, 0.0, period=math.pi)
    elif fn in ("coth", "csch", "arccsch"):
        require_clear(fn, x0, 0.0)
    elif fn in ("arctanh", "arcsin", "arccos"):
        require_clear(fn, x0, 1.0, -1.0)
        if abs(x0) >= 1:
            raise DomainError(f"{fn} needs |x0| < 1, got {x0}")
    elif fn == "arccoth":
        require_clear(fn, x0, 1.0, -1.0)
        if abs(x0) <= 1:
            raise DomainError(f"arccoth needs |x0| > 1, got {x0}")
    elif fn == "arccosh":
        require_clear(fn, x0, 1.0)
        if x0 < 1:
            raise DomainError(f"arccosh needs x0 >= 1, got {x0}")
    elif fn in ("arccsc", "arcsec"):
        require_clear(fn, x0, 1.0, -1.0)
        if abs(x0) <= 1:
            raise DomainError(f"{fn} needs |x0| > 1, got {x0}")
    elif fn == "arcsech":
        require_clear(fn, x0, 0.0, 1.0)
        if not 0 < x0 <= 1:
            raise DomainError(f"arcsech needs 0 < x0 <= 1, got {x0}")


def _outer_of_reciprocal(outer, x0, order):
    f = jet_lift(outer, 1.0 / x0, order)
    d = Jet.identity(x0, order).reciprocal() - f.x0
    acc = Jet.constant(f.coeffs[order], x0, order)
    for c in reversed(f.coeffs[:order]):
        acc = acc * d + c
    return acc


def test_reciprocal_argument_lifts_match_the_composition_they_replaced():
    # arccsc, arcsec, arccsch and arcsech integrate -+1/sqrt(x^4 -+ x^2) and -1/sqrt(x^2 - x^4)
    # instead of composing arcsin, arccos, arcsinh and arccosh with 1/x.  Through order 12 the
    # worst relative difference of a coefficient is 1.7e-12 (arcsech at x = 0.5, order 12), under
    # the bound 1e-11; past coefficient 0, which both read from the same libm call, each step is
    # +, -, *, / or sqrt, so the bound holds on every platform.
    composed = {"arccsc": "arcsin", "arcsec": "arccos", "arccsch": "arcsinh", "arcsech": "arccosh"}
    compared = 0
    for fn, outer in composed.items():
        points = [x for r in registry() if r.target == fn for x in r.sample_points]
        points += [x for f, x, _ in _RECIPROCAL_ARGUMENT_CASES if f == fn]
        for x0 in points:
            got, want = jet_lift(fn, x0, 12).coeffs, _outer_of_reciprocal(outer, x0, 12).coeffs
            assert got[0] == want[0], (fn, x0)
            assert max(map(rel_err, got, want)) <= 1e-11, (fn, x0)
            compared += 1
    assert compared == 4 * 5 + len(_RECIPROCAL_ARGUMENT_CASES)


def _use_reference_copies(monkeypatch):
    monkeypatch.setattr(Jet, "reciprocal", _reciprocal_loop)
    monkeypatch.setattr(jets, "check_point", _check_point_chain)


def _lift_outcome(fn, x0, order):
    try:
        return [repr(c) for c in jet_lift(fn, x0, order).coeffs]
    except NegPolylogError as exc:
        return type(exc), str(exc)


def test_collapsed_oracle_matches_the_code_it_replaced(monkeypatch):
    points = sorted({*TRIG_GRID, *HYP_GRID, *(x for r in registry() for x in r.sample_points)})
    cases = [(fn, x, order) for fn in sorted(FUNCTION_IDS) for x in points for order in range(13)]
    now = [_lift_outcome(*case) for case in cases]
    with monkeypatch.context() as m:
        _use_reference_copies(m)
        before = [_lift_outcome(*case) for case in cases]
        sec_zero = nth_derivative("sec", 0.0, 1)
    assert len(FUNCTION_IDS) == 22
    assert any(isinstance(o, tuple) for o in now) and any(isinstance(o, list) for o in now)
    assert [type(a) for a in now] == [type(b) for b in before]
    signed_zeros = set()
    for (fn, x, order), a, b in zip(cases, now, before):
        if isinstance(a, tuple):
            assert a == b, (fn, x, order)
            continue
        assert [float(c) for c in a] == [float(c) for c in b], (fn, x, order)
        signed_zeros |= {(fn, x, k, c) for k, (c, d) in enumerate(zip(a, b)) if c != d}
    # The only differences: an exact-zero coefficient whose sign flips, because
    # the division loop computes (0 - s) / b0 where the reciprocal loop had -s / b0.
    assert signed_zeros == {(fn, 1.0, k, c) for fn, c in (("arctan", "0.0"), ("arccot", "-0.0"))
                            for k in (4, 8, 12)}
    assert (repr(nth_derivative("sec", 0.0, 1)), repr(sec_zero)) == ("0.0", "-0.0")
    with pytest.raises(ZeroDivisionError):
        Jet.constant(0.0, 1.0, 3).reciprocal()


def _check_outcome(check, fn, x0):
    try:
        check(fn, x0)
    except NegPolylogError as exc:
        return type(exc), str(exc)
    return None


def test_domain_table_raises_as_the_chain_did():
    edges = (-1.0, 0.0, 1.0)
    for fn in sorted(FUNCTION_IDS):
        poles, _, outside, _ = jets._DOMAINS.get(fn, ((), None, None, ""))
        kinds = set()
        for base in {*edges, *(p + shift for p in poles for shift in (0.0, math.pi, -math.pi))}:
            for offset in (0.0, 0.5, -0.5, 2.0, -2.0):
                x0 = base + offset * SINGULARITY_GUARD
                want = _check_outcome(_check_point_chain, fn, x0)
                assert _check_outcome(jets.check_point, fn, x0) == want, (fn, x0)
                kinds.add(want and want[0])
        assert (SingularityError in kinds) == bool(poles), fn
        assert (DomainError in kinds) == (outside is not None), fn
