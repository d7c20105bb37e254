"""Jet arithmetic and the differentiation oracle built on it."""

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


def central_diff(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2 * h)


def test_exp_jet_coefficients():
    j = jet_lift("exp", 0.0, 5)
    want = [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120]
    assert all(abs(a - b) < 1e-15 for a, b in zip(j.coeffs, want))


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
    for x0 in (-1.0, 0.3, 2.0):
        for n in range(13):
            got = nth_derivative("exp", x0, n)
            assert abs(got - math.exp(x0)) <= 1e-10 * math.exp(x0), (x0, n)


def test_reciprocal_argument_functions_against_finite_differences():
    cases = [
        ("arccsc", 2.3, lambda x: math.asin(1 / x)),
        ("arcsec", -1.7, lambda x: math.acos(1 / x)),
        ("arccsch", 0.8, lambda x: math.asinh(1 / x)),
        ("arccsch", -1.9, lambda x: math.asinh(1 / x)),
        ("arcsech", 0.6, lambda x: math.acosh(1 / x)),
    ]
    for fn, x0, ref in cases:
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


def test_operator_power_on_log_collapses():
    x_coef = laurent_jet({1: 1.0})
    for x0 in (0.5, 1.7, 3.0):
        assert apply_operator_power(x_coef, "log", 1, x0) == pytest.approx(1.0, abs=1e-13)
        assert apply_operator_power(x_coef, "log", 2, x0) == pytest.approx(0.0, abs=1e-12)


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
    with pytest.raises(DomainError):
        jet_lift("log", -1.0, 2)
    with pytest.raises(SingularityError):
        jet_lift("csch", 1e-8, 2)
    with pytest.raises(ValueError):
        jet_lift("gamma", 1.0, 2)


def test_laurent_jet_negative_powers():
    a = laurent_jet({1: -1.0, -1: -1.0})  # -(x + 1/x)
    j = a(2.0, 4)
    assert j.value == pytest.approx(-2.5)
    # derivative of -(x + 1/x) is -(1 - 1/x^2)
    assert j.coeffs[1] == pytest.approx(-(1 - 0.25))
    # a constant term: 2 + x at 0.5
    assert laurent_jet({0: 2.0, 1: 1.0})(0.5, 3).coeffs == (2.5, 1.0, 0.0, 0.0)


def test_function_id_inventory():
    assert "arcsech" in FUNCTION_IDS and "log" in FUNCTION_IDS
    assert len(FUNCTION_IDS) == 26


# Reference copies of what the oracle collapsed: the reciprocal's own Cauchy
# loop, the hand-written exp/sinh/cosh builders and the if/elif domain chain.
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


def _exp_builder(x0, n):
    e = math.exp(x0)
    return Jet(x0, [e / math.factorial(k) for k in range(n + 1)])


def _sinh_builder(x0, n):
    s, c = math.sinh(x0), math.cosh(x0)
    return Jet(x0, [(s if k % 2 == 0 else c) / math.factorial(k) for k in range(n + 1)])


def _cosh_builder(x0, n):
    s, c = math.sinh(x0), math.cosh(x0)
    return Jet(x0, [(c if k % 2 == 0 else s) / math.factorial(k) for k in range(n + 1)])


def _check_point_chain(fn, x0):
    if fn in ("tan", "sec"):
        require_clear(fn, x0, math.pi / 2, period=math.pi)
    elif fn in ("cot", "csc"):
        require_clear(fn, x0, 0.0, period=math.pi)
    elif fn in ("coth", "csch", "arccsch"):
        require_clear(fn, x0, 0.0)
    elif fn == "log":
        require_clear(fn, x0, 0.0)
        if x0 <= 0:
            raise DomainError(f"log needs x0 > 0, got {x0}")
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


def _use_reference_copies(monkeypatch):
    monkeypatch.setattr(Jet, "reciprocal", _reciprocal_loop)
    monkeypatch.setattr(jets, "check_point", _check_point_chain)
    for fn, build in (("exp", _exp_builder), ("sinh", _sinh_builder), ("cosh", _cosh_builder)):
        monkeypatch.setattr(jets, f"_build_{fn}", build)
        monkeypatch.setitem(jets._BUILDERS, fn, build)


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
        sech_zero = nth_derivative("sech", 0.0, 1)
    assert len(FUNCTION_IDS) == 26
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
    assert (repr(nth_derivative("sech", 0.0, 1)), repr(sech_zero)) == ("0.0", "-0.0")
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
