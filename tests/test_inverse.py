"""The twelve inverse-function operator identities and the generic-operand form."""

import math

import pytest

from negpolylog.errors import DomainError
from negpolylog.inverse import registry, verify_generic_operand, verify_identity


def by_name(name):
    matches = [i for i in registry() if i.name == name]
    assert len(matches) == 1
    return matches[0]


def test_registry_inventory():
    idents = registry()
    assert len(idents) == 12
    assert len({i.name for i in idents}) == 12
    assert sum(1 for i in idents if i.side == "chi") == 6
    assert sum(1 for i in idents if i.side == "ti") == 6
    for ident in idents:
        assert len(ident.sample_points) >= 5
        assert ident.rationale


def test_registry_key_records():
    arctanh = by_name("arctanh")
    assert (arctanh.side, arctanh.arg_tag, arctanh.operator_tag) == ("chi", "x", "x d/dx")
    assert arctanh.arg(0.5) == 0.5
    arcsin = by_name("arcsin")
    assert arcsin.side == "ti"
    assert arcsin.arg(0.6) == pytest.approx(0.6 / math.sqrt(1 - 0.36))
    assert arcsin.operator_tag == "(x - x^3) d/dx"
    arccot = by_name("arccot")
    assert arccot.outer_sign == -1
    assert arccot.describe() == "Ti[-n](x) = -(x d/dx)^(n+1) arccot(x)"


def test_hand_checked_base_cases():
    rep = verify_identity(by_name("arctanh"), 0)
    pt = next(p for p in rep.points if p.x == 0.5)
    assert pt.lhs == pytest.approx(2 / 3)  # 0.5 / (1 - 0.25)
    assert pt.rhs == pytest.approx(2 / 3)
    rep = verify_identity(by_name("arctan"), 0)
    pt = next(p for p in rep.points if p.x == 1.0)
    assert pt.lhs == pytest.approx(0.5) and pt.rhs == pytest.approx(0.5)
    rep = verify_identity(by_name("arccot"), 0)
    pt = next(p for p in rep.points if p.x == 1.0)
    assert pt.rhs == pytest.approx(0.5)  # -(x * -1/(1+x^2)) at x = 1


def test_full_sweep():
    for ident in registry():
        for n in range(7):
            rep = verify_identity(ident, n, tol=1e-7)
            assert rep.passed, (ident.name, n, [p.note or p.rel_err for p in rep.points])


def test_arctan_arccot_share_value():
    a = verify_identity(by_name("arctan"), 3)
    b = verify_identity(by_name("arccot"), 3)
    pa = next(p for p in a.points if p.x == 1.0)
    pb = next(p for p in b.points if p.x == 1.0)
    assert pa.lhs == pytest.approx(pb.lhs)
    assert pa.rhs == pytest.approx(pb.rhs)


def test_arccosh_branches_are_consistent():
    upper = by_name("arccosh_upper")
    lower = by_name("arccosh_lower")
    # the lower branch samples are the reciprocals of the upper ones, and the
    # transformed arguments coincide there
    for xu, xl in zip(upper.sample_points, sorted(lower.sample_points, reverse=True)):
        assert xl == pytest.approx(1 / xu)
        assert upper.arg(xu) == pytest.approx(lower.arg(xl))
    for n in range(7):
        assert verify_identity(upper, n).passed
        assert verify_identity(lower, n).passed


def test_arccsch_negative_branch():
    ident = by_name("arccsch")
    negatives = [x for x in ident.sample_points if x < 0]
    assert negatives
    # for x < 0, x*sqrt(1 + x^-2) = -sqrt(1 + x^2)
    for x in negatives:
        assert ident.arg(x) == pytest.approx(-1 / math.sqrt(1 + x * x))
    for n in range(7):
        rep = verify_identity(ident, n)
        assert all(p.ok for p in rep.points if p.x < 0)


def test_generic_operand_hand_values():
    rep = verify_generic_operand("sin", 0, math.pi / 6)
    pt = rep.points[0]
    assert pt.lhs == pytest.approx(0.5)  # Li form of z/(1-z) at z = 1/3
    assert pt.rhs == pytest.approx(0.5)
    rep = verify_generic_operand("cos", 1, math.pi / 3)
    pt = rep.points[0]
    assert pt.lhs == pytest.approx(0.75)
    assert pt.rhs == pytest.approx(0.75)
    rep = verify_generic_operand("sin", 4, 1.0, tol=1e-10)
    assert rep.passed
    # one point: core proves the operator route exactly, for every x
    assert [p.label for p in verify_generic_operand("cos", 3, 1.8).points] == ["closed-form sum"]


def test_generic_operand_sweep():
    for f, xs in (("sin", (0.5, 1.0, 2.0, 4.0, math.pi / 6)), ("cos", (0.4, 1.0, 1.8, 2.5, 3.6))):
        for n in range(9):
            for x in xs:
                rep = verify_generic_operand(f, n, x, tol=1e-9)
                assert rep.passed, (f, n, x, [p.rel_err for p in rep.points])


def test_generic_operand_rejects_divergent_point():
    with pytest.raises(DomainError):
        verify_generic_operand("sin", 2, -math.pi / 2)
    with pytest.raises(ValueError):
        verify_generic_operand("tan", 2, 0.5)
