"""Polynomial / rational-function layer: exact arithmetic, canonical form,
argument transforms, and evaluation."""

import ast
import functools
import hashlib
import itertools
import json
import math
import operator
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import negpolylog
from negpolylog import algebra
from negpolylog.algebra import (
    GaussianRational,
    I,
    Polynomial,
    RationalFunction,
    odd_part,
    poly_exact_div,
    poly_gcd,
    poly_text,
    rf_eval,
    rf_eval_exact,
    rf_from_json,
    rf_to_json,
    rf_to_latex,
    rf_to_text,
    substitute,
    z_ddz,
)
from negpolylog.circular import cot_derivative_poly
from negpolylog.errors import DomainError, PoleError
from negpolylog.hyperbolic import li_relation_coth, li_relation_tanh
from negpolylog.inverse import verify_generic_operand
from negpolylog.jets import apply_operator_power, jet_lift, laurent_jet, nth_derivative
from negpolylog.polylog import chi_neg, li_neg, li_neg_stirling, ti_neg


def P(*coeffs):
    return Polynomial(coeffs)


def RF(num, den):
    return RationalFunction(Polynomial(num), Polynomial(den))


small_ints = st.integers(-5, 5)
polys = st.lists(small_ints, min_size=0, max_size=5).map(Polynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
rationals = st.builds(RationalFunction, polys, nonzero_polys)
gauss_ints = st.builds(GaussianRational, small_ints, small_ints)
gauss_polys = st.lists(gauss_ints, min_size=1, max_size=4).map(Polynomial).filter(lambda p: not p.is_zero())
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gauss_points = st.builds(GaussianRational, small_fractions, small_fractions)
# nonzero Gaussian rationals with a denominator to clear
fractional_scalars = gauss_points.filter(lambda s: not s.is_zero() and not s.is_integer())


def split_scalar(s):
    """(g, d) with s = g/d, g a Gaussian integer and d the lcm of the denominators of s's parts."""
    s = s if isinstance(s, GaussianRational) else GaussianRational(s)
    d = math.lcm(s.re.denominator, s.im.denominator)
    return s * d, d


# -- polynomial arithmetic -------------------------------------------------


def test_poly_basics():
    assert P(0, 0, 1).derivative() == P(0, 2)  # d/dz z^2 = 2z
    assert P(1, -1) * P(1, 1) == P(1, 0, -1)  # (1-z)(1+z) = 1-z^2
    assert P(0, 1, 0, 1) + P(0, 0, 0, -1) == P(0, 1)  # (z+z^3) + (-z^3) = z
    # exact scalars on either side scale every coefficient
    assert P(1, 2) * 3 == 3 * P(1, 2) == P(3, 6)
    assert Fraction(4, 2) * P(1, 2) == P(2, 4)
    assert P(1, 1) * I == I * P(1, 1) == P(I, I)
    assert P(1, 1) * 0 == Polynomial.zero()


@pytest.mark.parametrize("bad", [
    math.inf, -math.inf, math.nan, 1j, 0.5, 2.5, Fraction(1, 3), GaussianRational(Fraction(1, 2)),
    GaussianRational(Fraction(1, 2), Fraction(1, 2)),
], ids=repr)
@pytest.mark.parametrize("call", [
    pytest.param(lambda c: Polynomial([c]), id="constructor"),
    pytest.param(lambda c: P(1, 2).scale(c), id="scale"),
])
def test_every_bad_coefficient_raises_value_error(call, bad):
    with pytest.raises(ValueError):
        call(bad)


def test_coefficients_and_scalars_are_gaussian_integers():
    assert P(Fraction(4, 2), 2.0, GaussianRational(3, -1)) == P(2, 2, GaussianRational(3, -1))
    for c in (Fraction(4, 2), 2.0):
        assert P(1, 2).scale(c) == P(2, 4)
    assert P(1, 2).scale(GaussianRational(3, -1)) == P(GaussianRational(3, -1), GaussianRational(6, -2))
    with pytest.raises(ArithmeticError):
        poly_exact_div(P(1, 1), P(2, 2))
    assert poly_exact_div(P(2, 2), P(2)) == P(1, 1)


def test_rational_scalars_and_json_meet_only_the_rational_function():
    # canonical coefficient tuples (num.re, num.im, den.re, den.im), pinned from the earlier
    # storage that gave every polynomial a rational denominator
    def parts(g):
        return g.num.re, g.num.im, g.den.re, g.den.im

    f = RationalFunction(P(GaussianRational(1, 2), 3, I), P(4, 0, GaussianRational(2, -2)))
    assert parts(f) == ((-2, 0, -1), (1, 3, 0), (0, 0, 2), (4, 0, 2))
    half = ((-2, 0, -1), (1, 3, 0), (0, 0, 4), (8, 0, 4))
    assert parts(RationalFunction.constant(Fraction(5, 7))) == ((5,), (0,), (7,), (0,))
    assert parts(f * Fraction(1, 2)) == parts(Fraction(1, 2) * f) == half
    assert parts(f / GaussianRational(1, 1)) == ((1, 3, 0), (2, 0, 1), (4, 0, 4), (4, 0, 0))
    blob = {"num": ["1/2", "0", "-3/4+1/6i"], "den": ["2/3", "1/5i"]}
    assert parts(rf_from_json(blob)) == ((0, 0, 10), (-30, 0, 45), (0, 12), (-40, 0))


UNITS = (GaussianRational(1), GaussianRational(-1), I, -I)


@given(gauss_polys, gauss_polys, st.sampled_from(UNITS + (GaussianRational(2), GaussianRational(1, 1))))
@settings(max_examples=150)
def test_exact_division_by_unit_and_non_unit_leads(q, body, lead):
    b = Polynomial(body.coeffs + (lead,))
    a = q * b
    got = poly_exact_div(a, b)
    assert got == q
    assert all(type(x) is int for x in got.re + got.im)
    # a non-unit lead divides each quotient coefficient exactly
    assert poly_exact_div(a.scale(3), b.scale(3)) == got
    assert poly_exact_div(a.scale(GaussianRational(1, 1)), b.scale(GaussianRational(1, 1))) == got
    assert poly_exact_div(a.scale(3), b) == q.scale(3)
    # a divisor with a content that does not divide the quotient leaves no Gaussian-integer one
    if any(x % 3 for x in q.re + q.im):
        with pytest.raises(ArithmeticError):
            poly_exact_div(a, b.scale(3))
    with pytest.raises(ArithmeticError):
        poly_exact_div(a + Polynomial.one(), b)


def _gauss_poly(pairs):
    return Polynomial([GaussianRational(x, y) for x, y in pairs])


def _re_im(p):
    return p.re, p.im


def _schoolbook(a, b):
    """Reference product of two lists of (re, im) integer pairs."""
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (x, y) in enumerate(a):
        for j, (u, v) in enumerate(b):
            r, s = out[i + j]
            out[i + j] = (r + x * u - y * v, s + x * v + y * u)
    return out


# powers of two and their neighbours put the slot maxima next to a byte boundary
_edges = st.sampled_from(
    [s * (2**k + d) for k in (6, 7, 8, 14, 15, 16, 30, 31, 62, 63, 64, 299, 300)
     for d in (-1, 0) for s in (1, -1)]
)
_parts = st.one_of(st.just(0), st.integers(-5, 5), st.integers(-(2**300), 2**300), _edges)
_vectors = st.lists(st.tuples(_parts, _parts), min_size=1, max_size=30)


@given(_vectors, _vectors, st.booleans(), st.booleans())
@settings(max_examples=300)
# Gaussian slots reach 2 * max|a| * max|b| * min(len) with that bound 63 bits long:
# one bit less of slot width than bitlen + 2 overflows them
@example([(2**30 - 1, 2**30 - 1)] * 8, [(2**30 - 1, -(2**30 - 1))] * 8, False, False)
@example([(2**30 - 1, 2**30 - 1)] * 10, [(2**29 - 1, -(2**29 - 1))] * 10, False, False)
@example([(-(2**62), 0)] * 12, [(-(2**62), 0)] * 3, True, True)
def test_packed_product_matches_schoolbook(a, b, a_real, b_real):
    a = [(x, 0) for x, _ in a] if a_real else a
    b = [(x, 0) for x, _ in b] if b_real else b
    assume(any(x or y for x, y in a) and any(x or y for x, y in b))  # zero never reaches a product
    want = _schoolbook(a, b)
    # the parts as drawn, trailing zeros kept, for the rows, the one-pair packed sum and their
    # dispatcher
    pair = (tuple(zip(*a)), tuple(zip(*b)))
    re, im = [0] * len(want), [0] * len(want)
    algebra._rows(re, im, *pair)
    assert list(zip(re, im)) == want
    for product in (algebra._kronecker, algebra._products):
        re, im = product([pair])
        assert list(zip(re, im)) == want, product.__name__
    assert _gauss_poly(a) * _gauss_poly(b) == _gauss_poly(want)


# the zero polynomial, or a vector whose parts are all real
_operands = st.one_of(st.just([]), _vectors, _vectors.map(lambda v: [(x, 0) for x, _ in v]))
# 16 coefficients of M = 2**29 - 1 and of K: the first pair's bound 16 M**2 is 62 bits long, so
# its slot width alone is 8 bytes; the second pair's term makes the sum 63 (Gaussian, K = 2**15)
# or 64 (real, K = 2**29 + 16) bits long, and the slots 2 (b1 + b2) or b1 + b2 reach 2**63
_M, _K, _K2 = 2**29 - 1, 2**15, 2**29 + 16


@given(_operands, _operands, _operands, _operands)
@settings(max_examples=300)
@example([(_M, _M)] * 16, [(_M, -_M)] * 16, [(_K, _K)] * 16, [(_K, -_K)] * 16)
@example([(_M, 0)] * 16, [(_M, 0)] * 16, [(_K2, 0)] * 16, [(_K2, 0)] * 16)
@example([(_M, 0)] * 16, [(_M, 0)] * 16, [], [(_K2, 0)] * 16)  # a zero operand drops its pair
# a short pair and a long pair in one call, which run as one packed sum, the short pair's product
# the longer of the two in the first example and the shorter in the second
@example([(3, -1)] * 4, [(_M, _M)] * 30, [(_M, 0)] * 16, [(_K2, 0)] * 16)
@example([(_M, 0)] * 16, [(-_M, _M)] * 16, [(1, 0), (0, -1)], [(_K, 0)] * 9)
def test_packed_sum_of_products_matches_two_products(a, b, c, d):
    # the one packed sum p1 q2 + p2 q1 of RationalFunction.__add__, against two products added
    pa, pb, pc, pd = map(_gauss_poly, (a, b, c, d))
    want = pa * pb + pc * pd
    assert algebra._poly(*algebra._products([(_re_im(pa), _re_im(pb)), (_re_im(pc), _re_im(pd))])) == want
    pairs = [(_re_im(x), _re_im(y)) for x, y in ((pa, pb), (pc, pd)) if not x.is_zero() and not y.is_zero()]
    if pairs:
        assert algebra._poly(*algebra._kronecker(pairs)) == want


@given(_operands, _operands, _operands, _operands, _operands, _operands)
@settings(max_examples=200)
# three short pairs by rows into one buffer, and two short pairs with a long one, which run as one
# packed sum; Gaussian and real mixed
@example([(1, -2)] * 3, [(_M, _M)] * 20, [(_K, 0)] * 8, [(-_K, 0)] * 12, [(2, 1)] * 5, [(3, _K)] * 11)
@example([(1, -2)] * 3, [(_M, _M)] * 20, [(_K, 0)] * 8, [(-_K, 0)] * 12, [(_M, 1)] * 16, [(2, _K)] * 11)
def test_three_pair_products_match_summed_schoolbook_products(a, b, c, d, e, f):
    pairs = [(a, b), (c, d), (e, f)]
    want = sum((_gauss_poly(_schoolbook(x, y)) for x, y in pairs if x and y), Polynomial.zero())
    got = algebra._products([(tuple(zip(*x)) or ((), ()), tuple(zip(*y)) or ((), ())) for x, y in pairs])
    assert algebra._poly(*got) == want


@st.composite
def _bounded_vectors(draw):
    """(bound, vector): 1 to 70 integer coefficients in [-bound, bound]."""
    bound = draw(st.one_of(st.integers(0, 5), st.integers(0, 2**300), _edges.map(abs)))
    part = st.one_of(st.sampled_from((0, bound, -bound)), st.integers(-bound, bound))
    n = draw(st.integers(1, 70))
    return bound, draw(st.lists(part, min_size=n, max_size=n))


@given(_bounded_vectors())
@settings(max_examples=200)
@example((0, [0] * 70))
@example((2**63, [2**63, -(2**63)] * 35))
@example((1, [-1, 1] * 35))
def test_evaluate_packed_recovers_bounded_vectors(case):
    bound, v = case

    def at(x):  # Horner at the packed point
        acc = 0
        for c in reversed(v):
            acc = acc * x + c
        return acc

    got = algebra.evaluate_packed(at, bound, len(v))
    assert got == Polynomial(v)


def test_unpack_reads_every_slot_at_the_signed_extremes():
    for nb in (1, 2, 5):
        top = 2 ** (8 * nb - 1) - 1  # the largest |slot| the width admits
        for v in itertools.product((top, -top, -1, 0, 1), repeat=4):
            assert algebra._unpack(algebra._pack(v, nb, algebra._bias(nb, 4)), nb, 4) == list(v)


# -- gcd: coprimality certificate at a point and PRS fallback -------------


@given(gauss_polys, gauss_polys, gauss_polys)
@settings(max_examples=150)
def test_gcd_recovers_planted_factor(a, b, h):
    f, g = a * h, b * h
    d = poly_gcd(f, g)
    assert d.degree >= h.degree
    poly_exact_div(f, d)
    poly_exact_div(g, d)


def _prs_steps(monkeypatch):
    calls = []
    real = algebra._pairs_pseudo_rem

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(algebra, "_pairs_pseudo_rem", counted)
    return calls


def test_gcd_certificate_skips_prs_on_coprime_pair(monkeypatch):
    calls = _prs_steps(monkeypatch)
    assert poly_gcd(P(1, -1) ** 5, P(0, 1, 1, 1)) == Polynomial.one()
    # a conjugate pair: the values at N have equal norms, and the parts of a(N) conj(b(N)) prove it
    assert poly_gcd(P(1, -I) ** 5, P(1, I) ** 5) == Polynomial.one()
    assert not calls


def _points(monkeypatch):
    """The widths w of the points 2**w at which the certificate evaluates, in order, once each."""
    widths = []
    real = algebra._at

    def counted(v, w):
        if w not in widths:
            widths.append(w)
        return real(v, w)

    monkeypatch.setattr(algebra, "_at", counted)
    return widths


# the root of 1 + z is below 2**2, so the certificate's two points for it are these
_W1, _W2 = algebra._prime_at_least(2 + 16), algebra._prime_at_least(2 + 64)


def test_gcd_falls_back_to_prs_when_certificate_declines(monkeypatch):
    n1, n2 = 1 << _W1, 1 << _W2
    calls = _prs_steps(monkeypatch)
    cases = [
        # planted common factors: real, Gaussian, real in a mixed pair, and z
        (P(3, 1) * P(1, 2), P(-2, 1) * P(1, 2), 1),
        (P(2, I) * P(-I, 1), P(3, 1) * P(-I, 1), 1),
        (P(2, 1) * P(1, 1), P(1, I) * P(1, 1), 1),
        (P(0, 1) * P(5, -1), P(0, 1) * P(7, 1), 1),
        # coprime, but (z - N1)(z - N2)(z + 2) vanishes at both points, so the gcd there is |N + 1|
        (P(-n1, 1) * P(-n2, 1) * P(2, 1), P(1, 1), 0),
    ]
    for f, g, want in cases:
        calls.clear()
        d = poly_gcd(f, g)
        assert calls, (f, g)
        assert d.degree == want, (f, g)
        poly_exact_div(f, d)
        poly_exact_div(g, d)


def test_second_point_proves_what_the_first_declines(monkeypatch):
    calls, widths = _prs_steps(monkeypatch), _points(monkeypatch)
    # (z - N1)(z + 2) vanishes at the first point only; the second proves the pair
    assert poly_gcd(P(-(1 << _W1), 1) * P(2, 1), P(1, 1)) == Polynomial.one()
    assert widths == [_W1, _W2]
    assert not calls


def _certify(f: Polynomial, g: Polynomial) -> bool:
    """The certificate on the ordered primitive pair, as ``poly_gcd`` calls it."""
    a, b = algebra._primitive(f.re, f.im), algebra._primitive(g.re, g.im)
    if len(a[0]) < len(b[0]):
        a, b = b, a
    return algebra._coprime_at_point(a, b)


def _prs_degree(f: Polynomial, g: Polynomial) -> int:
    """Degree of the gcd from the primitive PRS alone."""
    a, b = algebra._primitive(f.re, f.im), algebra._primitive(g.re, g.im)
    while b[0]:
        a, b = b, algebra._primitive(*algebra._pairs_pseudo_rem(a, b))
    return len(a[0]) - 1


_wide_parts = st.one_of(small_ints, st.integers(-(10**30), 10**30))


@st.composite
def _certificate_cases(draw):
    """(f, g, h): real, Gaussian or mixed; h is 1 or a planted factor of degree >= 1."""
    kind = draw(st.sampled_from(("real", "gauss", "mixed")))

    def poly(gauss: bool, min_degree: int) -> Polynomial:
        im = _wide_parts if gauss else st.just(0)
        cs = draw(st.lists(st.builds(GaussianRational, _wide_parts, im), min_size=1, max_size=7))
        p = Polynomial(cs)
        assume(p.degree >= min_degree)
        return p

    f, g = poly(kind == "gauss", 0), poly(kind != "real", 0)
    h = poly(kind == "gauss", 1) if draw(st.booleans()) else Polynomial.one()
    return f, g, h


@given(_certificate_cases())
@settings(max_examples=300)
@example((P(7), P(3, 1), P(1)))  # a constant operand is a unit
@example((P(1, 2), P(3, 1), P(0, 1)))  # common factor z
@example((P(10**30, -(10**30), 1), P(-(10**30), 1), P(10**30, 1, -(10**30))))
# mixed pair with a real common factor: a real value must be normed too
@example((P(2, 1), P(1, I), P(1, 1)))
# conjugate pairs with a planted real or Gaussian factor: equal norms, and a shared factor all the same
@example((P(1, -I) ** 3, P(1, I) ** 3, P(1, 1)))
@example((P(1, -I) ** 3, P(1, I) ** 3, P(2, I)))
def test_certificate_never_proves_a_shared_factor(case):
    f, g, h = case
    a, b = f * h, g * h
    proved = _certify(a, b)
    if h.degree > 0:
        assert not proved
    if proved:
        assert _prs_degree(a, b) == 0


def test_certificate_proves_the_library_forms_coprime(monkeypatch):
    calls, widths = _prs_steps(monkeypatch), _points(monkeypatch)

    def coprime(p: Polynomial, q: Polynomial) -> bool:
        """The pair proved coprime, with no PRS step, at the first point alone."""
        widths.clear()
        return poly_gcd(p, q).degree == 0 and len(widths) == 1 and not calls

    # each form's denominator is its base to the power n + 1; the bases are
    # products of the irreducibles z - 1, z + 1, z + i and z - i, so two share
    # a factor exactly when they share a root; Li(iz) and Li(-iz) are conjugate
    bases = {"li": P(-1, 1), "negate_z": P(1, 1), "square_z": P(-1, 0, 1),
             "chi": P(-1, 0, 1), "ti": P(1, 0, 1), "i_times_z": P(I, 1), "minus_i_times_z": P(-I, 1)}
    roots = {"li": {1}, "negate_z": {-1}, "square_z": {1, -1}, "chi": {1, -1}, "ti": {1j, -1j},
             "i_times_z": {-1j}, "minus_i_times_z": {1j}}
    proved = declined = 0
    for n in range(65):
        li = li_neg(n)
        rotated = substitute(li, "i_times_z")
        forms = {"li": li, "negate_z": substitute(li, "negate_z"),
                 "square_z": substitute(li, "square_z"), "chi": chi_neg(n), "ti": ti_neg(n),
                 "i_times_z": rotated, "minus_i_times_z": substitute(rotated, "negate_z")}
        for name, f in forms.items():
            # every form but the two rotated ones has real coefficients
            assert f.is_real() or name in ("i_times_z", "minus_i_times_z")
            assert f.den == bases[name] ** (n + 1)
            assert coprime(f.num, f.den), (name, n)
            proved += 1
        # the rotated ladder relation's odd part: its pair q(z), q(-z) is the conjugate pair
        odd_part(rotated)
        for x, y in itertools.combinations(forms, 2):
            p, q = forms[x].den, forms[y].den
            if roots[x] & roots[y]:
                assert not _certify(p, q)
                declined += 1
            else:
                assert coprime(p, q), (x, y, n)
                proved += 1
        assert not calls, n  # at each order, so a PRS fallback fails before it grows slow
    assert (proved, declined) == (1365, 455)


def test_gaussian_rational_arithmetic():
    assert I * I == GaussianRational(-1)
    assert (GaussianRational(1, 2) * GaussianRational(1, -2)) == GaussianRational(5)
    assert GaussianRational(1, 1) / GaussianRational(1, 1) == GaussianRational(1)
    assert GaussianRational(Fraction(1, 2)) + Fraction(1, 2) == GaussianRational(1)
    assert str(GaussianRational(Fraction(-3, 2), 1)) == "-3/2+i"


def test_gaussian_rational_subtraction_and_negative_powers():
    a = GaussianRational(Fraction(1, 2), 3)
    assert a - I == GaussianRational(Fraction(1, 2), 2)
    assert a - Fraction(1, 2) == GaussianRational(0, 3)
    assert 1 - a == GaussianRational(Fraction(1, 2), -3)
    assert a ** -2 * a * a == GaussianRational(1)
    assert I ** -1 == -I
    assert GaussianRational(1, 1) ** -2 == GaussianRational(0, Fraction(-1, 2))  # 1/(2i)
    with pytest.raises(TypeError):
        a - "x"
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0) ** -1


def test_gaussian_rational_hashes_as_it_compares():
    assert GaussianRational(3) == 3 == Fraction(3)
    assert len({GaussianRational(3), 3, Fraction(3)}) == 1
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2)) == hash(0.5)
    assert hash(GaussianRational(Fraction(1, 2), -3)) == hash((Fraction(1, 2), -3))
    assert len({GaussianRational(1, 1), GaussianRational(1), GaussianRational(0, 1)}) == 3
    # a real-by-real quotient carries an imaginary part Fraction(0), and compares and hashes as its
    # real part
    assert GaussianRational(3) / 2 == Fraction(3, 2) and hash(GaussianRational(3) / 2) == hash(1.5)


# -- rational function arithmetic -------------------------------------------


def test_rf_addition_hand_value():
    # z/(1-z) + z/(1+z) = [z(1+z) + z(1-z)] / (1-z^2) = 2z/(1-z^2), by hand
    f = RF([0, 1], [1, -1])
    g = RF([0, 1], [1, 1])
    assert f + g == RF([0, 2], [1, 0, -1])


@given(polys, nonzero_polys, polys, nonzero_polys, st.one_of(st.just(Polynomial.one()), gauss_polys))
@settings(max_examples=150)
@example(P(1), P(1, 1), P(0, 1), P(1, -1), P(1, -1))  # both denominators keep 1 - z
@example(P(1, -1), P(1), P(1), P(1), P(1, -1))  # 1 - z cancels from the first
def test_sum_matches_the_full_gcd_form(a, b, c, d, h):
    # h, planted in both denominators, makes gcd(q1, q2) nontrivial unless it cancels
    f, g = RationalFunction(a, b * h), RationalFunction(c, d * h)
    p1, q1, p2, q2 = f.num, f.den, g.num, g.den
    assert f + g == RationalFunction(p1 * q2 + p2 * q1, q1 * q2)


@given(rationals)
@settings(max_examples=100)
@example(RationalFunction.zero())
def test_powers_and_reflected_operators(f):
    one, two = RationalFunction.constant(1), RationalFunction.constant(2)
    assert f ** 3 == f * f * f
    assert f ** 0 == one
    assert f + 2 == 2 + f == RationalFunction(f.num + f.den.scale(2), f.den)
    assert (2 - f) + f == two
    if f.is_zero():
        with pytest.raises(ZeroDivisionError):
            f ** -1
    else:
        assert f ** -2 * f * f == one
        assert (2 / f) * f == two


@pytest.mark.parametrize("a", [GaussianRational(Fraction(1, 2), 3), RF([0, 1], [1, -1])])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
@pytest.mark.parametrize("bad", [1.5, "x"])
def test_operators_refuse_a_float_or_str_on_either_side(a, op, bad):
    with pytest.raises(TypeError):
        op(a, bad)
    with pytest.raises(TypeError):
        op(bad, a)


def test_mixed_operands_equal_their_lifted_forms():
    # subtraction adds the negation, and a reflected operator lifts its scalar and delegates
    f = RF([0, 1], [1, -1])
    assert GaussianRational(2) - f == RationalFunction.constant(2) - f == RF([2, -3], [1, -1])
    assert f - I == f + -I == RationalFunction(P(-I, GaussianRational(1, 1)), P(1, -1))
    assert 3 / f == RationalFunction.constant(3) / f == RF([3, -3], [0, 1])
    assert 1 - I == GaussianRational(1, -1)
    assert 1 / I == -I and Fraction(1, 2) / GaussianRational(3) == GaussianRational(Fraction(1, 6))
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0)


def test_rf_self_cancellation_and_division():
    f = RF([0, 1], [1, -1])
    assert (f - f).is_zero()
    assert f / f == RF([1], [1])
    with pytest.raises(ZeroDivisionError):
        f / RationalFunction.zero()
    with pytest.raises(ZeroDivisionError):
        RF([1], [0])


def test_z_ddz_examples():
    # one quotient-rule step by hand: z d/dz [z/(1-z)] = z/(1-z)^2
    assert z_ddz(RF([0, 1], [1, -1])) == RF([0, 1], [1, -2, 1])
    assert z_ddz(RF([1], [1])).is_zero()
    assert z_ddz(RF([0, 0, 1], [1])) == RF([0, 0, 2], [1])  # z * 2z = 2z^2
    # gcd(q, q') = (1-z)^2 is divided out first: z d/dz [1/(1-z)^3] = 3z/(1-z)^4
    assert z_ddz(RF([1], [1, -3, 3, -1])) == RF([0, 3], [1, -4, 6, -4, 1])
    # a count: twice gives Li[-2], zero returns the form itself, a negative count is refused
    assert z_ddz(RF([0, 1], [1, -1]), 2) == RF([0, 1, 1], [1, -3, 3, -1])
    # z | q: the unreduced pair over z^4 shares z^3, which the final shift divides out
    assert z_ddz(RF([1], [0, 1]), 3) == RF([-1], [0, 1])
    assert z_ddz(RF([1], [0, 0, 1]), 2) == RF([4], [0, 0, 1])
    f = RF([1, 2], [0, 3, 1])
    assert z_ddz(f, 0) is f
    with pytest.raises(ValueError, match="n >= 0"):
        z_ddz(f, -1)


def test_substitute_examples():
    f = RF([0, 1], [1, -1])
    assert substitute(f, "negate_z") == RF([0, -1], [1, 1])
    assert substitute(f, "square_z") == RF([0, 0, 1], [1, 0, -1])
    assert substitute(f, "invert_z") == RF([1], [-1, 1])  # (1/z)/(1 - 1/z) = 1/(z - 1)
    assert substitute(f, "half_angle") == RF([I, -1], [0, 2])  # w/(1 - w) = (i - t)/(2t)
    assert substitute(f, "z_over_1_plus_z") == RF([0, 1], [1])  # u = z/(1 + z) in u/(1 - u)
    g = RF([1], [1, 1])  # z -> z^2 changes only the denominator: equality reads both parts
    assert substitute(g, "square_z") == RF([1], [1, 0, 1]) != g
    for kind in ("cube_z", "conjugate_z"):
        with pytest.raises(ValueError, match="unknown substitution"):
            substitute(f, kind)


# a planted factor h even (1 + z^2), odd (z) or neither (1 - z) makes gcd(q, q(-z)) nontrivial,
# so the certificate declines and the full gcd runs, unless h cancels
_odd_part_cases = st.builds(lambda a, b, h: RationalFunction(a, b * h), st.one_of(polys, gauss_polys),
                            gauss_polys, st.sampled_from((P(1), P(1, 0, 1), P(0, 1), P(1, -1))))


@given(_odd_part_cases)
@settings(max_examples=200)
@example(RF([0, 1], [1, 0, 1]))  # q = 1 + z^2 = q(-z): the certificate declines, the full gcd runs
@example(RF([1, 0, 3], [2, 0, 1]))  # an even f: its odd part is the zero form
@example(RationalFunction.constant(GaussianRational(3, -2)))  # a constant
@example(li_neg(64))
def test_odd_part_matches_its_definition(f):
    assert odd_part(f) == (f - substitute(f, "negate_z")) * Fraction(1, 2)


def test_substitute_i_times():
    f = RF([0, 1], [1, -1])
    g = substitute(f, "i_times_z")  # iz/(1 - iz)
    val = rf_eval(g, 0.25)
    expect = 0.25j / (1 - 0.25j)
    assert abs(val - expect) < 1e-15


def test_rf_eval_examples():
    f = RF([0, 1], [1, -1])
    assert rf_eval(f, 0.5) == pytest.approx(1.0)
    with pytest.raises(PoleError):
        rf_eval(f, 1.0)
    g = RF([0, 1], [1, 0, -1])
    assert rf_eval(g, 2.0).real == pytest.approx(-2 / 3)  # hand arithmetic


def rounded(exact: GaussianRational) -> complex:
    """The Fraction reference: each exact part through float, a part past double range +-inf."""
    def part(x):
        try:
            return float(x)
        except OverflowError:
            return math.inf if x > 0 else -math.inf
    return complex(part(exact.re), part(exact.im))


def test_rf_eval_raises_only_at_an_exact_pole():
    # large values far from any pole: the exact value at the exact double, rounded once
    for n, z in ((64, 0.5), (30, 0.7)):
        assert rf_eval(li_neg(n), z) == rounded(rf_eval_exact(li_neg(n), Fraction(z)))
    # one ulp below the pole of 1/(1 - z) the denominator is 2**-53, not zero
    below = math.nextafter(1.0, 0.0)
    assert rf_eval(RF([1], [1, -1]), below) == 2.0**53
    with pytest.raises(PoleError):
        rf_eval(RF([1], [1, -1]), 1.0)
    # a value beyond double range rounds to inf, as float arithmetic does
    assert rf_eval(li_neg(64), below) == complex(math.inf, 0.0)
    # the edges of rounding each part once with int / int, against the Fraction reference
    for f, z, want in (
        (chi_neg(64), 0.999999999 + 0.0001j, "(-inf+infj)"),  # parts overflow with opposite signs
        (li_neg(0), 0.5 + 1e-310j, "(1+4e-310j)"),  # a subnormal part (below 2.2e-308)
        (li_neg(0), -1 + 5e-324j, "(-0.5+0j)"),  # a part that underflows to 0.0
        (li_neg(0), -1 - 5e-324j, "(-0.5-0j)"),  # ... and to -0.0
        (li_neg(1), 1j, "(-0.5+0j)"),  # an exactly zero imaginary part
        (RF([0, 0, 0, 0, 1], [1]), 1 + 1j, "(-4+0j)"),  # ... of a polynomial
        (li_neg(64), 1e10, "(-3.652184918895905+0j)"),  # a finite quotient of parts past 1e308
        (li_neg(64), 1e308 + 1e308j, "(-5e-309+5e-309j)"),  # integer two-term Horner at E = 1
        (chi_neg(64), 1e308 + 1e308j, "(-5e-309+5e-309j)"),  # ... at w = z^2
    ):
        zg = GaussianRational(complex(z).real, complex(z).imag)
        assert repr(rf_eval(f, z)) == repr(rounded(rf_eval_exact(f, zg))) == want, z
    zg = GaussianRational(10**10)
    assert min(abs(horner_value(li_neg(64).num, zg).re), abs(horner_value(li_neg(64).den, zg).re)) > 1e308


# Points for the pinned rf_eval bits, each the double nearest its decimal literal.
PINNED_POINTS = (0.3+0.2j, -0.5+0.25j, 0.05-0.7j,  # in the unit disk
                 0.6+0.8j, -0.28+0.96j, 0.8-0.6j,  # on the unit circle
                 2.5+0j, -3.0+0j,  # on the real axis, |z| > 1
                 0.999999+0j, -1.000001+0j, 1.000001j, -0.999999j)  # next to the poles +-1 and +-i
PINNED_ORDERS = (0, 1, 2, 3, 5, 8, 12, 16, 24, 32, 48, 64)


def test_rf_eval_bits_are_pinned():
    # rf_eval rounds an exact value once, so these bits hold on every platform and through any
    # change of evaluator that keeps the exact value
    lines = [f"{kind} {n} {z!r} {rf_eval(build(n), z)!r}"
             for kind, build in (("li", li_neg), ("chi", chi_neg), ("ti", ti_neg))
             for n in PINNED_ORDERS for z in PINNED_POINTS]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e344d85a315807aaf4351eef6aeb3dac28e794251afdef6769da225cfba1fa1f"


# Doubles whose exact reading is awkward: E is the larger of the parts' power-of-two denominators
AWKWARD_POINTS = (complex(0.5, -0.0), complex(-0.0, 0.3),  # a -0.0 part
                  5e-324, 1e-320+1e-310j,  # subnormal parts
                  1e-300+0.5j,  # mixed exponents
                  1e300, -1e300j,  # huge parts
                  0.5, -0.7)  # real points inside (-1, 1)


def test_rf_eval_bits_at_awkward_doubles_are_pinned():
    lines = [f"{kind} {n} {z!r} {rf_eval(build(n), z)!r}"
             for kind, build in (("li", li_neg), ("chi", chi_neg), ("ti", ti_neg))
             for n in (0, 5, 64) for z in AWKWARD_POINTS]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "33d5951e7deb48d38ae4f10463ba7573ac461d26be4d1e7891bea11cf8d4f43a"


# the nine routes of the numeric-eval benchmark, each called as route(n, x)
_ROUTES = ("csc_derivative_eval", "csc_derivative_via_li", "csc_derivative_binomial",
           "leibniz_csc_route", "sec_derivative_eval", "sec_derivative_via_li",
           "sec_derivative_binomial", "csch_derivative_eval", "sech_derivative_eval")

# entries (n, x) with a float x: the nine routes, then the relations and lifts that call the
# jet oracle, and the generic-operand check
_FLOAT_X_ENTRIES = {
    **{name: getattr(negpolylog, name) for name in _ROUTES},
    "jet_lift": lambda n, x: jet_lift("arctanh", x, n),
    "nth_derivative": lambda n, x: nth_derivative("sin", x, n),
    "li_relation_coth": li_relation_coth,
    "li_relation_tanh": li_relation_tanh,
    "verify_generic_operand": lambda n, x: verify_generic_operand("sin", n, x),
}

# (n, x) points where a route's value lies beyond double range, and what each of the nine
# routes gives there: inf, or (None) a finite value.  Every route is an exact form rounded
# once, so a value beyond double range is inf with the exact value's sign
_FAR_POINTS = ((64, 1e-5), (64, math.pi / 2 - 1e-5), (200, 1.0), (200, 0.5))
_CSC, _SEC = (math.inf, None, math.inf, math.inf), (None, math.inf, math.inf, math.inf)
_FAR_OUTCOMES = {
    "csc_derivative_eval": _CSC,
    "csc_derivative_via_li": _CSC,
    "csc_derivative_binomial": _CSC,
    "leibniz_csc_route": _CSC,
    "sec_derivative_eval": _SEC,
    "sec_derivative_via_li": _SEC,
    "sec_derivative_binomial": _SEC,
    "csch_derivative_eval": (math.inf, None, math.inf, math.inf),
    "sech_derivative_eval": (None, None, math.inf, math.inf),
}
# jets whose division lift overflows, then subtracts inf from inf
_FAR_JETS = (("csc", 1e-5), ("cot", 1e-5), ("sec", math.pi / 2 - 1e-5), ("tan", math.pi / 2 - 1e-5))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda: rf_eval(li_neg(3), math.inf), DomainError, id="rf_eval-inf"),
    pytest.param(lambda: rf_eval(li_neg(3), math.nan), DomainError, id="rf_eval-nan"),
    pytest.param(lambda: rf_eval(li_neg(3), complex(0.5, -math.inf)), DomainError, id="rf_eval-imag-inf"),
    pytest.param(lambda: cot_derivative_poly(3)(math.inf), DomainError, id="cot_poly-inf"),
    *[pytest.param(functools.partial(entry, 3, x), DomainError, id=f"{name}-{x}")
      for name, entry in _FLOAT_X_ENTRIES.items() for x in (math.nan, math.inf, -math.inf)],
    # finite points whose exp, sinh or cosh is beyond double range return a value or a report
    pytest.param(lambda: li_relation_coth(1, 3000.0), None, id="li_relation_coth-3000"),
    pytest.param(lambda: li_relation_tanh(1, 3000.0), None, id="li_relation_tanh-3000"),
    *[pytest.param(functools.partial(nth_derivative, fn, x, 3), None, id=f"{fn}-{x}")
      for fn in ("tanh", "coth", "sech", "csch") for x in (800.0, -800.0)],
    # beyond double range: a library error or inf, never nan or OverflowError
    *[pytest.param(functools.partial(getattr(negpolylog, name), n, x), want, id=f"{name}-{n}-{x}")
      for name, wants in _FAR_OUTCOMES.items() for (n, x), want in zip(_FAR_POINTS, wants)],
    *[pytest.param(functools.partial(nth_derivative, fn, x, 64), DomainError, id=f"{fn}-64-{x}")
      for fn, x in _FAR_JETS],
    *[pytest.param(functools.partial(apply_operator_power, laurent_jet({0: 1.0}), fn, 64, x),
                   DomainError, id=f"operator-{fn}-64-{x}") for fn, x in _FAR_JETS],
])
def test_non_finite_inputs_are_library_errors(call, error):
    # raised up front, so reports.check fails that point instead of aborting a suite
    if isinstance(error, type):
        with pytest.raises(error):
            call()
        return
    val = call()  # never nan: the expected inf, else a finite value or a report
    if isinstance(error, float):
        assert val == error
    elif isinstance(val, float):
        assert math.isfinite(val)


@pytest.mark.parametrize("name", _ROUTES)
def test_routes_reject_a_negative_order(name):
    with pytest.raises(ValueError, match="n must be >= 0"):
        getattr(negpolylog, name)(-1, 0.5)


# -- canonical-form properties ----------------------------------------------


@given(polys, nonzero_polys)
@settings(max_examples=150)
def test_canonicalization_idempotent(num, den):
    f = RationalFunction(num, den)
    again = RationalFunction(f.num, f.den)
    assert again.num.coeffs == f.num.coeffs and again.den.coeffs == f.den.coeffs


@given(
    polys,
    nonzero_polys,
    st.one_of(
        st.sampled_from(
            [2, -3, Fraction(5, 7), GaussianRational(0, 2), GaussianRational(1, 1), GaussianRational(Fraction(-2, 3), 5)]
        ),
        fractional_scalars,
    ),
)
@example(P(7), P(14, 21), Fraction(1, 7))  # integral values held as Fractions
@example(P(1), P(1, I), 1)  # a primitive denominator whose lead i must turn to 1
@settings(max_examples=150)
def test_canonical_form_kills_common_scalars(num, den, s):
    f = RationalFunction(num, den)
    # a rational s = g/d: its Gaussian-integer numerator, its denominator, and s itself
    # through the rational-function operations
    g, d = split_scalar(s)
    for h in (RationalFunction(num.scale(g), den.scale(g)), RationalFunction(num.scale(d), den.scale(d)),
              (f * s) / s, s * f / s, (f / s) * s):
        assert f == h
        lead = h.den.lead()
        assert lead.re > 0 and lead.im >= 0
        assert all(type(x) is int for x in h.num.re + h.num.im + h.den.re + h.den.im)


@given(
    st.one_of(rationals, st.builds(RationalFunction, gauss_polys, gauss_polys)),
    st.sampled_from([3, -2, 1, Fraction(-3, 4), I, GaussianRational(2, -1),
                     GaussianRational(Fraction(1, 2), 3), 0, Fraction(0)]),
)
@settings(max_examples=150)
def test_scalar_products_match_the_full_gcd_form(f, c):
    g, d = split_scalar(c)
    want = RationalFunction(f.num.scale(g), f.den.scale(d))
    assert f * c == want and c * f == want
    if c == 0:
        assert want.is_zero()
        with pytest.raises(ZeroDivisionError):
            f / c
    else:
        assert f / c == RationalFunction(f.num.scale(d), f.den.scale(g))


def _check_storage(p):
    assert type(p.re) is tuple and type(p.im) is tuple and len(p.re) == len(p.im)
    assert all(type(x) is int for x in p.re + p.im)
    assert not p.re or p.re[-1] or p.im[-1]  # trailing zeros stripped
    assert not hasattr(p, "den")


def test_storage_invariants():
    for n in (0, 1, 40, 64):
        for f in (li_neg(n), chi_neg(n), ti_neg(n)):
            for p in (f.num, f.den):
                _check_storage(p)
    # non-canonical polynomials: integral values held as Fractions and floats, Gaussian, zero,
    # scaled, products, a constant's derivative
    for p in (P(Fraction(4, 2), 1), P(2.0, GaussianRational(3, -1)), P(0, 0), Polynomial([]),
              P(1, 3).scale(3), P(Fraction(3, 3), GaussianRational(0, 6)),
              P(1, 2) * Fraction(2, 1) * P(2, 0, 2), P(5, 0, 0).derivative()):
        _check_storage(p)
    # equal canonical forms built by separate routes share one stored copy
    for n in (1, 20):
        assert li_neg_stirling(n).num is li_neg(n).num and li_neg_stirling(n).den is li_neg(n).den
    assert P(Fraction(4, 2), 6.0) == P(2, 6)
    assert P(1, 3).scale(3) == P(3, 9)
    assert Polynomial([0, 0]).re == () and Polynomial([]).im == ()


_SETATTR_NAMES = ("setattr", "delattr", "__setattr__", "__delattr__")
# where a GaussianRational or a Polynomial gets its parts: its constructor, or algebra._raw
_CONSTRUCTORS = {("GaussianRational", "__init__"), ("Polynomial", "__init__"), (None, "_raw")}


def _writes_gaussian_part(node) -> bool:
    """Whether a syntax node assigns or deletes an attribute named re or im."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("re", "im") and isinstance(node.ctx, (ast.Store, ast.Del))
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in _SETATTR_NAMES and any(
            isinstance(a, ast.Constant) and a.value in ("re", "im") for a in node.args
        )
    return False


def test_gaussian_parts_are_assigned_only_in_init():
    # hash-consed canonical polynomials are shared, which is sound only while
    # no code changes the parts of a Polynomial (or a GaussianRational) after construction
    offenders = []
    for path in sorted(Path(algebra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = set()
        scopes = [(None, tree)] + [(c.name, c) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        for owner, scope in scopes:
            for fn in scope.body:
                if isinstance(fn, ast.FunctionDef) and (owner, fn.name) in _CONSTRUCTORS:
                    allowed.update(id(n) for n in ast.walk(fn))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _writes_gaussian_part(node) and id(node) not in allowed
        ]
    assert not offenders


short_gauss_polys = st.lists(
    st.builds(GaussianRational, small_ints, small_ints), min_size=1, max_size=3
).map(Polynomial).filter(lambda p: not p.is_zero())
Z = Polynomial.variable()


@given(
    st.one_of(st.just(Polynomial.zero()), gauss_polys), short_gauss_polys, short_gauss_polys,
    st.integers(1, 3), st.integers(0, 2),
)
@example(P(1), P(1), P(1), 1, 0)  # constant q
@example(P(2, I), P(1), P(1, -1), 1, 0)  # squarefree q, q(0) != 0
@example(P(1, I), P(2), P(-I, 1), 2, 0)  # the repeated Gaussian root i, q(0) != 0
@example(P(3, 0, I), P(1, 1), P(1, -1), 3, 1)  # q(0) = 0 at a simple root
@example(P(1, 2), P(1), P(1, -1), 2, 2)  # q(0) = 0 at a double root
# radicals longer than _SCHOOLBOOK_MAX: a Gaussian one with both pairs of the step packed, one
# with a short pair and a long pair in one call, which run as one packed sum, and one with z | q
@example(P(*range(1, 12)), P(2, I, 0, 0, 0, 0, 0, 0, 1), P(1, -1), 2, 0)
@example(P(*range(1, 10)), P(3, 0, 0, 0, 0, 0, 0, 1), P(1, I), 1, 0)
@example(P(*range(1, 12)), P(1, 0, 0, 0, 0, 0, 0, 0, 0, -1), P(3, 1), 1, 1)
@settings(max_examples=150)
def test_z_ddz_matches_the_full_gcd_quotient_rule(num, base, h, k, j):
    # q = base * h^k * z^j: Gaussian coefficients, repeated roots, q(0) = 0, constant q
    f = RationalFunction(num, base * h**k * Z**j)
    p, q = f.num, f.den
    want = RationalFunction(Z * (p.derivative() * q - p * q.derivative()), q * q)
    assert z_ddz(f) == want


@given(
    st.one_of(st.just(Polynomial.zero()), gauss_polys), short_gauss_polys, short_gauss_polys,
    st.integers(1, 3), st.integers(0, 2), st.integers(0, 6),
)
@example(P(1), P(2), P(1), 1, 0, 3)  # constant f: zero after one step
@example(P(1, 1), P(2), P(-I, 1), 2, 0, 4)  # a repeated Gaussian root under a content 2
@example(P(3, 0, I), P(1, 1), P(1, -1), 3, 1, 5)  # z | q: the final z^n shift of both parts
@example(P(1, 2), P(1), P(1, -1), 2, 2, 6)  # a double root at 0
# q r^n formed once after 64 steps: shifted by z^64 when z | q, and a Gaussian radical z - i
@example(P(1, 1), P(1), P(1, -1), 1, 1, 64)
@example(P(1), P(2), P(-I, 1), 2, 0, 64)
# radicals longer than _SCHOOLBOOK_MAX, so the steps run packed: a Gaussian one, and one with z | q
@example(P(1), P(2, I, 0, 0, 0, 0, 0, 0, 1), P(1, -1), 2, 0, 4)
@example(P(1, 2), P(1, 0, 0, 0, 0, 0, 0, 0, 0, -1), P(3, 1), 1, 1, 4)
@settings(max_examples=100)
def test_z_ddz_count_equals_repeated_single_steps(num, base, h, k, j, n):
    # the carry of z_ddz(f, n) against n single steps, each with its own gcd; a single
    # step is checked against the full-gcd quotient rule above
    f = RationalFunction(num, base * h**k * Z**j)
    want = f
    for _ in range(n):
        want = z_ddz(want)
    assert z_ddz(f, n) == want


@given(rationals, rationals)
@settings(max_examples=150)
def test_z_ddz_is_a_derivation(f, g):
    assert z_ddz(f * g) == z_ddz(f) * g + f * z_ddz(g)


@given(rationals, rationals)
@settings(max_examples=150)
def test_square_substitution_is_a_homomorphism(f, g):
    assert substitute(f * g, "square_z") == substitute(f, "square_z") * substitute(g, "square_z")
    assert substitute(f + g, "square_z") == substitute(f, "square_z") + substitute(g, "square_z")


def _reversed_to(p, d):
    return Polynomial([*reversed([*p.coeffs, *[0] * (d - p.degree)])])


@given(st.one_of(st.just(Polynomial.zero()), gauss_polys), gauss_polys, gauss_polys, st.integers(0, 2))
@example(P(0, 1), P(1, -1), P(1), 0)  # deg p < deg q
@example(P(1, 0, 1), P(0, 1), P(1), 0)  # deg p > deg q and q(0) = 0
@settings(max_examples=150)
def test_invert_substitution_matches_the_full_gcd_form(num, den, g, j):
    # the reversal at d = max(deg p, deg q) skips the gcd: it equals the form canonicalized in
    # full, is an involution, and keeps products and sums; Z^j puts a root at z = 0
    f, h = RationalFunction(num * Z**j, den), RationalFunction(g, den)
    d = max(f.num.degree, f.den.degree)
    inv = substitute(f, "invert_z")
    assert inv == RationalFunction(_reversed_to(f.num, d), _reversed_to(f.den, d))
    assert substitute(inv, "invert_z") == f
    assert substitute(f * h, "invert_z") == inv * substitute(h, "invert_z")
    assert substitute(f + h, "invert_z") == inv + substitute(h, "invert_z")


def _half_angle_expanded(p, d):
    a, b = Polynomial([1, I]), Polynomial([1, -I])
    return sum((c * a**k * b ** (d - k) for k, c in enumerate(p.coeffs)), Polynomial.zero())


@given(st.one_of(st.just(Polynomial.zero()), gauss_polys), gauss_polys, gauss_polys)
@example(P(0, 1), P(1, -1), P(1))  # z/(1 - z): deg p = deg q
@example(P(1), P(1, 1), P(1))  # the pole z = -1 goes to t = infinity: deg q drops
@settings(max_examples=150)
def test_half_angle_substitution_matches_the_full_gcd_form(num, den, g):
    # the packed homogeneous Horner equals sum p_k (1 + it)^k (1 - it)^(d-k) expanded and
    # canonicalized in full, and keeps products and sums
    f, h = RationalFunction(num, den), RationalFunction(g, den)
    d = max(f.num.degree, f.den.degree)
    ft = substitute(f, "half_angle")
    assert ft == RationalFunction(_half_angle_expanded(f.num, d), _half_angle_expanded(f.den, d))
    assert substitute(f * h, "half_angle") == ft * substitute(h, "half_angle")
    assert substitute(f + h, "half_angle") == ft + substitute(h, "half_angle")


def _over_one_plus_expanded(p, d):
    one_plus_z = Polynomial([1, 1])
    return sum((c * Z**k * one_plus_z ** (d - k) for k, c in enumerate(p.coeffs)), Polynomial.zero())


@given(st.one_of(st.just(Polynomial.zero()), gauss_polys), gauss_polys, gauss_polys)
@example(P(0, 1), P(1, -1), P(1))  # z/(1 - z) goes to z: deg q drops to 0
@example(P(1), P(1, 1), P(1))  # the pole z = -1 goes to z = -1/2
@settings(max_examples=150)
def test_over_one_plus_substitution_matches_the_full_gcd_form(num, den, g):
    # the packed homogeneous Horner equals sum p_k z^k (1 + z)^(d-k) expanded and
    # canonicalized in full, and keeps products and sums
    f, h = RationalFunction(num, den), RationalFunction(g, den)
    d = max(f.num.degree, f.den.degree)
    fu = substitute(f, "z_over_1_plus_z")
    assert fu == RationalFunction(_over_one_plus_expanded(f.num, d), _over_one_plus_expanded(f.den, d))
    assert substitute(f * h, "z_over_1_plus_z") == fu * substitute(h, "z_over_1_plus_z")
    assert substitute(f + h, "z_over_1_plus_z") == fu + substitute(h, "z_over_1_plus_z")


def test_homogeneous_maps_refuse_a_degree_below_deg_p():
    # z^d p(1/z) and the two Horner maps are defined for d >= deg p only; a smaller d once
    # reversed p at its own degree, or overflowed a packed slot
    p = Polynomial([1, 2, 3])
    for d in (0, 1):
        for method in (p.invert_arg, p.half_angle_arg, p.over_one_plus_arg):
            with pytest.raises(ValueError, match=f"d = {d} is below deg p = 2"):
                method(d)
    assert p.invert_arg(2) == Polynomial([3, 2, 1])
    assert p.invert_arg(3) == Polynomial([0, 3, 2, 1])
    assert p.half_angle_arg(2) == _half_angle_expanded(p, 2)
    assert p.over_one_plus_arg(3) == _over_one_plus_expanded(p, 3)


@given(rationals, st.fractions(min_value=-3, max_value=3, max_denominator=7))
@settings(max_examples=200)
def test_rf_eval_matches_exact_rational_evaluation(f, z):
    assume(any(f.den.horner(GaussianRational(z))[:2]))
    exact = rf_eval_exact(f, z)
    assume(abs(float(exact.re)) < 1e9)
    # the double path must agree with BigRational evaluation to 1e-12 relative
    got = rf_eval(f, complex(float(z)))
    want = complex(float(exact.re), float(exact.im))
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


real_or_gauss_ints = small_ints.map(GaussianRational) | gauss_ints


@st.composite
def strided_polys(draw):
    """z^s q(z^g) with Gaussian-integer coefficients, sometimes plus one more term anywhere.

    q is drawn freely or as a binomial power c (1 + r w)^e, a dense structured q like the
    denominators of li, chi and Ti, which ``Polynomial.horner`` reads by the two-term recurrence
    at a non-real w when c is real and by the Fraction loop otherwise; the extra term perturbs it."""
    s, g = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        q = draw(st.lists(gauss_ints, max_size=6))
    else:
        c = draw(real_or_gauss_ints.filter(lambda c: not c.is_zero()))
        r, e = draw(st.sampled_from((1, -1, 2, -2))), draw(st.integers(0, 8))
        q = [c * (math.comb(e, k) * r**k) for k in range(e + 1)]
    coeffs = [GaussianRational(0)] * (s + g * len(q) + 3)
    for j, c in enumerate(q):
        coeffs[s + g * j] = c
    if draw(st.booleans()):
        k = draw(st.integers(0, len(coeffs) - 1) | st.integers(0, max(len(q) - 1, 0)).map(lambda j: s + g * j))
        coeffs[k] += draw(real_or_gauss_ints)
    return Polynomial(coeffs)


def horner_value(p: Polynomial, z: GaussianRational) -> GaussianRational:
    """p(z) as (x + yi)/e of ``Polynomial.horner``, whose e must be positive."""
    x, y, e = p.horner(z)
    assert e > 0
    return GaussianRational(Fraction(x, e), Fraction(y, e))


@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, 0.5, 1e300, complex(0.3, -0.2)])
def test_horner_reads_a_double_as_the_gaussian_rational_it_represents(x):
    z = GaussianRational(Fraction(x.real), Fraction(x.imag))
    for p in (chi_neg(5).num, li_neg(4).den, P(1, I, GaussianRational(2, -1))):
        assert p.horner(x) == p.horner(z)


def naive_sum(p: Polynomial, z: GaussianRational) -> GaussianRational:
    """sum of c_k z^k over every k, zero or not, with z^k kept as a running power."""
    total, power = GaussianRational(0), GaussianRational(1)
    for c in p.coeffs:
        total, power = total + c * power, power * z
    return total


def naive_value(f: RationalFunction, z: GaussianRational) -> "GaussianRational | None":
    """f(z) from the naive sums, or None where the denominator vanishes."""
    den_val = naive_sum(f.den, z)
    return None if den_val.is_zero() else naive_sum(f.num, z) / den_val


@given(strided_polys(), strided_polys().filter(lambda p: not p.is_zero()), gauss_points)
@settings(max_examples=200, deadline=None)
@example(chi_neg(64).num, chi_neg(64).den, GaussianRational(Fraction("0.3"), Fraction("0.2")))
@example(ti_neg(64).num, ti_neg(64).den, GaussianRational(Fraction("0.3"), Fraction("0.2")))
# the denominators (1 -+ z^g)^65 of li, chi and Ti at n = 64, at unit-circle doubles
@example(P(1), li_neg(64).den, GaussianRational(Fraction(0.6), Fraction(0.8)))
@example(P(1), chi_neg(64).den, GaussianRational(Fraction(-0.28), Fraction(0.96)))
@example(P(1), ti_neg(64).den, GaussianRational(Fraction(0.8), Fraction(-0.6)))
# and at real doubles, where the Fraction loop steps through them (chi's at w = z^2)
@example(P(1), chi_neg(64).den, GaussianRational(Fraction(0.7)))
@example(P(1), li_neg(64).den, GaussianRational(Fraction(-3.0)))
@example(P(1, -5, 10, -10, 6, -1), P(1), GaussianRational(Fraction(1, 3)))  # (1 - z)^5 with z^4 perturbed
@example(P(0, 0, 0, GaussianRational(2, -1)), P(1), GaussianRational(Fraction(1, 2), Fraction(-1, 3)))  # monomial
@example(P(), P(1, 1), GaussianRational(Fraction(1, 3), 1))  # the zero polynomial
@example(P(1, 0, 1, I), P(1), GaussianRational(Fraction(1, 2), Fraction(1, 3)))  # odd term imaginary only
@example(P(1), P(0, 1, 0, 1), GaussianRational(0))  # den z + z^3 vanishes at 0
# real q at non-real w, Knuth's two-term recurrence: w = z^2 = i/2 is purely imaginary, so t = 0
@example(P(1, 0, 3, 0, -2, 0, 5), P(4, 0, -1), GaussianRational(Fraction(1, 2), Fraction(1, 2)))
# a constant real q (g = 0 reads w = z^0 = 1) and a linear real q at w = z^3 and z^4
@example(P(0, 0, 3), P(2, 0, 0, -5), GaussianRational(Fraction(1, 3), Fraction(1, 2)))
@example(P(-7), P(1, 0, 0, 0, 7), GaussianRational(Fraction(-3, 4), Fraction(2, 5)))
# w whose imaginary part is the least subnormal double, so m = Re^2 + Im^2 is not a double
@example(P(1, -3, 0, 2, 7), P(3, 1, 4, 1, 5), GaussianRational(Fraction(0.75), Fraction(5e-324)))
# the two-term recurrence over integers, w = (a + bi)/E: E = 15 is not a power of two, and
# w = 2 + i/2 has an int real part
@example(P(2, -1, 0, 5, 3), P(1, 4, 0, -2), GaussianRational(Fraction(1, 3), Fraction(2, 5)))
@example(P(3, 0, -1, 4, 1, -2), P(5, -2, 1), GaussianRational(2, Fraction(1, 2)))
# a degree-63 real q (z A_64(z)) at a point with subnormal parts, E = 2^1074
@example(li_neg(64).num, P(3, 1, 4, 1, 5), GaussianRational(Fraction(5e-324), Fraction(1e-320)))
# a denominator whose value is negative at a real point, and at a non-real one (z^2 at i/2),
# each divided without the conjugate product, its sign moved into the numerator
@example(P(1, 2), P(-3, 1), GaussianRational(Fraction(1, 2)))
@example(P(1, 0, 0, 4), P(0, 0, 1), GaussianRational(0, Fraction(1, 2)))
# s = 2 and s = 3 in the two-term recurrence at z = Z/15, so z^s = Z^s/15^s
@example(P(0, 0, 3, 0, -1, 0, 2), P(0, 0, 0, 1, 0, 0, 4), GaussianRational(Fraction(1, 3), Fraction(2, 5)))
# a Gaussian q with s = 1 at a non-real point, in the Fraction loop
@example(P(0, 2, 0, GaussianRational(1, -3)), P(1, 0, I), GaussianRational(Fraction(1, 2), Fraction(-1, 3)))
def test_strided_horner_is_the_naive_sum(num, den, z):
    # the first read of each polynomial keeps its stride; every later one reads it from the slot
    assert horner_value(num, z) == naive_sum(num, z) and horner_value(den, z) == naive_sum(den, z)
    f = RationalFunction(num, den)
    want = naive_value(f, z)
    if want is None:
        with pytest.raises(PoleError):
            rf_eval_exact(f, z)
    else:
        # rf_eval_exact is (x + yi)/d of _quotient reduced, which hides the sign of d
        assert algebra._quotient(f, *algebra._over_one_denominator(z.re, z.im))[2] > 0
        assert rf_eval_exact(f, z) == want
    # rf_eval at a double: the naive value at the double's exact value, rounded once
    zd = complex(float(z.re), float(z.im))
    want = naive_value(f, GaussianRational(Fraction(zd.real), Fraction(zd.imag)))
    if want is None:
        with pytest.raises(PoleError):
            rf_eval(f, zd)
    else:
        assert rf_eval(f, zd) == complex(float(want.re), float(want.im))


def test_hash_consed_polynomials_shared_by_two_routes_read_identically():
    # li_neg and li_neg_stirling share their canonical polynomials, so the route read second
    # reads the stride the first one kept; an equal copy, built apart, reads its own
    z, zd = GaussianRational(Fraction(3, 10), Fraction(1, 5)), 0.3 + 0.2j
    for n in (1, 5, 20):
        f, h = li_neg(n), li_neg_stirling(n)
        assert f.num is h.num and f.den is h.den
        assert rf_eval(f, zd) == rf_eval(h, zd) and rf_eval_exact(f, z) == rf_eval_exact(h, z)
        for p in (f.num, f.den):
            copy = Polynomial(p.coeffs)
            assert copy is not p and copy.horner(z) == p.horner(z)
            assert horner_value(p, z) == naive_sum(p, z)


# -- rendering and serialization ---------------------------------------------


def test_poly_text_rendering():
    assert poly_text(P(-1, 0, -1).scale(1)) == "-1 - z^2"
    assert poly_text(P(0, 1, 0, 6, 0, 1)) == "z + 6z^3 + z^5"
    assert poly_text(Polynomial([])) == "0"
    assert poly_text(P(GaussianRational(0, -2), GaussianRational(3, -1), I)) == "-2i + (3-i)z + iz^2"
    assert poly_text(P(0, 1, 0, 6, 0, 1), var="u") == "u + 6u^3 + u^5"


def test_rf_text_rendering():
    assert rf_to_text(RF([0, 1], [1, -1])) == "z/(1-z)"
    assert rf_to_text(RF([0, 1], [1, -2, 1])) == "z/(1-z)^2"
    assert rf_to_text(RF([0, 1, 1], [1, -3, 3, -1])) == "(z + z^2)/(1-z)^3"
    assert rf_to_text(RationalFunction.zero()) == "0"
    assert rf_to_text(RF([0, 3], [2])) == "3z/2"
    # a rational coefficient is rendered as a fraction of its own
    assert rf_to_text(RF([1, 1], [2, -4, 2])) == "(1/2 + (1/2)z)/(1-z)^2"


def test_rf_latex_rendering():
    assert rf_to_latex(RF([0, 1], [1, -1])) == r"\frac{z}{(1-z)}"
    assert rf_to_latex(RF([0, 1, 1], [1, -3, 3, -1])) == r"\frac{z + z^{2}}{(1-z)^{3}}"
    assert rf_to_latex(RF([1, 1], [2, -4, 2])) == r"\frac{\frac{1}{2} + \frac{1}{2}z}{(1-z)^{2}}"


def test_gaussian_power_display_is_pinned():
    # the displayed base is a primitive part of a gcd quotient; which Gaussian
    # associate the content computation picks shows in the text
    cases = [
        ({"num": ["0", "-3+3i", "-36+36i", "81"],
          "den": ["648-648i", "-144+144i", "-856+856i", "1392-96i", "144-288i", "-864", "324+324i"]},
         "((3/4)iz + 9iz^2 + (81/8-81/8i)z^3)/((-9+9i)+(1-i)z+(6-6i)z^2-9z^3)^2"),
        ({"num": ["-16+16i", "48i", "24-120i", "-184", "240+744i", "336-216i", "-1440-816i",
                  "504+1704i", "3120+1080i", "-1704-800i", "-2184+1008i", "3528+1176i", "2744"],
          "den": ["-128-128i", "-1728i", "4464-2928i", "4104+7008i", "-10824+2328i", "10356-14640i",
                  "16940+7836i", "-20010+12456i", "5370-10350i", "18575-648i", "-9666+5832i", "-972",
                  "5832"]},
         "((-16+16i) + 48iz + (24-120i)z^2 - 184z^3 + (240+744i)z^4 + (336-216i)z^5"
         " + (-1440-816i)z^6 + (504+1704i)z^7 + (3120+1080i)z^8 + (-1704-800i)z^9"
         " + (-2184+1008i)z^10 + (3528+1176i)z^11 + 2744z^12)/((4-4i)+18z+(-10+6i)z^2-z^3+18z^4)^3"),
    ]
    for blob, text in cases:
        assert rf_to_text(rf_from_json(blob)) == text


def test_json_round_trip():
    f = RF([0, 1, 0, 6, 0, 1], [1, 0, -3, 0, 3, 0, -1])
    blob = json.dumps(rf_to_json(f))
    assert rf_from_json(json.loads(blob)) == f


def test_json_round_trip_gaussian():
    f = RationalFunction(Polynomial([GaussianRational(1, 2), I]), Polynomial([2, GaussianRational(0, -1)]))
    assert rf_from_json(rf_to_json(f)) == f


def test_powered_display_handles_sign_flips():
    # canonical storage normalizes the denominator's lead; display flips back
    f = RF([0, 1], [1, 0, -1])
    assert f.den.lead() == GaussianRational(1)  # stored as z^2 - 1 style
    assert rf_to_text(f) == "z/(1-z^2)"
    # a negative imaginary constant term flips too, on the perfect-power path
    # and on its fallback: 1/((z+2i)^3 (z+1)) has a square-free part of even degree
    # but is no perfect power, 1/((z-2i)(z+1)) has no repeated root
    cases = [
        (P(2 * I, 1) ** 3 * P(1, 1), "-1/(8i+(12+8i)z+(12-6i)z^2+(-1-6i)z^3-z^4)"),
        (P(-2 * I, 1) * P(1, 1), "-1/(2i+(-1+2i)z-z^2)"),
        (P(-2 * I, 1) ** 3, "-1/(2i-z)^3"),
    ]
    for den, text in cases:
        assert rf_to_text(RationalFunction(P(1), den)) == text
