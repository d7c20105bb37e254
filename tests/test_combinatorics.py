"""Exact-sequence tests; small values pinned against brute-force enumeration."""

import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from negpolylog import polylog
from negpolylog.algebra import rf_eval_exact
from negpolylog.combinatorics import (
    binomial, eulerian_b, eulerian_b_row, eulerian_row, stirling2, stirling2_row, stirling_power_sum,
)
from negpolylog.polylog import li_neg


def set_partitions(elems):
    """All partitions of a list into nonempty blocks, by direct recursion."""
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_stirling2(n, k):
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def stirling2_by_sum(n, k):
    """{n brace k} = (1/k!) sum_{j=0..k} (-1)^j C(k, j) (k-j)^n, the explicit formula."""
    return Fraction(sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)), factorial(k))


def eulerian_b_by_sum(n, k):
    """S(n, k) = sum_{j=1..k} (-1)^(k-j) C(n+1, k-j) (2j-1)^n, the defining alternating sum."""
    return sum((-1) ** (k - j) * comb(n + 1, k - j) * (2 * j - 1) ** n for j in range(1, k + 1))


def eulerian_by_sum(n, k):
    """A(n, k) = sum_{j=0..k} (-1)^j C(n+1, j) (k+1-j)^n, the explicit formula."""
    return sum((-1) ** j * comb(n + 1, j) * (k + 1 - j) ** n for j in range(k + 1))


def clear_builder_caches():
    """Empty the cache of every memoized row and closed form."""
    for cached in (stirling2_row, eulerian_row, eulerian_b_row, polylog._row_form):
        cached.cache_clear()


def test_stirling2_small_values():
    assert stirling2(3, 3) == 1
    assert stirling2(3, 2) == 3 == brute_stirling2(3, 2)
    assert stirling2(5, 0) == 0
    assert stirling2(4, 7) == 0  # k > n


def test_stirling2_matches_enumeration():
    for n in range(8):
        for k in range(n + 2):
            assert stirling2(n, k) == brute_stirling2(n, k), (n, k)


def test_stirling2_recurrence():
    for n in range(30):
        for k in range(n + 2):
            assert stirling2(n + 1, k) == k * stirling2(n, k) + stirling2(n, k - 1)


def test_eulerian_b_values():
    assert eulerian_b(2, 2) == 6
    assert eulerian_b(4, 3) == 230
    assert eulerian_b(5, 1) == 1


def test_eulerian_b_range_check():
    with pytest.raises(ValueError):
        eulerian_b(3, 0)
    with pytest.raises(ValueError):
        eulerian_b(3, 5)


def test_eulerian_b_first_rows():
    expected = [(1,), (1, 1), (1, 6, 1), (1, 23, 23, 1), (1, 76, 230, 76, 1)]
    for n, row in enumerate(expected):
        assert eulerian_b_row(n) == row


def test_eulerian_b_row_sum_and_symmetry():
    for n in range(21):
        row = eulerian_b_row(n)
        assert sum(row) == 2**n * factorial(n)
        for k in range(1, n + 2):
            assert eulerian_b(n, k) == eulerian_b(n, n + 2 - k)


def test_eulerian_first_rows():
    # OEIS A008292, rows 1..7; A(n, n) = 0 closes each row from n = 1 on
    printed = [(1,), (1, 1), (1, 4, 1), (1, 11, 11, 1), (1, 26, 66, 26, 1), (1, 57, 302, 302, 57, 1),
               (1, 120, 1191, 2416, 1191, 120, 1)]
    assert eulerian_row(0) == (1,)
    for n, row in enumerate(printed, 1):
        assert eulerian_row(n) == (*row, 0)


def test_eulerian_row_sum_and_symmetry():
    for n in range(1, 21):
        row = eulerian_row(n)
        assert sum(row) == factorial(n) and row[n] == 0
        assert row[:n] == row[n - 1::-1]


def test_rows_equal_their_defining_sums():
    # the rows are built by recurrences; the closed-form sums are the definitions
    for n in range(65):
        assert stirling2_row(n) == tuple(stirling2_by_sum(n, k) for k in range(n + 1)), n
        assert eulerian_row(n) == tuple(eulerian_by_sum(n, k) for k in range(n + 1)), n
        assert eulerian_b_row(n) == tuple(eulerian_b_by_sum(n, k) for k in range(1, n + 2)), n


def test_cold_builds_are_iterative_and_order_independent():
    clear_builder_caches()
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        eulerian_b_row(300), eulerian_row(300), stirling2_row(300)
        polylog.li_neg(200), polylog.chi_neg(200), polylog.ti_neg(200)
    finally:
        sys.setrecursionlimit(limit)
    # highest order first: nothing below it is cached yet
    clear_builder_caches()
    chi, li = polylog.chi_neg(64), polylog.li_neg(64)
    assert chi == polylog.chi_from_li(64)
    assert li == polylog.li_neg_stirling(64)


def test_concurrent_first_computation_is_safe():
    # cache contract: concurrent first calls may compute a value twice, and
    # every caller sees an equal value
    import threading
    from concurrent.futures import ThreadPoolExecutor

    clear_builder_caches()
    start = threading.Barrier(8, timeout=60)

    def worker(_):
        start.wait()
        return (stirling2(40, 17), eulerian_b(25, 12),
                polylog.li_neg(40), polylog.chi_neg(40), polylog.ti_neg(40))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = set(pool.map(worker, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 1
    s, e, li, chi, ti = results.pop()
    assert s == stirling2(40, 17) and e == eulerian_b(25, 12)
    assert li == polylog.li_neg_stirling(40)
    assert chi == polylog.chi_from_li(40) and ti == polylog.ti_from_chi(40)


def test_binomial():
    assert binomial(6, 3) == 20
    assert all(binomial(n, 0) == 1 for n in range(10))
    assert binomial(4, 7) == 0
    assert binomial(4, -1) == 0
    # Pascal recurrence
    for n in range(1, 15):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_stirling_power_sum_over_rationals():
    # with base w = z/(1-z) the sum is Li[-n](z); z = 1/3 gives w = 1/2
    for n in range(8):
        total = stirling_power_sum(n, Fraction(1, 2), factorial)
        assert rf_eval_exact(li_neg(n), Fraction(1, 3)) == total, n
    # {3 brace 1..3} = 1, 3, 1: 1/2 + 3/4 + 1/8
    assert stirling_power_sum(2, Fraction(1, 2), lambda k: 1) == Fraction(11, 8)


def test_stirling_power_sum_rejects_negative_orders():
    for n in (-1, -2):
        with pytest.raises(ValueError, match="n must be >= 0"):
            stirling_power_sum(n, Fraction(1, 2), factorial)
