"""Exact integer sequences used by every closed form.

Three triangles share one step: r_n[k] = alpha r_(n-1)[k] + beta r_(n-1)[k-1] for
k = 0..n, from r_0 = (1,), with alpha affine in k and beta in (n, k), read from ``_STEPS``.
Stirling numbers of the second kind take (k, 1), and the Eulerian numbers A(n, k) take
(k + 1, n - k).  Eulerian numbers of type B are defined by the alternating single sum

    S(n, k) = sum_{j=1..k} (-1)^(k-j) C(n+1, k-j) (2j-1)^n,   1 <= k <= n+1,

adopted verbatim as the normalization, and built by Brenti's recurrence (Europ. J.
Combin. 15, 1994) S(n, k) = (2k-1) S(n-1, k) + (2n-2k+3) S(n-1, k-1), which is
(2k + 1, 2n - 2k + 1) at the 0-based index k - 1.  Tests compare each row with its
defining sum for n <= 64.  In OEIS, A(n, k) = A008292(n, k+1) for k = 0..n (so
A(n, n) = 0 for n >= 1), and S(n, k) = A060187(n+1, k).

All values are exact Python ints.  Each row is memoized with
``functools.cache`` and built in O(n) integer steps from row n - 1; a cold
call fills the rows below it in ascending order, so it nests one level.
Cache reads are thread-safe; concurrent first calls for one row may each
compute it, and every caller gets an equal row.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial

__all__ = [
    "stirling2", "stirling2_row", "stirling_power_sum", "eulerian_b", "eulerian_b_row", "binomial",
    "factorial",
]

# triangle -> the (alpha, beta) of its step: alpha (c, e) is c + e k, beta (c, d, e) is c + d n + e k
_STEPS = {
    "stirling2": ((0, 1), (1, 0, 0)),
    "eulerian": ((1, 1), (0, 1, -1)),
    "eulerian_b": ((1, 2), (1, 2, -2)),
}


def _row(rows, triangle: str, n: int) -> tuple[int, ...]:
    """Row n of ``triangle`` by its step from row n - 1, read through the memoized ``rows``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (1,)
    for m in range(n):  # ascending, so a cold call nests at most one level
        prev = rows(m)
    (ac, ae), (bc, bd, be) = _STEPS[triangle]
    bc += bd * n
    p = (*prev, 0)  # p[n] = p[-1] = 0: zero outside 0..n-1
    return tuple((ac + ae * k) * p[k] + (bc + be * k) * p[k - 1] for k in range(n + 1))


@cache
def stirling2_row(n: int) -> tuple[int, ...]:
    """Row ({n brace 0}, ..., {n brace n}), by {n brace k} = k {n-1 brace k} + {n-1 brace k-1}."""
    return _row(stirling2_row, "stirling2", n)


@cache
def eulerian_row(n: int) -> tuple[int, ...]:
    """Row (A(n, 0), ..., A(n, n)), by A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1)."""
    return _row(eulerian_row, "eulerian", n)


def stirling2(n: int, k: int) -> int:
    """{n brace k}: partitions of an n-set into k nonempty blocks (0 for k < 0 or k > n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return stirling2_row(n)[k]


def stirling_power_sum(n: int, base, weight, den=1):
    """sum_{k=0..n} weight(k) {n+1 brace k+1} base^(k+1), the paper's central identity.

    ``base`` is any exact value closed under ``+`` and ``*`` that also takes
    exact scalars on the right (an ``int``, as at the packed points of
    ``algebra.evaluate_packed``, a ``Fraction`` or a ``GaussianRational``);
    ``weight(k)`` returns an exact scalar.  Powers are built incrementally,
    one multiplication by ``base`` per term.

    With a common denominator ``den`` = q, the sum is that of the powers of
    base/q, and this returns its numerator over q^(n+1):
    sum_k weight(k) {n+1 brace k+1} base^(k+1) q^(n-k), accumulated by the
    step acc <- acc * q + term, so no quotient is ever formed.  ``den``
    defaults to 1, the plain sum.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    row = stirling2_row(n + 1)
    power = base
    acc = power * (weight(0) * row[1])
    for k in range(1, n + 1):
        power = power * base
        acc = acc * den + power * (weight(k) * row[k + 1])
    return acc


def eulerian_b(n: int, k: int) -> int:
    """Eulerian number of type B, S(n, k), for 1 <= k <= n+1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must satisfy 1 <= k <= n+1, got k={k} for n={n}")
    return eulerian_b_row(n)[k - 1]


@cache
def eulerian_b_row(n: int) -> tuple[int, ...]:
    """Row (S(n, 1), ..., S(n, n+1)), by Brenti's three-term recurrence from row n - 1."""
    return _row(eulerian_b_row, "eulerian_b", n)


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)
