"""Exact integer sequences used by every closed form.

Stirling numbers of the second kind follow the triangular recurrence.
Eulerian numbers of type B are defined by the alternating single sum

    S(n, k) = sum_{j=1..k} (-1)^(k-j) C(n+1, k-j) (2j-1)^n,   1 <= k <= n+1,

adopted verbatim as the normalization, and built by the recurrence
S(n, k) = (2k-1) S(n-1, k) + (2n-2k+3) S(n-1, k-1) (Brenti, Europ. J. Combin.
15, 1994); a test compares the two for every n <= 64.  Row n has n+1 entries
k = 1..n+1 and equals row n+1 of OEIS A060187: S(n, k) = A060187(n+1, k).

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

@cache
def stirling2_row(n: int) -> tuple[int, ...]:
    """Row ({n brace 0}, ..., {n brace n}), by {n brace k} = k {n-1 brace k} + {n-1 brace k-1}."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (1,)
    for m in range(n):  # ascending, so a cold call nests at most one level
        prev = stirling2_row(m)
    return (0, *[k * prev[k] + prev[k - 1] for k in range(1, n)], 1)


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
    """Row (S(n, 1), ..., S(n, n+1)), by the three-term recurrence from row n - 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return (1,)
    for m in range(n):  # ascending, so a cold call nests at most one level
        prev = eulerian_b_row(m)
    p = (0, *prev, 0)  # p[k] = S(n-1, k), zero outside 1..n
    return tuple((2 * k - 1) * p[k] + (2 * n - 2 * k + 3) * p[k - 1] for k in range(1, n + 2))


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)
