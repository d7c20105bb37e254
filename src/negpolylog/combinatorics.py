"""Exact integer sequences used by every closed form.

Stirling numbers of the second kind are computed by the triangular
recurrence with full rows cached per n.  Eulerian numbers of type B are
computed by the alternating single sum

    S(n, k) = sum_{j=1..k} (-1)^(k-j) C(n+1, k-j) (2j-1)^n,   1 <= k <= n+1,

which is adopted verbatim as the defining normalization.  Note the
indexing: row n here has n+1 entries k = 1..n+1 and equals row n+1 of
OEIS A060187, i.e. S(n, k) = A060187(n+1, k).

All values are Python ints (arbitrary precision); everything is exact.
Rows are memoized with ``functools.cache``, whose reads are thread-safe;
concurrent first calls for one row may each compute it, and every caller
gets an equal row.
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
    """Row ({n brace 0}, ..., {n brace n}) of Stirling numbers of the second kind."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = (1,)
    for m in range(1, n + 1):
        # {m brace k} = k*{m-1 brace k} + {m-1 brace k-1}
        cur = [0] * (m + 1)
        for k in range(1, m):
            cur[k] = k * row[k] + row[k - 1]
        cur[m] = 1
        row = tuple(cur)
    return row


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
    """Row (S(n, 1), ..., S(n, n+1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return tuple(
        sum((-1) ** (k - j) * comb(n + 1, k - j) * (2 * j - 1) ** n for j in range(1, k + 1))
        for k in range(1, n + 2)
    )


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)
