"""Exact integer sequences used by every closed form.

Stirling numbers of the second kind are computed by the triangular
recurrence with full rows cached per n.  Eulerian numbers of type B are
computed by the alternating single sum

    S(n, k) = sum_{j=1..k} (-1)^(k-j) C(n+1, k-j) (2j-1)^n,   1 <= k <= n+1,

which is adopted verbatim as the defining normalization.  Note the
indexing: row n here has n+1 entries k = 1..n+1 and equals row n+1 of
OEIS A060187, i.e. S(n, k) = A060187(n+1, k).

All values are Python ints (arbitrary precision); everything is exact.
Row caches are plain dicts: concurrent readers are safe, and concurrent
first-writers at worst duplicate a row computation before one of the
identical results is published.
"""

from __future__ import annotations

from math import comb, factorial

__all__ = [
    "stirling2", "stirling2_row", "stirling_power_sum", "eulerian_b", "eulerian_b_row", "binomial",
    "factorial",
]

_STIRLING_ROWS: dict[int, tuple[int, ...]] = {0: (1,)}
_EULERIAN_B_ROWS: dict[int, tuple[int, ...]] = {}


def stirling2_row(n: int) -> tuple[int, ...]:
    """Row ({n brace 0}, ..., {n brace n}) of Stirling numbers of the second kind."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = _STIRLING_ROWS.get(n)
    if row is not None:
        return row
    # walk down to the nearest cached row with .get only: iterating the dict
    # itself would race against concurrent first-writers
    top = n - 1
    prev = None
    while top > 0:
        prev = _STIRLING_ROWS.get(top)
        if prev is not None:
            break
        top -= 1
    if prev is None:
        top, prev = 0, (1,)
    for m in range(top + 1, n + 1):
        # {m brace k} = k*{m-1 brace k} + {m-1 brace k-1}
        cur = [0] * (m + 1)
        for k in range(1, m):
            cur[k] = k * prev[k] + prev[k - 1]
        cur[m] = 1
        prev = tuple(cur)
        _STIRLING_ROWS[m] = prev
    return prev


def stirling2(n: int, k: int) -> int:
    """{n brace k}: partitions of an n-set into k nonempty blocks (0 for k < 0 or k > n)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return stirling2_row(n)[k]


def stirling_power_sum(n: int, base, weight, den=None):
    """sum_{k=0..n} weight(k) {n+1 brace k+1} base^(k+1), the paper's central identity.

    ``base`` is any exact value closed under ``+`` and ``*`` that also takes
    exact scalars on the right (a ``Polynomial`` or ``Fraction``);
    ``weight(k)`` returns an exact scalar.  Powers are built incrementally,
    one multiplication by ``base`` per term.

    With a common denominator ``den`` = q, the sum is that of the powers of
    base/q, and this returns its numerator over q^(n+1):
    sum_k weight(k) {n+1 brace k+1} base^(k+1) q^(n-k), accumulated by the
    step acc <- acc * q + term, so no quotient is ever formed.
    """
    row = stirling2_row(n + 1)
    power = base
    acc = power * (weight(0) * row[1])
    for k in range(1, n + 1):
        power = power * base
        if den is not None:
            acc = acc * den
        acc = acc + power * (weight(k) * row[k + 1])
    return acc


def eulerian_b(n: int, k: int) -> int:
    """Eulerian number of type B, S(n, k), for 1 <= k <= n+1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 1 <= k <= n + 1:
        raise ValueError(f"k must satisfy 1 <= k <= n+1, got k={k} for n={n}")
    return eulerian_b_row(n)[k - 1]


def eulerian_b_row(n: int) -> tuple[int, ...]:
    """Row (S(n, 1), ..., S(n, n+1))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    row = _EULERIAN_B_ROWS.get(n)
    if row is None:
        row = tuple(
            sum((-1) ** (k - j) * comb(n + 1, k - j) * (2 * j - 1) ** n for j in range(1, k + 1))
            for k in range(1, n + 2)
        )
        _EULERIAN_B_ROWS[n] = row
    return row


def binomial(n: int, k: int) -> int:
    """C(n, k), with the convention that out-of-range k gives 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)
