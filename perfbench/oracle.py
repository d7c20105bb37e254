"""Reference values the benchmark checks the library's outputs against.

Everything here is written independently of ``negpolylog``: the closed-form
numerators come from explicit alternating sums over the defining series,
and the numeric references are computed with mpmath at high precision on the
exact double input.  mpmath is a dependency of the benchmark only.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import comb

import mpmath

REF_DPS = 80  # working digits for every mpmath reference
DOUBLE_LIMIT = 1e300  # a reference beyond this is outside double range


# ---------------------------------------------------------------------------
# exact integer polynomials (coefficient lists, lowest degree first)
# ---------------------------------------------------------------------------


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_pow(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def _trim(a: list[int]) -> list[int]:
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def same_fraction(num: list[int], den: list[int], ref_num: list[int], ref_den: list[int]) -> bool:
    """num/den == ref_num/ref_den, decided by exact cross-multiplication."""
    return _trim(poly_mul(num, ref_den)) == _trim(poly_mul(ref_num, den))


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """Coefficient of z^k in the numerator of Li_{-n}(z) over (1 - z)^(n+1).

    The explicit sum sum_{j<k} (-1)^j C(n+1, j) (k - j)^n, i.e. the series
    sum_m m^n z^m multiplied by (1 - z)^(n+1) and truncated.
    """
    return sum((-1) ** j * comb(n + 1, j) * (k - j) ** n for j in range(k))


@lru_cache(maxsize=None)
def eulerian_b(n: int, k: int) -> int:
    """Coefficient of z^(2k-1) in the numerator of chi_{-n}(z) over (1 - z^2)^(n+1).

    The explicit type-B sum sum_{j<k} (-1)^j C(n+1, j) (2(k - j) - 1)^n, from
    the odd series sum_m m^n z^m multiplied by (1 - z^2)^(n+1).
    """
    return sum((-1) ** j * comb(n + 1, j) * (2 * (k - j) - 1) ** n for j in range(k))


def closed_form_reference(kind: str, n: int) -> tuple[list[int], list[int]]:
    """(numerator, denominator) of Li/chi/Ti at order -n from the explicit sums."""
    if kind == "li":
        num = [0] + [eulerian(n, k) for k in range(1, n + 2)]
        return num, poly_pow([1, -1], n + 1)
    num = [0] * (2 * n + 2)
    for k in range(1, n + 2):
        b = eulerian_b(n, k)
        num[2 * k - 1] = b if kind == "chi" else (-1) ** (k - 1) * b
    den_base = [1, 0, -1] if kind == "chi" else [1, 0, 1]
    return num, poly_pow(den_base, n + 1)


_RECURRENCE_MULT = {"cot": [-1, 0, -1], "tan": [1, 0, 1], "coth": [1, 0, -1], "tanh": [1, 0, -1]}


def derivative_poly_reference(target: str, n: int) -> list[int]:
    """P_n with P_0 = u and P_{m+1} = m(u) P_m', m(u) from d/dx target = m(target)."""
    p = [0, 1]
    for _ in range(n):
        deriv = [k * c for k, c in enumerate(p)][1:] or [0]
        p = _trim(poly_mul(_RECURRENCE_MULT[target], deriv))
    return p


def ladder_reference(n: int) -> list[int]:
    return [(-1) ** (n - k) * 2**k * comb(n, k) for k in range(n + 1)]


def parse_int_coeffs(coeffs) -> list[int] | None:
    """Integer coefficient list from decimal strings; None if any is not an integer."""
    try:
        return [int(c) for c in coeffs]
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# numeric references
# ---------------------------------------------------------------------------


def _li_ref(n: int, z: mpmath.mpc) -> mpmath.mpc:
    """Li_{-n}(z) = z A_n(z) / (1 - z)^(n+1) at REF_DPS digits; inf at z = 1."""
    den = (1 - z) ** (n + 1)
    if den == 0:
        return mpmath.mpc(mpmath.inf)
    acc = mpmath.mpc(0)
    for k in range(n + 1, 0, -1):
        acc = acc * z + eulerian(n, k)
    return acc * z / den


def closed_form_value(kind: str, n: int, z: complex) -> complex | None:
    """Reference value of Li/chi/Ti at order -n at the exact double z.

    Returns None where the true value is infinite or outside double range:
    those are the only points the benchmark declines to evaluate.
    """
    with mpmath.workdps(REF_DPS):
        w = mpmath.mpc(z.real, z.imag)
        if kind == "li":
            v = _li_ref(n, w)
        elif kind == "chi":
            v = (_li_ref(n, w) - _li_ref(n, -w)) / 2
        else:
            iw = mpmath.mpc(0, 1) * w
            v = (_li_ref(n, iw) - _li_ref(n, -iw)) / mpmath.mpc(0, 2)
        if not (mpmath.isfinite(v.real) and mpmath.isfinite(v.imag)):
            return None
        if abs(v.real) > DOUBLE_LIMIT or abs(v.imag) > DOUBLE_LIMIT:
            return None
        return complex(float(v.real), float(v.imag))


_MP_FUNCS = {"csc": mpmath.csc, "sec": mpmath.sec, "csch": mpmath.csch, "sech": mpmath.sech}

# f^(n) = f * Q_n(g): (g, d/dx g as a polynomial in g, d/dx log f as a polynomial in g)
_DERIV_STRUCTURE = {
    "csc": (mpmath.cot, [-1, 0, -1], [0, -1]),
    "sec": (mpmath.tan, [1, 0, 1], [0, 1]),
    "csch": (mpmath.coth, [1, 0, -1], [0, -1]),
    "sech": (mpmath.tanh, [1, 0, -1], [0, -1]),
}


def derivative_value(fn: str, n: int, x: float) -> tuple[float, float] | None:
    """(value, scale) of the n-th derivative of csc/sec/csch/sech at the exact double x.

    The value is mpmath's numerical derivative at REF_DPS digits.  The scale
    is |f(x)| * sum_k |q_k| |g(x)|^k for f^(n) = f * Q_n(g): the size of the
    terms a double-precision route must cancel, so a route's error is judged
    against it rather than against a value that may sit near a zero.
    """
    g_fn, dg, dlogf = _DERIV_STRUCTURE[fn]
    q = [1]
    for _ in range(n):
        deriv = [k * c for k, c in enumerate(q)][1:] or [0]
        q = _trim([a + b for a, b in _zip_pad(poly_mul(q, dlogf), poly_mul(deriv, dg))])
    with mpmath.workdps(REF_DPS):
        xm = mpmath.mpf(x)
        v = mpmath.diff(_MP_FUNCS[fn], xm, n)
        if not mpmath.isfinite(v) or abs(v) > DOUBLE_LIMIT:
            return None
        g = abs(g_fn(xm))
        scale = abs(_MP_FUNCS[fn](xm)) * sum(abs(c) * g**k for k, c in enumerate(q))
        return float(v), float(scale)


def _zip_pad(a: list[int], b: list[int]):
    m = max(len(a), len(b))
    return zip(a + [0] * (m - len(a)), b + [0] * (m - len(b)))


def close_complex(got: complex, want: complex, rtol: float) -> bool:
    return math.isfinite(abs(got)) and abs(got - want) <= rtol * abs(want)
