"""Small numeric helpers for the float routes and the complex-arithmetic identity evaluators."""

from __future__ import annotations

import cmath
import functools
import math

from .errors import DomainError, ImaginaryResidueError
from .jets import check_point

# exact integer powers of i; complex exponentiation would round them
I_POWERS = (1 + 0j, 1j, -1 + 0j, -1j)

IMAG_RESIDUE_BOUND = 1e-9  # a real result's |im| may be at most this times 1 + |re|


def i_power(k: int) -> complex:
    return I_POWERS[k % 4]


def checked_real(val: complex, *, context: str = "") -> float:
    """Real part of ``val`` after asserting the imaginary residue is negligible."""
    limit = IMAG_RESIDUE_BOUND * (1.0 + abs(val.real))
    if abs(val.imag) > limit:
        raise ImaginaryResidueError(
            f"imaginary residue {val.imag!r} too large relative to {val.real!r}: "
            f"|im| exceeds bound*(1+|re|) = {limit!r} by a ratio of "
            f"{abs(val.imag) / limit:.3g}"
            + (f" in {context}" if context else "")
        )
    return val.real


def checked_exp(x: float) -> float:
    """exp(x); DomainError, a library error, where it is beyond double range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"exp({x!r}) is beyond double range") from None


def route(fn: str, label: str):
    """Declare body(n, x) a route for (d/dx)^n fn: guarded, range-checked, real; keeps fn, label."""
    def declare(body):
        @functools.wraps(body)
        def evaluate(n: int, x: float) -> float:
            if n < 0:
                raise ValueError("n must be >= 0")
            check_point(fn, x)
            try:
                val = body(n, x)
            except OverflowError:
                val = math.nan
            if cmath.isnan(val):
                raise DomainError(f"{label} n={n}, x={x} is beyond double range")
            return checked_real(val, context=f"{label} n={n}, x={x}")
        evaluate.fn, evaluate.label = fn, label
        return evaluate
    return declare
