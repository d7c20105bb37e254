"""The declaration of a numeric route, the memo of a route's exact real form, and a checked exp."""

from __future__ import annotations

import functools
import math

from .algebra import require_real
from .errors import DomainError
from .jets import check_point


def checked_exp(x: float) -> float:
    """exp(x); DomainError, a library error, where it is beyond double range."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"exp({x!r}) is beyond double range") from None


def route(fn: str, label: str):
    """Declare body(n, x) a route for (d/dx)^n fn: order and point guarded; keeps fn, label."""
    def declare(body):
        @functools.wraps(body)
        def evaluate(n: int, x: float) -> float:
            if n < 0:
                raise ValueError("n must be >= 0")
            check_point(fn, x)
            return body(n, x)
        evaluate.fn, evaluate.label = fn, label
        return evaluate
    return declare


def real_form(label: str):
    """Declare build(n) a route's exact form: memoized per order, like ``li_neg``, and real."""
    return lambda build: functools.cache(lambda n: require_real(build(n), label, n))
