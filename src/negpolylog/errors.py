"""Exception types shared across the library."""

__all__ = [
    "NegPolylogError", "DomainError", "PoleError", "SingularityError", "OrderExhaustedError",
    "ImaginaryResidueError",
]


class NegPolylogError(Exception):
    """Base class for all library errors."""


class DomainError(NegPolylogError):
    """Argument lies outside the real domain of the requested function."""


class PoleError(NegPolylogError):
    """Rational-function evaluation at a pole: the exact denominator is zero there."""


class SingularityError(NegPolylogError):
    """Evaluation point is within the guard radius of a pole or branch point."""


class OrderExhaustedError(NegPolylogError):
    """A jet was differentiated more times than its order supports."""


class ImaginaryResidueError(NegPolylogError):
    """An exact realness check failed: a form that must be real has a non-real coefficient."""
