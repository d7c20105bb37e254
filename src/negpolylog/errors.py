"""Exception types shared across the library."""


class NegPolylogError(Exception):
    """Base class for all library errors."""


class DomainError(NegPolylogError):
    """Argument lies outside the real domain of the requested function."""


class PoleError(NegPolylogError):
    """Rational-function evaluation at a pole: the exact denominator is zero there."""


class SingularityError(NegPolylogError):
    """Evaluation point is within the guard radius of a pole or branch point."""


class NonConvergenceError(NegPolylogError):
    """Series evaluation hit the term cap before meeting the tolerance."""


class OrderExhaustedError(NegPolylogError):
    """A jet was differentiated more times than its order supports."""


class ImaginaryResidueError(NegPolylogError):
    """A complex-arithmetic evaluation failed to cancel its imaginary part."""
