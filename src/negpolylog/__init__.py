"""Exact closed forms for the polylogarithm at orders 0, -1, -2, ... and the
machinery built on them: Legendre chi and inverse tangent integral closed
forms, derivative polynomials and multi-route evaluators for tan/cot/sec/csc
and their hyperbolic companions, operator identities for the twelve inverse
functions, and a binomial ladder sum tying orders together.

Everything structural is exact (arbitrary-precision rational, optionally
Gaussian, arithmetic with canonical rational functions); a truncated
Taylor-jet oracle provides the independent numeric cross-checks.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

from .algebra import *  # noqa: F401,F403
from .circular import *  # noqa: F401,F403
from .combinatorics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .hyperbolic import *  # noqa: F401,F403
from .inverse import *  # noqa: F401,F403
from .jets import *  # noqa: F401,F403
from .ladder import *  # noqa: F401,F403
from .polylog import *  # noqa: F401,F403
from .reports import *  # noqa: F401,F403

__version__ = "0.1.0"
