"""Numerical building blocks shared by the angular, radial and energy code.

The closed forms take either a float or a numpy array of energies.  A
float outside a square root's domain raises DomainError naming the
radicand; an array gets NaN in the offending elements instead, so one
formula serves both a single evaluation and a whole energy scan.

scipy is imported on first use, not at package import: it costs far more
start-up time and memory than the rest of the package together.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["guarded", "sqrt", "simpson"]


def guarded(x, ok, what: str):
    """``x`` where the domain test ``ok`` (computed from ``x``) holds.

    An array comes back with NaN wherever ``ok`` is false, so everything
    computed from it is NaN there too.  A scalar for which ``ok`` is false
    raises DomainError with the message ``what.format(x)``.
    """
    if isinstance(x, np.ndarray):
        return np.where(ok, x, np.nan)
    if not ok:
        raise DomainError(what.format(x))
    return x


def sqrt(x):
    """Square root of a float or an array; pass values through guarded first.

    A float goes to math.sqrt, which returns a float and is several times
    faster than numpy on a single value.
    """
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def simpson(y, *, x):
    """Composite Simpson quadrature of samples ``y`` at abscissae ``x``."""
    from scipy.integrate import simpson as scipy_simpson
    return scipy_simpson(y, x=x)
