"""Numerical building blocks shared by the angular, radial and energy code.

The closed forms take either a float or a numpy array of energies.  A
float outside a square root's domain raises DomainError naming the
radicand; an array gets NaN in the offending elements instead, so one
formula serves both a single evaluation and a whole energy scan.  The
checks (``positive``, ``nonnegative``) test floats only: an array passes
unchanged, np.sqrt makes NaN of a negative radicand by itself, and an
array caller masks what must be strictly positive once, at the end, so a
scan makes no copy per check.

``is_array`` tells the two apart without importing numpy, so the float
forms run in a process that has not loaded it; numpy is imported by the
code that works on arrays, when it runs.  ``numpy_loaded`` says whether
a process has paid for that import: the energy solver scans on floats
where it has not (see spectrum).

``sqrt``, ``exp`` and ``log`` send a float to math and an array to
numpy, so that one expression samples the radial wavefunction on a float
or on a grid array.  No quadrature runs here: both wavefunctions are
normalized in closed form (see radial and angular).
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

__all__ = ["is_array", "numpy_loaded", "require_finite", "positive", "nonnegative",
           "sqrt", "exp", "log"]


def is_array(x) -> bool:
    """isinstance(x, numpy.ndarray), without importing numpy: no array
    exists before numpy is loaded.  A float, the common case, is answered
    first."""
    if type(x) is float:
        return False
    np = sys.modules.get("numpy")
    return np is not None and isinstance(x, np.ndarray)


def numpy_loaded() -> bool:
    """Whether this process has imported numpy, an import that costs more
    than the float forms of a few hundred residual evaluations."""
    return "numpy" in sys.modules


def require_finite(**values: float) -> None:
    """Raise DomainError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite (got {value})")


def positive(x, what: str):
    """``x``, which must be positive.

    A float that is not (NaN included) raises DomainError with the message
    ``what.format(x)``.  An array comes back unchecked; the caller masks its
    elements that are not positive.
    """
    if not is_array(x) and not x > 0.0:
        raise DomainError(what.format(x))
    return x


def nonnegative(x, what: str):
    """``x``, which must be >= 0: a square root's radicand.

    A float that is not (NaN included) raises DomainError with the message
    ``what.format(x)``.  An array comes back unchecked; sqrt gives NaN for
    its negative elements.
    """
    if not is_array(x) and not x >= 0.0:
        raise DomainError(what.format(x))
    return x


def sqrt(x):
    """Square root of a float or an array; pass radicands through nonnegative.

    A float goes to math.sqrt, which returns a float and is several times
    faster than numpy on a single value.  An array goes to np.sqrt, NaN
    where negative; callers that expect such elements silence numpy's
    invalid-value warning with np.errstate.
    """
    if is_array(x):
        import numpy as np
        return np.sqrt(x)
    return math.sqrt(x)


def exp(x):
    """Exponential of a float or an array.

    A float goes to math.exp; one that overflows gives inf, as np.exp
    gives it for an array element (where callers silence numpy's warning
    with np.errstate).
    """
    if is_array(x):
        import numpy as np
        return np.exp(x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log(x):
    """Natural logarithm of a positive float or array (math.log or np.log)."""
    if is_array(x):
        import numpy as np
        return np.log(x)
    return math.log(x)
