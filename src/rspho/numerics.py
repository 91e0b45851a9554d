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

``simpson`` is plain numpy: the composite rule for irregular spacing with
Cartwright's correction of the last interval for an even sample count,
computed in the order of operations of SciPy's ``integrate.simpson`` so
that it returns the same bits on strictly ascending abscissae (the tests
compare the two).  The wavefunction and angular normalizations therefore
load no SciPy, whose import costs more start-up time and memory than the
rest of the package together.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError

__all__ = ["is_array", "numpy_loaded", "require_finite", "positive", "nonnegative",
           "sqrt", "simpson"]


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


def _simpson_panels(y, h, stop):
    """Simpson sum over the panels [x_i, x_i+2] for even i < stop."""
    import numpy as np
    h0 = h[0:stop:2]
    h1 = h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / h0divh1)
                        + y[1:stop + 1:2] * (hsum * (hsum / hprod))
                        + y[2:stop + 2:2] * (2.0 - h0divh1))
    return np.sum(tmp)


def simpson(y, *, x):
    """Composite Simpson quadrature of samples ``y`` at strictly ascending
    abscissae ``x``.

    An odd sample count is a sum of parabolic panels.  An even count
    covers all but the last interval with panels and adds Cartwright's
    (2017) three-point correction for the last one; two samples fall back
    to the trapezoid.  The weights divide by the steps plainly, as no step
    is 0: the callers (radial_wavefunction, angular_ground_state) reject a
    grid that is not strictly ascending.
    """
    import numpy as np
    y = np.asarray(y)
    x = np.asarray(x)
    if y.ndim != 1 or x.shape != y.shape or y.size == 0:
        raise ValueError(f"simpson needs 1-D y and x of one nonzero length "
                         f"(got shapes {y.shape} and {x.shape})")
    n = y.size
    h = np.diff(x).astype(np.float64, copy=False)
    if n % 2:
        return _simpson_panels(y, h, n - 2)
    # An even-count sum starts from 0.0, which turns a -0.0 result into 0.0.
    if n == 2:
        return 0.0 + 0.5 * (x[-1] - x[-2]) * (y[-1] + y[-2])
    # 0-d arrays, so that the powers and divisions run the same numpy loops
    # as the reference implementation.
    h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
    alpha = (2 * h1 ** 2 + 3 * h0 * h1) / (6 * (h1 + h0))
    beta = (h1 ** 2 + 3.0 * h0 * h1) / (6 * h0)
    eta = h1 ** 3 / (6 * h0 * (h0 + h1))
    last = alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return 0.0 + (_simpson_panels(y, h, n - 3) + last)
