"""Independent finite-difference eigensolver for cross-checking closed forms.

Discretizes -u'' + V(x) u = E u on a uniform interior grid with Dirichlet
ends as a symmetric tridiagonal matrix (diagonal 2/h^2 + V(x_i),
off-diagonal -1/h^2) and extracts its lowest eigenvalues, each within
eps*|T| (|T| the larger Gershgorin bound in size), in one of two ways,
picked by numerics.numpy_loaded as the energy scan picks its form.

In a process that has loaded numpy, the matrix is a pair of arrays and
eigh_tridiagonal runs shift-invert Lanczos on it, stopped on Kato-Temple
error bounds and certified by one Sturm count, or LAPACK's Sturm-sequence
bisection where the certificate fails.  Each Lanczos step is one LAPACK
solve (dpttrs) and a few BLAS vector operations, all in place in a
column-major Krylov basis, and the stopping tests run on the few tracked
Ritz values as Python floats, so a call costs little more than its LAPACK
work and the Gram-Schmidt products.

In a process that has not, as in a fresh ``rspho verify``, the grid, the
potential and the matrix are lists of Python floats and sturm_eigenvalues
finds the levels with nothing to import: Sturm counts bracket each level,
and steps on the characteristic polynomial p, from p'/p that each count's
recurrence also gives (Newton's, or the pole of a fit to two counts where
that goes further), shrink the bracket to eps*|T|, as LAPACK's bisection
(dstebz) certifies its levels.  Importing numpy and scipy would cost a
cold process several times the twenty-odd counts of a verify case.

Either way the eigenvalues share no algebra with the closed forms they
verify, the library's own radial_spectrum, q_of_vtilde and
angular_spectrum (which also size the radial grid), which is the whole
point: agreement is evidence.

The second-order scheme halves-the-step/quarters-the-error; the default
grids put eigenvalue errors near 1e-6 relative, far inside the 1e-3
verification gate.
"""

from __future__ import annotations

import math
import sys
from numbers import Integral
from typing import TYPE_CHECKING

from .angular import angular_spectrum, q_of_vtilde
from .errors import DomainError
from .model import BranchSign, _Record
from .numerics import numpy_loaded, require_finite, tan
from .radial import radial_spectrum

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GridSpec",
    "OracleReport",
    "fd_eigenvalues",
    "verify_radial",
    "verify_angular",
    "default_radial_grid",
    "default_angular_grid",
]

_REL_TOL = 1e-3


class GridSpec(_Record):
    """Uniform interior grid on (lower, upper) with Dirichlet endpoints.

    ``points`` interior nodes at x_i = lower + i*h, h = (upper - lower)/(points + 1);
    ``points`` is an integer, at least 16.
    """

    lower: float
    upper: float
    points: int

    def __init__(self, lower, upper, points):
        if not lower < upper:
            raise ValueError(f"need lower < upper (got {lower}, {upper})")
        if not isinstance(points, Integral):
            raise ValueError(f"points must be an integer (got {points!r})")
        if points < 16:
            raise ValueError(f"points must be >= 16 (got {points})")
        self.__dict__.update(lower=lower, upper=upper, points=points)

    @property
    def h(self) -> float:
        return (self.upper - self.lower) / (self.points + 1)

    def interior(self) -> np.ndarray:
        import numpy as np
        return self.lower + self.h * np.arange(1, self.points + 1)


class OracleReport(_Record):
    """Outcome of one closed-form-versus-finite-difference comparison.

    ``predicted_printed`` carries the rival perfect-square angular form
    when relevant, for documentation of which form the operator rejects.
    """

    computed: list[float]
    predicted: list[float]
    max_rel_error: float
    grid: GridSpec
    converged: bool
    predicted_printed: list[float] | None

    def __init__(self, computed, predicted, max_rel_error, grid, converged,
                 predicted_printed=None):
        self.__dict__.update(computed=computed, predicted=predicted, max_rel_error=max_rel_error,
                             grid=grid, converged=converged, predicted_printed=predicted_printed)


_EPS = 2.0**-52

# Lanczos gives way to bisection after this many steps.  Step k
# reorthogonalizes against k vectors, so its cost grows with k, and the
# cap bounds the work spent before the fallback to a few bisections.  The
# default grids certify their three levels in 10-14 steps.
_LANCZOS_STEPS = 64

# Rounding in the factorization, the solves and sigma + 1/theta, in units
# of eps*|T|, by which each certified interval is widened.
_ROUNDING = 4.0


def eigh_tridiagonal(diag, off, count):
    """The ``count`` lowest eigenvalues, ascending, of the symmetric
    tridiagonal matrix T with diagonal ``diag`` and off-diagonal ``off``.

    Shift-invert Lanczos (_lanczos) finds them to within eps*|T|, the
    absolute tolerance of LAPACK's bisection, where |T| is the larger
    Gershgorin bound in size, and certifies them.  Where it cannot (near-
    degenerate levels, or no certificate within _LANCZOS_STEPS steps),
    LAPACK's bisection (scipy.linalg.eigh_tridiagonal with select="i")
    finds them instead.  numpy and scipy are imported on first use.
    """
    import numpy as np
    # A power of two scales T to entries below 1 in size exactly, so no
    # step of the iteration can overflow or underflow.
    _, exponent = math.frexp(max(diag.max(), -diag.min(),
                                 off.max(initial=0.0), -off.min(initial=0.0)))
    values = _lanczos(np.ldexp(diag, -exponent), np.ldexp(off, -exponent), count)
    if values is None:
        return _bisection(diag, off, count)
    return np.ldexp(values, exponent)


def _bisection(diag, off, count):
    """The ``count`` lowest eigenvalues of T by LAPACK's bisection (dstebz)."""
    from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal
    return scipy_eigh_tridiagonal(diag, off, eigvals_only=True,
                                  select="i", select_range=(0, count - 1))


def _lanczos(diag, off, count):
    """The ``count`` lowest eigenvalues of T, certified, or None.

    The shift sigma lies sqrt(eps)*|T| below the Gershgorin lower bound,
    so T - sigma*I is positive definite.  It is factored once (LAPACK
    dpttrf).  Each Lanczos step on (T - sigma*I)^-1, from a fixed start
    vector, works in place in the next column of the Krylov basis, which
    is stored column-major so that the k columns done are one contiguous
    matrix: a copy of the last vector, one solve over it (dpttrs), the
    three-term recurrence (BLAS daxpy and ddot), one classical Gram-Schmidt
    pass against every earlier vector (one dgemv for the coefficients and
    one that subtracts the projection in place), and a scaling by the
    inverse norm (dscal).  The pass keeps the basis orthogonal where
    cancellation is heavy, as when the Krylov space fills a small grid.

    The steps track count + 1 Ritz values theta, largest first, each with
    a residual bound r, so that theta +- r holds an eigenvalue mu of the
    inverse.  Where these first-order intervals of the ``count`` levels
    are disjoint and the top one lies above 1/(xi - sigma), xi being the
    midpoint of the top level and sigma + 1/theta of the next Ritz value,
    the Kato-Temple inequality bounds each level more tightly:

        theta - r^2/(beta - theta) <= mu <= theta + r^2/(theta - alpha),

    alpha and beta being the nearest ends of the neighbouring levels'
    intervals (alpha = 1/(xi - sigma) for the top level, beta = inf for
    the lowest).  The steps stop once these bounds, mapped to T through
    lambda = sigma + 1/mu, are at most eps*|T|, and _certified checks the
    result with one Sturm count at xi, which is what makes alpha and beta
    rigorous.  The bounds fall with r^2, twice as fast as r, so the Ritz
    values (LAPACK dstev) are first computed after 2(count + 1) steps, the
    next time where a fall of two decades a step would take the bound to
    eps*|T|, and from then on where its fall between the last two checks
    would.  These checks work on the count + 1 values as Python floats.

    Levels whose first-order bounds reach eps*|T| while their intervals
    still overlap are too close to tell apart, and None leaves them to
    bisection.  So does rounding: the Ritz values carry errors of about
    eps*theta_1, the largest of them, which sigma + 1/theta turns into
    eps*theta_1/theta^2, above eps*|T| on a coarse grid whose lowest
    levels spread over much of its spectrum.
    """
    import numpy as np
    from scipy.linalg import blas, lapack
    points = diag.size
    edge = np.abs(off)
    radius = np.empty(points)
    radius[:-1] = edge
    radius[-1] = 0.0
    radius[1:] += edge
    low = float((diag - radius).min())
    norm = max(abs(low), abs(float((diag + radius).max())))
    tol = _EPS * norm
    sigma = low - math.sqrt(_EPS) * norm
    factor_d, factor_e, info = lapack.dpttrf(diag - sigma, off, overwrite_d=1)
    if info:
        return None
    steps = min(_LANCZOS_STEPS, points)
    tracked = count + 1
    # Step k builds its vector in column k, so the last step needs one
    # column beyond the steps' basis vectors.
    basis = np.empty((points, steps + 1), order="F")
    # Neither symmetric nor antisymmetric about the grid's middle, so the
    # eigenvectors of either parity of a symmetric potential have a share.
    start = 1.0 + np.arange(points) / points
    w = basis[:, 0]
    w[:] = start / math.sqrt(start @ start)
    v, alpha, beta = None, [], []
    check_at, previous = 2 * tracked, None
    for k in range(1, steps + 1):
        u, v, w = v, w, basis[:, k]
        w[:] = v
        lapack.dpttrs(factor_d, factor_e, w, overwrite_b=1)
        if beta:
            blas.daxpy(u, w, a=-beta[-1])
        a = blas.ddot(v, w)
        blas.daxpy(v, w, a=-a)
        done = basis[:, :k]
        c = blas.dgemv(1.0, done, w, trans=1)
        blas.dgemv(-1.0, done, c, beta=1.0, y=w, overwrite_y=1)
        alpha.append(a + c.item(-1))
        b = math.sqrt(blas.ddot(w, w))
        end = k == steps or b == 0.0
        if k >= check_at or end:
            if k < tracked:
                return None
            ritz, vectors, _ = lapack.dstev(alpha, beta)
            theta = ritz[:-tracked - 1:-1].tolist()
            level = theta[:count]
            r = [abs(b * x) for x in vectors[-1, :-count - 1:-1].tolist()]
            xi = sigma + 0.5 * (1.0 / level[-1] + 1.0 / theta[count])
            below = [t + e for t, e in zip(level[1:], r[1:])] + [1.0 / (xi - sigma)]
            above = [math.inf] + [t - e for t, e in zip(level[:-1], r)]
            if all(t - e > lo for t, e, lo in zip(level, r, below)):
                err = []
                for t, e, lo, hi in zip(level, r, below, above):
                    up = e * e / (t - lo)
                    down = e * e / (hi - t)
                    err.append(max(up / (t * (t + up)), down / (t * (t - down))))
                worst = max(err)
                if worst <= tol:
                    if level[0] > norm * level[-1] ** 2:
                        return None
                    rounding = _ROUNDING * tol
                    return _certified(diag, off, count, sigma, xi,
                                      [sigma + 1.0 / t for t in level],
                                      [e + rounding for e in err])
            elif all(t > e for t, e in zip(level, r)):
                worst = max(e / (t * (t - e)) for t, e in zip(level, r))
                if worst <= tol:
                    return None
            else:
                worst = math.inf
            if end:
                return None
            if worst == math.inf:
                check_at, previous = k + 1, None
            else:
                decades = math.log10(worst / tol)
                # A bound that fell less than a decade a step, or rose (as
                # where the levels' intervals overlap again), is taken to
                # fall a decade a step.
                rate = 2.0 if previous is None else max(
                    1.0, (previous[1] - decades) / (k - previous[0]))
                previous = (k, decades)
                check_at = k + math.ceil(decades / rate)
        blas.dscal(1.0 / b, w)
        beta.append(b)


def _certified(diag, off, count, sigma, xi, values, radius):
    """``values`` if the intervals values +- radius are disjoint, lie below
    ``xi`` and hold exactly ``count`` eigenvalues of T, else None.

    One Sturm count (LAPACK dstebz over (sigma, xi], with a tolerance wider
    than that range, so that it counts without bisecting) finds the
    eigenvalues up to xi; sigma lies below them all.
    """
    from scipy.linalg import lapack
    if not all(v - r > u + s for u, s, v, r in
               zip(values, radius, values[1:], radius[1:])):
        return None
    if not values[-1] + radius[-1] < xi:
        return None
    found, _, _, _, info = lapack.dstebz(diag, off, 1, sigma, xi, 0, 0,
                                         2.0 * (xi - sigma), b"E")
    return values if info == 0 and found == count else None


# LAPACK's safe minimum (dlamch "S").  A Sturm count clamps a pivot
# smaller than this in size to minus it, so no pivot is zero; it is
# LAPACK's pivmin, safemin*max(1, max e^2), for T scaled below 1.
_SAFEMIN = sys.float_info.min

# Steps per level before its bracket is only bisected, which then takes
# at most 53 counts to shrink it from the Gershgorin interval to eps*|T|.
# The default grids certify a level in 6-8 counts.
_NEWTON_COUNTS = 64


def sturm_eigenvalues(diag, off, count):
    """The ``count`` lowest eigenvalues, ascending, of the symmetric
    tridiagonal matrix T with diagonal ``diag`` and off-diagonal ``off``,
    lists of floats, in pure Python.

    Each eigenvalue is the midpoint of an interval of width at most
    eps*|T| whose ends Sturm counts place on either side of it, as LAPACK's
    bisection (dstebz) certifies its levels.  T is first scaled by a power
    of two to entries below 1 in size, exactly, so that no count overflows.
    Each count (_sturm_count) also gives p'/p at its point x, p being the
    characteristic polynomial det(T - x*I), and with it (_rest) the sum
    G(x) of 1/(lambda_j - x) over the eigenvalues from level k up, the k
    levels already found deflated.

    Level k is bracketed by the highest point counted with at most k
    eigenvalues at or below it and the lowest counted with more (the
    Gershgorin bounds before any count).  Below level k, the Newton step
    x + 1/G(x) on p deflated stays below it and rises to it, so level k
    starts at the highest point such a step reaches from an earlier count.
    From a count below the level, the step is the larger of Newton's and
    of the pole of 1/(lambda - x) + c fitted to G at this count and the
    last one below, or the one it started from (a constant c for the
    levels above, as in LAPACK's secular-equation solver dlaed4).  The
    pole also stays below the level, since the part of G that c stands for
    grows with x, and it takes Newton's slow approach from far below in a
    step or two.  From a count above,
    the step is Newton's.  A step that leaves the bracket gives way to
    bisection, and so does every step after _NEWTON_COUNTS counts; a step
    shorter than half the tolerance goes half the tolerance further, so
    that the next count closes the bracket.  No closed form enters, not
    even as a starting point.
    """
    _, exponent = math.frexp(max(max(diag), -min(diag),
                                 max(off, default=0.0), -min(off, default=0.0)))
    diag = [math.ldexp(d, -exponent) for d in diag]
    off = [math.ldexp(e, -exponent) for e in off]
    squares = [0.0] + [e * e for e in off]
    radius = [abs(a) + abs(b) for a, b in zip([0.0] + off, off + [0.0])]
    low = min(d - r for d, r in zip(diag, radius))
    high = max(d + r for d, r in zip(diag, radius))
    tol = _EPS * max(abs(low), abs(high))
    counted = []        # (x, eigenvalues at or below x, p'/p at x)
    levels = []
    for k in range(count):
        lo = max([low] + [point for point, below, _ in counted if below <= k])
        hi = min([high] + [point for point, below, _ in counted if below > k])
        starts = []
        for point, below, slope in counted:
            rest = _rest(point, slope, levels)
            if below <= k and rest > 0.0 and point + 1.0 / rest < hi:
                starts.append((point + 1.0 / rest, (point, rest)))
        # The count that a start steps from is the first point of the fit.
        # Level 0 starts at the Gershgorin low end, where nothing is counted.
        x, previous = max(starts, default=(0.5 * (lo + hi) if counted else low, None))
        steps = 0
        while hi - lo > tol:
            below, slope = _sturm_count(diag, squares, x)
            counted.append((x, below, slope))
            rest = _rest(x, slope, levels)
            step = 1.0 / rest if rest else math.nan
            if below <= k:             # step up to the level
                sign = 1.0
                lo = max(lo, x)
                if previous is not None and x > previous[0] and rest > previous[1]:
                    width = x - previous[0]
                    a = (rest - previous[1]) * width
                    pole = 2.0 * width / (a + math.sqrt(a * (a + 4.0)))
                    if pole > step or math.isnan(step):
                        step = pole
                previous = (x, rest)
            else:                       # step down to it
                sign = -1.0
                hi = min(hi, x)
            if not sign * step > 0.0:
                step = sign * tol
            elif sign * step < 0.5 * tol:
                step += sign * 0.5 * tol
            x += step
            if steps >= _NEWTON_COUNTS or not (x < hi if sign > 0.0 else x > lo):
                x = 0.5 * (lo + hi)
            steps += 1
        levels.append(0.5 * (lo + hi))
    return [math.ldexp(v, exponent) for v in levels]


def _rest(x, slope, levels):
    """G(x) = sum 1/(lambda_j - x) over the eigenvalues above the found
    ``levels``, from slope = p'(x)/p(x) = sum 1/(x - lambda_j) over all of
    them; NaN where x is one of ``levels``."""
    try:
        return sum(1.0 / (x - v) for v in levels) - slope
    except ZeroDivisionError:
        return math.nan


def _sturm_count(diag, squares, x):
    """(eigenvalues of T at or below x, p'(x)/p(x)) from one pass over T.

    The pivots of T - x*I = L D L^T, q_i = d_i - x - e_{i-1}^2/q_{i-1}, are
    negative for as many eigenvalues (``squares`` holds 0 and then each
    e_i^2); a pivot smaller than _SAFEMIN in size counts as negative and
    becomes -_SAFEMIN, as in LAPACK.  p'/p = sum q_i'/q_i, and the ratio
    r_i = q_i'/q_i = (e_{i-1}^2/q_{i-1} * r_{i-1} - 1)/q_i follows the
    pivots.
    """
    pivmin = _SAFEMIN
    below = 0
    q = 1.0
    r = slope = 0.0
    for d, b in zip(diag, squares):
        f = b / q
        q = d - f - x
        if q < pivmin:
            below += 1
            if q > -pivmin:
                q = -pivmin
        r = (f * r - 1.0) / q
        slope += r
    return below, slope


def fd_eigenvalues(potential, grid: GridSpec, count: int) -> list[float]:
    """Lowest ``count`` Dirichlet eigenvalues of -u'' + potential(x) u = E u.

    In a process that has loaded numpy, ``potential`` is called once, on
    the array of interior grid points, with numpy's floating-point warnings
    off, and returns one value per point (an array of another shape raises
    ValueError), and the eigenvalues come from eigh_tridiagonal.  In one
    that has not, ``potential`` is called on each grid point as a float
    (a ZeroDivisionError or OverflowError it raises counts as a value that
    is not finite), and the eigenvalues come from sturm_eigenvalues.  The
    grid points, h^2 and the diagonal have the same bits either way, given
    the same potential values, and the eigenvalues lie within a few eps*|T|
    of LAPACK's bisection.

    A potential value that is not finite, overflowed or not, raises
    DomainError.  So does a grid step h whose h^2 or 2/h^2 overflows, and a
    diagonal 2/h^2 + V(x) that overflows.  ``count`` must be an integer
    (not a bool) from 1 to points/4 (ValueError).
    """
    _require_count(count)
    if count > grid.points // 4:
        raise ValueError(
            f"count = {count} too large for {grid.points} grid points "
            "(need count <= points/4 for trustworthy discrete levels)")
    if not numpy_loaded():
        return _fd_floats(potential, grid, count)
    import numpy as np
    x = grid.interior()
    with np.errstate(all="ignore"):
        v = np.asarray(potential(x), dtype=float)
    if v.shape != x.shape:
        raise ValueError(f"potential must return one value per grid point: got shape "
                         f"{v.shape} for grid points of shape {x.shape}")
    if not np.isfinite(v).all():
        bad = x[~np.isfinite(v)][0]
        raise DomainError(f"potential evaluates non-finite at x = {bad}")
    h2 = _step_squared(grid)
    with np.errstate(over="ignore"):
        diag = 2.0 / h2 + v
    if not np.isfinite(diag).all():
        bad = x[~np.isfinite(diag)][0]
        raise DomainError(f"diagonal 2/h^2 + V overflows at x = {bad}")
    off = np.full(grid.points - 1, -1.0 / h2)
    return eigh_tridiagonal(diag, off, count).tolist()


def _fd_floats(potential, grid: GridSpec, count: int) -> list[float]:
    """fd_eigenvalues on Python floats, for a process without numpy."""
    h = grid.h
    x = [grid.lower + h * i for i in range(1, grid.points + 1)]
    v = []
    for point in x:
        try:
            value = potential(point)
        except (ZeroDivisionError, OverflowError):
            value = math.nan
        if not math.isfinite(value):
            raise DomainError(f"potential evaluates non-finite at x = {point}")
        v.append(value)
    h2 = _step_squared(grid)
    kinetic = 2.0 / h2
    diag = [kinetic + value for value in v]
    for d, point in zip(diag, x):
        if not math.isfinite(d):
            raise DomainError(f"diagonal 2/h^2 + V overflows at x = {point}")
    return sturm_eigenvalues(diag, [-1.0 / h2] * (grid.points - 1), count)


def _step_squared(grid: GridSpec) -> float:
    """h^2 of ``grid``; DomainError where h^2 or 2/h^2 overflows."""
    h = grid.h
    try:
        h2 = h**2
    except OverflowError:
        h2 = math.inf
    if not 0.0 < h2 < math.inf or 2.0 / h2 == math.inf:
        raise DomainError(f"grid step h = {h} makes h^2 or 2/h^2 overflow")
    return h2


def _require_count(count: int) -> None:
    if not isinstance(count, Integral) or isinstance(count, bool):
        raise ValueError(f"count must be an integer (got {count!r})")
    if count < 1:
        raise ValueError(f"count must be >= 1 (got {count})")


def default_radial_grid(delta_prime: float, big_delta: float, count: int,
                        points: int = 4000) -> GridSpec:
    """Radial grid sized to the classical turning point of the highest level.

    r_max = sqrt(Et_max)/big_delta + 6/sqrt(big_delta) leaves the exact
    eigenfunction tail below ~1e-9 at the artificial Dirichlet wall.
    The lower end starts at min(1e-6, 1e-4/sqrt(big_delta)) instead of 0,
    so within 1e-4 oscillator lengths of it however stiff the oscillator;
    the eigenfunctions vanish super-linearly there for delta_prime >= 0.
    An r_max that is not finite, or not above the lower end, raises
    DomainError.
    """
    et_max = radial_spectrum(big_delta, -0.5 - math.sqrt(0.25 + delta_prime), count - 1)
    r_max = math.sqrt(et_max) / big_delta + 6.0 / math.sqrt(big_delta)
    lower = min(1e-6, 1e-4 / math.sqrt(big_delta))
    if not lower < r_max < math.inf:
        raise DomainError(f"radial grid end r_max = {r_max} must be finite and above "
                          f"the lower end {lower} (delta_prime = {delta_prime}, "
                          f"big_delta = {big_delta})")
    return GridSpec(lower=lower, upper=r_max, points=points)


def default_angular_grid(points: int = 4000) -> GridSpec:
    """Polar grid on (eps, pi - eps) emulating the singular endpoints."""
    eps = 1e-6
    return GridSpec(lower=eps, upper=math.pi - eps, points=points)


def verify_radial(delta_prime: float, big_delta: float, count: int = 3,
                  points: int = 4000) -> OracleReport:
    """Compare FD eigenvalues of delta'/r^2 + big_delta^2 r^2 with the ladder.

    The grid is default_radial_grid(delta_prime, big_delta, count, points),
    built once the inputs pass their checks, ``count`` (ValueError) first.
    Prediction: radial_spectrum at delta = -1/2 - sqrt(1/4 + delta').
    """
    _require_count(count)
    require_finite(delta_prime=delta_prime, big_delta=big_delta)
    if delta_prime < 0.0:
        raise DomainError(f"delta_prime must be >= 0 for the Dirichlet emulation "
                          f"(got {delta_prime})")
    if big_delta <= 0.0:
        raise DomainError(f"big_delta must be positive (got {big_delta})")
    try:
        stiffness = big_delta**2
    except OverflowError:
        raise DomainError(f"big_delta^2 overflows (big_delta = {big_delta})") from None
    grid = default_radial_grid(delta_prime, big_delta, count, points)
    delta = -0.5 - math.sqrt(0.25 + delta_prime)
    predicted = [radial_spectrum(big_delta, delta, n) for n in range(count)]

    def potential(r):
        r2 = r * r
        return delta_prime / r2 + stiffness * r2

    computed = fd_eigenvalues(potential, grid, count)
    rel = max(abs(c - p) / abs(p) for c, p in zip(computed, predicted))
    return OracleReport(computed=computed, predicted=predicted,
                        max_rel_error=rel, grid=grid,
                        converged=rel <= _REL_TOL)


def verify_angular(v0: float, count: int = 3, points: int = 4000) -> OracleReport:
    """Compare FD eigenvalues of v0*cot^2(theta) with the two closed forms.

    The grid is default_angular_grid(points), built once the inputs pass
    their checks, ``count`` (ValueError) first.  Prediction:
    angular_spectrum's sum form at q = q_of_vtilde(v0, PLUS), with its
    perfect-square rival alongside, which the operator rejects.
    """
    _require_count(count)
    require_finite(v0=v0)
    if v0 < 0.0:
        raise DomainError(f"v0 must be >= 0 for the Dirichlet emulation (got {v0})")
    grid = default_angular_grid(points)
    q = q_of_vtilde(v0, BranchSign.PLUS)
    predicted = [angular_spectrum(q, n)[0] for n in range(count)]
    printed = [angular_spectrum(q, n)[1] for n in range(count)]

    def potential(t):
        tangent = tan(t)
        return v0 / (tangent * tangent)

    computed = fd_eigenvalues(potential, grid, count)
    rel = max(abs(c - p) / abs(p) for c, p in zip(computed, predicted))
    return OracleReport(computed=computed, predicted=predicted,
                        max_rel_error=rel, grid=grid,
                        converged=rel <= _REL_TOL,
                        predicted_printed=printed)
