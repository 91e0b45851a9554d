"""Independent finite-difference eigensolver for cross-checking closed forms.

Discretizes -u'' + V(x) u = E u on a uniform interior grid with Dirichlet
ends as a symmetric tridiagonal matrix (diagonal 2/h^2 + V(x_i),
off-diagonal -1/h^2) and extracts the lowest eigenvalues with a
Sturm-sequence bisection solver on the tridiagonal form.  This shares no
algebra with the shape-invariance spectra it verifies, which is the whole
point: agreement is evidence, not tautology.

The second-order scheme halves-the-step/quarters-the-error; the default
grids put eigenvalue errors near 1e-6 relative, far inside the 1e-3
verification gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError

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


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid on (lower, upper) with Dirichlet endpoints.

    ``points`` interior nodes at x_i = lower + i*h, h = (upper - lower)/(points + 1).
    """

    lower: float
    upper: float
    points: int

    def __post_init__(self) -> None:
        if not self.lower < self.upper:
            raise ValueError(f"need lower < upper (got {self.lower}, {self.upper})")
        if self.points < 16:
            raise ValueError(f"points must be >= 16 (got {self.points})")

    @property
    def h(self) -> float:
        return (self.upper - self.lower) / (self.points + 1)

    def interior(self) -> np.ndarray:
        import numpy as np
        return self.lower + self.h * np.arange(1, self.points + 1)


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one closed-form-versus-finite-difference comparison.

    ``predicted_printed`` carries the rival perfect-square angular form
    when relevant, for documentation of which form the operator rejects.
    """

    computed: list[float]
    predicted: list[float]
    max_rel_error: float
    grid: GridSpec
    converged: bool
    predicted_printed: list[float] | None = None


def eigh_tridiagonal(diag, off, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported on first use."""
    from scipy.linalg import eigh_tridiagonal as scipy_eigh_tridiagonal
    return scipy_eigh_tridiagonal(diag, off, **kwargs)


def fd_eigenvalues(potential, grid: GridSpec, count: int) -> list[float]:
    """Lowest ``count`` Dirichlet eigenvalues of -u'' + potential(x) u = E u.

    ``potential`` is called once, on the array of interior grid points,
    and returns one value per point; a value that is not finite raises
    DomainError.  So does a grid step h whose h^2 or 2/h^2 overflows,
    and a diagonal 2/h^2 + V(x) that overflows.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1 (got {count})")
    if count > grid.points // 4:
        raise ValueError(
            f"count = {count} too large for {grid.points} grid points "
            "(need count <= points/4 for trustworthy discrete levels)")
    import numpy as np
    x = grid.interior()
    v = np.asarray(potential(x), dtype=float)
    if not np.all(np.isfinite(v)):
        bad = x[~np.isfinite(v)][0]
        raise DomainError(f"potential evaluates non-finite at x = {bad}")
    h = grid.h
    try:
        h2 = h**2
    except OverflowError:
        h2 = math.inf
    if not 0.0 < h2 < math.inf or 2.0 / h2 == math.inf:
        raise DomainError(f"grid step h = {h} makes h^2 or 2/h^2 overflow")
    with np.errstate(over="ignore"):
        diag = 2.0 / h2 + v
    if not np.all(np.isfinite(diag)):
        bad = x[~np.isfinite(diag)][0]
        raise DomainError(f"diagonal 2/h^2 + V overflows at x = {bad}")
    off = np.full(grid.points - 1, -1.0 / h2)
    vals = eigh_tridiagonal(diag, off, eigvals_only=True,
                            select="i", select_range=(0, count - 1))
    return [float(e) for e in vals]


def default_radial_grid(delta_prime: float, big_delta: float, count: int,
                        points: int = 4000) -> GridSpec:
    """Radial grid sized to the classical turning point of the highest level.

    r_max = sqrt(Et_max)/big_delta + 6/sqrt(big_delta) leaves the exact
    eigenfunction tail below ~1e-9 at the artificial Dirichlet wall.
    The lower end starts at 1e-6 instead of 0; the eigenfunctions vanish
    super-linearly there for delta_prime >= 0.
    """
    et_max = 2.0 * big_delta * (2.0 * (count - 1) + 1.0
                                + math.sqrt(0.25 + delta_prime))
    r_max = math.sqrt(et_max) / big_delta + 6.0 / math.sqrt(big_delta)
    return GridSpec(lower=1e-6, upper=r_max, points=points)


def default_angular_grid(points: int = 4000) -> GridSpec:
    """Polar grid on (eps, pi - eps) emulating the singular endpoints."""
    eps = 1e-6
    return GridSpec(lower=eps, upper=math.pi - eps, points=points)


def _require_finite(**values: float) -> None:
    """Raise DomainError naming the first of ``values`` that is not finite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite (got {value})")


def verify_radial(delta_prime: float, big_delta: float, count: int = 3,
                  grid: GridSpec | None = None) -> OracleReport:
    """Compare FD eigenvalues of delta'/r^2 + big_delta^2 r^2 with the ladder.

    Prediction: Et_n = 2*big_delta*(2n + 1 + sqrt(1/4 + delta')).
    """
    _require_finite(delta_prime=delta_prime, big_delta=big_delta)
    if delta_prime < 0.0:
        raise DomainError(f"delta_prime must be >= 0 for the Dirichlet emulation "
                          f"(got {delta_prime})")
    if big_delta <= 0.0:
        raise DomainError(f"big_delta must be positive (got {big_delta})")
    if grid is None:
        grid = default_radial_grid(delta_prime, big_delta, count)
    predicted = [2.0 * big_delta * (2.0 * n + 1.0 + math.sqrt(0.25 + delta_prime))
                 for n in range(count)]
    computed = fd_eigenvalues(
        lambda r: delta_prime / r**2 + big_delta**2 * r**2, grid, count)
    rel = max(abs(c - p) / abs(p) for c, p in zip(computed, predicted))
    return OracleReport(computed=computed, predicted=predicted,
                        max_rel_error=rel, grid=grid,
                        converged=rel <= _REL_TOL)


def verify_angular(v0: float, count: int = 3,
                   grid: GridSpec | None = None) -> OracleReport:
    """Compare FD eigenvalues of v0*cot^2(theta) with the two closed forms.

    Prediction (sum form): Et_n = n^2 + 2nq + q with q = 1/2 + sqrt(1/4 + v0).
    The perfect-square rival (n + q)^2 is reported alongside; the operator
    agrees with the sum form only.
    """
    _require_finite(v0=v0)
    if v0 < 0.0:
        raise DomainError(f"v0 must be >= 0 for the Dirichlet emulation (got {v0})")
    if grid is None:
        grid = default_angular_grid()
    q = 0.5 + math.sqrt(0.25 + v0)
    predicted = [n * n + 2.0 * n * q + q for n in range(count)]
    printed = [(n + q) ** 2 for n in range(count)]
    import numpy as np
    computed = fd_eigenvalues(
        lambda t: v0 * (np.cos(t) / np.sin(t)) ** 2, grid, count)
    rel = max(abs(c - p) / abs(p) for c, p in zip(computed, predicted))
    return OracleReport(computed=computed, predicted=predicted,
                        max_rel_error=rel, grid=grid,
                        converged=rel <= _REL_TOL,
                        predicted_printed=printed)
