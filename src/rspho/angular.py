"""Angular sector: supersymmetric factorization of the polar equation.

After separating variables, the polar function H(theta) obeys a
Schroedinger-like equation with the trigonometric barrier Vt*cot^2(theta).
The superpotential W(theta) = -q*cot(theta) factorizes it; its partner
potentials are shape invariant with remainder R(a_k) = a_k^2 - a_{k-1}^2,
so the whole spectrum telescopes in closed form.  The outputs feeding the
radial sector are the barrier strength parameter q and the separation
constant lambda.  Each has one formula, which the verify suite checks:
q is q_of_vtilde's, and lambda = angular_level(q, n_theta) - 1/4, the sum
form of the telescoped spectrum.  The solver's residual and the
oscillator-limit ladder call both, with floats or arrays.

The ground state sin^(q - 1/2) theta is normalized in closed form, by
the integral of sin^(2q) theta over (0, pi).  Every function here is pure;
grids are numpy arrays, and numpy is imported only by the functions that
take or make them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import BranchSign, _Record
from .numerics import nonnegative, require_finite, sqrt

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ShapeInvarianceChain",
    "q_of_vtilde",
    "angular_level",
    "angular_spectrum",
    "shape_invariance_chain",
    "angular_ground_state",
    "partner_potentials_angular",
]


class ShapeInvarianceChain(_Record):
    """Parameter ladder a_k = q + k and remainders R(a_k) = a_k^2 - a_{k-1}^2."""

    a: list[float]
    remainders: list[float]

    def __init__(self, a, remainders):
        self.__dict__.update(a=a, remainders=remainders)


def q_of_vtilde(vt, branch):
    """Solve q^2 - q = Vt for the superpotential strength q = 1/2 +/- sqrt(1/4 + Vt).

    Vt = 1/4 - m^2 - w is the cot^2 barrier strength, with w = s*2(E+M)(B+C)
    the signed ring coupling (s = +1 spin, -1 pseudo-spin); the solver's
    residual assembles it (see spectrum._terms).  ``branch`` is a
    BranchSign or its numeric sign, which may be a column of signs.  vt
    may be a float or an array.  The radicand 1/4 + Vt is the separation
    constant's, 1/2 - w - m^2: a float one that is negative or NaN raises
    DomainError, and an array gets NaN there.
    """
    sign = branch.sign if isinstance(branch, BranchSign) else branch
    return 0.5 + sign * sqrt(nonnegative(
        0.25 + vt, "separation-constant radicand negative: "
                   "1/4 + v_tilde = 1/2 - w - m^2 = {}"))


def angular_level(q, n_theta):
    """The n-th angular eigenvalue in the sum form n^2 + 2nq + q, which
    telescoping the shape-invariance remainders gives; the separation
    constant is lambda = angular_level(q, n_theta) - 1/4.  q and n_theta
    may be floats or arrays."""
    n = n_theta
    return n * n + 2.0 * n * q + q


def angular_spectrum(q: float, n_theta: int) -> tuple[float, float]:
    """Both closed forms of the n-th angular eigenvalue.

    Returns (sum form angular_level(q, n_theta), squared form (n + q)^2).
    They agree only for q in {0, 1}; the sum form is the one the operator
    actually has.
    """
    return (angular_level(q, n_theta), (n_theta + q) * (n_theta + q))


def shape_invariance_chain(q: float, n: int) -> ShapeInvarianceChain:
    """Build the ladder a_k = q + k, k = 0..n, with its telescoping
    remainders.  A q that is not finite, a negative n, or an a_k whose
    square overflows raises DomainError."""
    require_finite(q=q)
    if n < 0:
        raise DomainError(f"chain length must be >= 0 (got {n})")
    a = [q + k for k in range(n + 1)]
    remainders = [a[k] * a[k] - a[k - 1] * a[k - 1] for k in range(1, n + 1)]
    if not all(map(math.isfinite, remainders)):
        raise DomainError(f"shape-invariance chain overflows: a_k^2 is not finite "
                          f"for q = {q}, n = {n}")
    return ShapeInvarianceChain(a=a, remainders=remainders)


def partner_potentials_angular(q: float, theta: float) -> tuple[float, float]:
    """Supersymmetric partner pair generated by W(theta) = -q*cot(theta).

    v_minus = W^2 - W' = (q^2 - q) cot^2 theta - q
    v_plus  = W^2 + W' = (q^2 + q) cot^2 theta + q

    Shape invariance: v_plus(q, theta) - v_minus(q+1, theta) = 2q + 1 for
    every theta.  A q that is not finite, a theta outside (0, pi), or a
    finite q and theta whose potentials overflow raise DomainError.
    """
    require_finite(q=q)
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie in (0, pi) (got {theta})")
    cot = math.cos(theta) / math.sin(theta)
    cot2 = cot * cot
    v_plus = (q * q + q) * cot2 + q
    v_minus = (q * q - q) * cot2 - q
    if not (math.isfinite(v_plus) and math.isfinite(v_minus)):
        raise DomainError(f"partner potentials overflow at q = {q}, theta = {theta}")
    return v_plus, v_minus


def angular_ground_state(q: float, theta_grid: np.ndarray) -> np.ndarray:
    """Unit-normalized ground-state profile G0(theta) = N sin^(q - 1/2) theta.

    N normalizes |G0|^2 sin(theta) over (0, pi), not over the grid; the
    sin(theta) weight is the surface measure of the polar coordinate.  The
    integral is that of sin^(2q) theta, sqrt(pi) Gamma(q + 1/2)/Gamma(q + 1)
    (DLMF 5.12).  Requires a finite q > 1/2 for normalizability and a
    strictly ascending grid inside (0, pi).  A grid on which a sample is
    not finite, or on which every sample is zero (one that misses the
    state), raises DomainError naming the cause, with no numpy warning.
    """
    require_finite(q=q)
    if q <= 0.5:
        raise DomainError(f"ground state not normalizable: requires q > 1/2 (got q = {q})")
    import numpy as np
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size < 3:
        raise DomainError("theta grid needs at least 3 points")
    if np.any(theta_grid <= 0.0) or np.any(theta_grid >= math.pi):
        raise DomainError("theta grid must lie strictly inside (0, pi)")
    if np.any(np.diff(theta_grid) <= 0.0):
        raise DomainError("theta grid must be strictly ascending")
    log_norm = -0.5 * (0.5 * math.log(math.pi) + math.lgamma(q + 0.5) - math.lgamma(q + 1.0))
    values = math.exp(log_norm) * np.sin(theta_grid) ** (q - 0.5)
    if not np.isfinite(values).all():
        raise DomainError(f"angular ground state is not finite on the grid (q = {q})")
    if not values.any():
        raise DomainError(f"angular ground state is zero at every grid point: the grid "
                          f"misses the state (q = {q})")
    return values
