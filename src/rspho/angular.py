"""Angular sector: supersymmetric factorization of the polar equation.

After separating variables, the polar function H(theta) obeys a
Schroedinger-like equation with the trigonometric barrier Vt*cot^2(theta).
The superpotential W(theta) = -q*cot(theta) factorizes it; its partner
potentials are shape invariant with remainder R(a_k) = a_k^2 - a_{k-1}^2,
so the whole spectrum telescopes in closed form.  The outputs feeding the
radial sector are the barrier strength parameter q and the separation
constant lambda.

Every function here is pure; grids are plain numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import BranchSign, PotentialParams, Symmetry
from .numerics import nonnegative, simpson, sqrt

__all__ = [
    "AngularSolution",
    "ShapeInvarianceChain",
    "v_tilde",
    "q_of_vtilde",
    "angular_spectrum",
    "shape_invariance_chain",
    "lambda_separation",
    "lambda_from_coupling",
    "angular_ground_state",
    "partner_potentials_angular",
    "default_theta_grid",
    "solve_angular",
]


@dataclass(frozen=True)
class AngularSolution:
    """All angular-sector quantities for one (energy, quantum-number) choice.

    ``e_tilde_sum`` is the spectrum value n^2 + 2nq + q obtained by
    telescoping the shape-invariance remainders; ``e_tilde_printed`` is the
    perfect-square variant (n + q)^2.  The two coincide only when q^2 = q;
    the finite-difference oracle confirms the sum form is the true operator
    spectrum (see module oracle).
    """

    v_tilde: float
    q: float
    e_tilde_sum: float
    e_tilde_printed: float
    lam: float
    m: int
    n_theta: int


@dataclass(frozen=True)
class ShapeInvarianceChain:
    """Parameter ladder a_k = q + k and remainders R(a_k) = a_k^2 - a_{k-1}^2."""

    a: list[float]
    remainders: list[float]


def _coupling(E, M: float, params: PotentialParams, symmetry: Symmetry):
    """The signed ring coupling w = s*2(E+M)(B+C), s = +1 spin / -1 pseudo-spin."""
    return symmetry.coupling_sign * 2.0 * (E + M) * (params.B + params.C)


def v_tilde(E: float, M: float, params: PotentialParams, m: int,
            symmetry: Symmetry) -> float:
    """Effective cot^2 barrier strength of the polar equation.

    Spin:        Vt = -2(E+M)(B+C) - m^2 + 1/4
    Pseudo-spin: Vt = +2(E+M)(B+C) - m^2 + 1/4
    """
    return 0.25 - _coupling(E, M, params, symmetry) - m * m


def q_of_vtilde(vt: float, branch: BranchSign) -> float:
    """Solve q^2 - q = Vt for the superpotential strength q = 1/2 +/- sqrt(1/4 + Vt)."""
    radicand = 0.25 + vt
    if radicand < 0.0:
        raise DomainError(f"q is complex: 1/4 + v_tilde = {radicand} < 0")
    return 0.5 + branch.sign * math.sqrt(radicand)


def angular_spectrum(q: float, n_theta: int) -> tuple[float, float]:
    """Both closed forms of the n-th angular eigenvalue.

    Returns (sum form n^2 + 2nq + q, squared form (n + q)^2).  They agree
    only for q in {0, 1}; the sum form is the one the operator actually has.
    """
    n = n_theta
    return (n * n + 2.0 * n * q + q, (n + q) ** 2)


def shape_invariance_chain(q: float, n: int) -> ShapeInvarianceChain:
    """Build the ladder a_k = q + k, k = 0..n, with its telescoping remainders."""
    if n < 0:
        raise DomainError(f"chain length must be >= 0 (got {n})")
    a = [q + k for k in range(n + 1)]
    remainders = [a[k] ** 2 - a[k - 1] ** 2 for k in range(1, n + 1)]
    return ShapeInvarianceChain(a=a, remainders=remainders)


def lambda_from_coupling(w, m: int, n_theta: int, branch: BranchSign):
    """Separation constant as a function of the signed ring coupling w.

    lambda = [n_theta + 1/2 +/- sqrt(1/2 - w - m^2)]^2 + w + m^2 - 1/2

    This single core serves the spin, pseudo-spin, and non-relativistic
    variants, which differ only in what w is.  w may be a float (a negative
    radicand raises DomainError) or an array (NaN where it is negative).
    """
    root = sqrt(nonnegative(0.5 - w - m * m,
                            "separation-constant radicand negative: 1/2 - w - m^2 = {}"))
    bracket = n_theta + 0.5 + branch.sign * root
    return bracket * bracket + w + m * m - 0.5


def lambda_separation(E, M: float, params: PotentialParams, m: int,
                      n_theta: int, branch: BranchSign, symmetry: Symmetry):
    """Separation constant linking the angular and radial equations.

    Energy-dependent because the ring coupling scales with (E + M); the
    radial solver therefore treats lambda as part of its self-consistency
    loop rather than a fixed input.  E may be a float or an array, as in
    lambda_from_coupling.
    """
    return lambda_from_coupling(_coupling(E, M, params, symmetry), m, n_theta, branch)


def partner_potentials_angular(q: float, theta: float) -> tuple[float, float]:
    """Supersymmetric partner pair generated by W(theta) = -q*cot(theta).

    v_minus = W^2 - W' = (q^2 - q) cot^2 theta - q
    v_plus  = W^2 + W' = (q^2 + q) cot^2 theta + q

    Shape invariance: v_plus(q, theta) - v_minus(q+1, theta) = 2q + 1 for
    every theta.
    """
    if not 0.0 < theta < math.pi:
        raise DomainError(f"theta must lie in (0, pi) (got {theta})")
    cot2 = (math.cos(theta) / math.sin(theta)) ** 2
    v_plus = (q * q + q) * cot2 + q
    v_minus = (q * q - q) * cot2 - q
    return v_plus, v_minus


def default_theta_grid(points: int = 2001, endpoint_margin: float = 1e-9) -> np.ndarray:
    """Uniform grid on (0, pi) with a small exclusion at the singular ends."""
    return np.linspace(endpoint_margin, math.pi - endpoint_margin, points)


def angular_ground_state(q: float, theta_grid: np.ndarray) -> np.ndarray:
    """Unit-normalized ground-state profile G0(theta) ~ sin^(q - 1/2) theta.

    Normalization uses composite Simpson quadrature of |G0|^2 sin(theta)
    over the supplied grid.  The sin(theta) weight is the surface measure
    of the polar coordinate.  Requires q > 1/2 for normalizability.
    """
    if q <= 0.5:
        raise DomainError(f"ground state not normalizable: requires q > 1/2 (got q = {q})")
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size < 3:
        raise DomainError("theta grid needs at least 3 points for quadrature")
    if np.any(theta_grid <= 0.0) or np.any(theta_grid >= math.pi):
        raise DomainError("theta grid must lie strictly inside (0, pi)")
    profile = np.sin(theta_grid) ** (q - 0.5)
    norm_sq = simpson(profile**2 * np.sin(theta_grid), x=theta_grid)
    return profile / math.sqrt(norm_sq)


def solve_angular(E: float, M: float, params: PotentialParams, m: int,
                  n_theta: int, branch: BranchSign,
                  symmetry: Symmetry) -> AngularSolution:
    """Assemble the full angular solution at a given energy."""
    vt = v_tilde(E, M, params, m, symmetry)
    q = q_of_vtilde(vt, branch)
    e_sum, e_printed = angular_spectrum(q, n_theta)
    lam = lambda_separation(E, M, params, m, n_theta, branch, symmetry)
    return AngularSolution(v_tilde=vt, q=q, e_tilde_sum=e_sum,
                           e_tilde_printed=e_printed, lam=lam, m=m, n_theta=n_theta)
