"""Angular sector: supersymmetric factorization of the polar equation.

After separating variables, the polar function H(theta) obeys a
Schroedinger-like equation with the trigonometric barrier Vt*cot^2(theta).
The superpotential W(theta) = -q*cot(theta) factorizes it; its partner
potentials are shape invariant with remainder R(a_k) = a_k^2 - a_{k-1}^2,
so the whole spectrum telescopes in closed form.  The outputs feeding the
radial sector are the barrier strength parameter q and the separation
constant lambda.

Every function here is pure; grids are numpy arrays, and numpy is
imported only by the functions that take or make them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import BranchSign, PotentialParams, Symmetry
from .numerics import nonnegative, require_finite, simpson, sqrt

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AngularSolution",
    "ShapeInvarianceChain",
    "v_tilde",
    "q_of_vtilde",
    "angular_spectrum",
    "shape_invariance_chain",
    "lambda_separation",
    "coupling_from_terms",
    "lambda_from_terms",
    "separation_root",
    "lambda_from_root",
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


def coupling_from_terms(s2, fac, bc):
    """The signed ring coupling w = s*2(E+M)(B+C), s = +1 spin / -1 pseudo-spin,
    from s2 = s*2, fac = E + M and bc = B + C."""
    return s2 * fac * bc


def _coupling(E, M: float, params: PotentialParams, symmetry: Symmetry):
    """coupling_from_terms at E."""
    return coupling_from_terms(symmetry.coupling_sign * 2.0, E + M, params.B + params.C)


def v_tilde(E: float, M: float, params: PotentialParams, m: int,
            symmetry: Symmetry) -> float:
    """Effective cot^2 barrier strength of the polar equation.

    Spin:        Vt = -2(E+M)(B+C) - m^2 + 1/4
    Pseudo-spin: Vt = +2(E+M)(B+C) - m^2 + 1/4
    """
    return 0.25 - _coupling(E, M, params, symmetry) - m * m


def q_of_vtilde(vt: float, branch: BranchSign) -> float:
    """Solve q^2 - q = Vt for the superpotential strength q = 1/2 +/- sqrt(1/4 + Vt);
    a radicand 1/4 + Vt that is negative or NaN raises DomainError."""
    radicand = nonnegative(0.25 + vt, "q is complex: 1/4 + v_tilde = {} < 0")
    return 0.5 + branch.sign * math.sqrt(radicand)


def angular_spectrum(q: float, n_theta: int) -> tuple[float, float]:
    """Both closed forms of the n-th angular eigenvalue.

    Returns (sum form n^2 + 2nq + q, squared form (n + q)^2).  They agree
    only for q in {0, 1}; the sum form is the one the operator actually has.
    """
    n = n_theta
    return (n * n + 2.0 * n * q + q, (n + q) ** 2)


def shape_invariance_chain(q: float, n: int) -> ShapeInvarianceChain:
    """Build the ladder a_k = q + k, k = 0..n, with its telescoping
    remainders.  A q that is not finite, a negative n, or an a_k whose
    square overflows raises DomainError."""
    require_finite(q=q)
    if n < 0:
        raise DomainError(f"chain length must be >= 0 (got {n})")
    a = [q + k for k in range(n + 1)]
    try:
        remainders = [a[k] ** 2 - a[k - 1] ** 2 for k in range(1, n + 1)]
    except OverflowError:
        raise DomainError(f"shape-invariance chain overflows: a_k^2 is not finite "
                          f"for q = {q}, n = {n}") from None
    return ShapeInvarianceChain(a=a, remainders=remainders)


def lambda_from_terms(w, mm, half_nt, sign):
    """Separation constant as a function of the signed ring coupling w:

        lambda = [half_nt + sign*sqrt(1/2 - w - mm)]^2 + w + mm - 1/2

    with mm = m^2, half_nt = n_theta + 1/2 and the branch's sign.  The spin,
    pseudo-spin and non-relativistic variants differ only in w, which may be
    a float (a negative radicand raises DomainError) or an array (NaN where
    it is negative).
    """
    return lambda_from_root(w, mm, half_nt, separation_root(w, mm, sign))


def separation_root(w, mm, sign):
    """The signed root sign*sqrt(1/2 - w - m^2) of lambda, from mm = m^2.

    A float radicand that is negative raises DomainError; an array gets
    NaN there.  A caller whose w and m stay fixed over many n_theta (the
    oscillator-limit ladder) computes it once and passes it to
    lambda_from_root.
    """
    return sign * sqrt(nonnegative(
        0.5 - w - mm, "separation-constant radicand negative: 1/2 - w - m^2 = {}"))


def lambda_from_root(w, mm, half_nt, signed_root):
    """lambda = (half_nt + signed_root)^2 + w + mm - 1/2, with signed_root
    from separation_root and half_nt = n_theta + 1/2."""
    bracket = half_nt + signed_root
    return bracket * bracket + w + mm - 0.5


def lambda_separation(E, M: float, params: PotentialParams, m: int,
                      n_theta: int, branch: BranchSign, symmetry: Symmetry):
    """Separation constant linking the angular and radial equations.

    Energy-dependent because the ring coupling scales with (E + M); the
    radial solver therefore treats lambda as part of its self-consistency
    loop rather than a fixed input.  E may be a float or an array, as in
    lambda_from_terms.
    """
    return lambda_from_terms(_coupling(E, M, params, symmetry), m * m, n_theta + 0.5,
                             branch.sign)


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
    try:
        cot2 = (math.cos(theta) / math.sin(theta)) ** 2
    except OverflowError:
        cot2 = math.inf
    v_plus = (q * q + q) * cot2 + q
    v_minus = (q * q - q) * cot2 - q
    if not (math.isfinite(v_plus) and math.isfinite(v_minus)):
        raise DomainError(f"partner potentials overflow at q = {q}, theta = {theta}")
    return v_plus, v_minus


def default_theta_grid(points: int = 2001, endpoint_margin: float = 1e-9) -> np.ndarray:
    """Uniform grid on (0, pi) with a small exclusion at the singular ends."""
    import numpy as np
    return np.linspace(endpoint_margin, math.pi - endpoint_margin, points)


def angular_ground_state(q: float, theta_grid: np.ndarray) -> np.ndarray:
    """Unit-normalized ground-state profile G0(theta) ~ sin^(q - 1/2) theta.

    Normalization uses composite Simpson quadrature of |G0|^2 sin(theta)
    over the supplied grid.  The sin(theta) weight is the surface measure
    of the polar coordinate.  Requires a finite q > 1/2 for
    normalizability and a strictly ascending grid inside (0, pi).  A norm
    that is not finite and positive (a grid that misses the state) raises
    DomainError ("quadrature collapsed"), as in radial_wavefunction.
    """
    require_finite(q=q)
    if q <= 0.5:
        raise DomainError(f"ground state not normalizable: requires q > 1/2 (got q = {q})")
    import numpy as np
    theta_grid = np.asarray(theta_grid, dtype=float)
    if theta_grid.size < 3:
        raise DomainError("theta grid needs at least 3 points for quadrature")
    if np.any(theta_grid <= 0.0) or np.any(theta_grid >= math.pi):
        raise DomainError("theta grid must lie strictly inside (0, pi)")
    if np.any(np.diff(theta_grid) <= 0.0):
        raise DomainError("theta grid must be strictly ascending")
    sin_theta = np.sin(theta_grid)
    profile = sin_theta ** (q - 0.5)
    norm_sq = simpson(profile**2 * sin_theta, x=theta_grid)
    if not 0.0 < norm_sq < math.inf:
        raise DomainError("angular quadrature collapsed; grid does not resolve the state")
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
