"""Radial sector: oscillator-plus-inverse-square factorization and wavefunctions.

The effective radial operator is

    -u'' + (delta_prime / r^2 + big_delta^2 r^2) u = Et u

with delta_prime the inverse-square strength (energy dependent through the
separation constant) and big_delta = sqrt(|K| (E + M)) the oscillator
stiffness.  The superpotential W(r) = big_delta*r + delta/r factorizes it;
shape invariance gives the exact ladder Et_n = Et_0 + 4 n big_delta.

The closed-form eigenfunctions are Gaussian-damped power laws times a
terminating Kummer (confluent hypergeometric) polynomial; normalization is
done by quadrature because no closed-form constant is carried.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import Convention, SolveRequest
from .numerics import nonnegative, positive, simpson, sqrt

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RadialSolution",
    "WavefunctionSamples",
    "radial_terms",
    "radial_ansatz",
    "radial_spectrum",
    "partner_potentials_radial",
    "kummer_1f1_terminating",
    "effective_scale",
    "default_r_grid",
    "radial_wavefunction",
    "wavefunction_scales",
]


@dataclass(frozen=True)
class RadialSolution:
    """Ansatz parameters of the factorized radial problem.

    ``delta`` is the negative root of delta^2 + delta = delta_prime (the
    normalizable choice); ``e0_tilde`` = big_delta*(1 - 2*delta) is the
    ground eigenvalue of the effective operator.
    """

    delta: float
    delta_prime: float
    big_delta: float
    e0_tilde: float
    n_r: int = 0


@dataclass(frozen=True)
class WavefunctionSamples:
    """A normalized radial eigenfunction sampled on a grid.

    ``eta_scale`` is sqrt(delta_eff), the factor mapping r to the
    dimensionless oscillator coordinate eta = eta_scale * r.
    ``norm_constant`` multiplies the bare closed form to give unit
    quadrature of R^2 dr.
    """

    r: np.ndarray
    values: np.ndarray
    L: float
    eta_scale: float
    norm_constant: float

    def node_count(self, rel_threshold: float = 1e-9) -> int:
        """Count interior sign changes, ignoring samples that are
        numerically zero relative to the peak."""
        import numpy as np
        mag = np.abs(self.values)
        keep = mag > rel_threshold * mag.max()
        signs = np.sign(self.values[keep])
        return int(np.sum(signs[1:] * signs[:-1] < 0))


def radial_terms(E, M: float, K: float, A: float, lam, symmetry):
    """The inverse-square strength, its radial root and the squared
    oscillator scale at E.

        delta'      = s*2*A*(E + M) + lambda
        root        = sqrt(1/4 + delta')
        big_delta^2 = s*K*(E + M)             (s = +1 spin, -1 pseudo-spin)

    Returns (delta', root, big_delta^2).  E and lam may be floats or
    arrays.  The stiffness must be positive for big_delta to be real and
    the radicand 1/4 + delta' nonnegative for the root: a float that is
    not raises DomainError, the stiffness checked first; an array is
    returned unchecked, NaN where the radicand is negative, and the caller
    masks the stiffness (see numerics.positive).
    """
    s = symmetry.coupling_sign
    fac = E + M
    stiff = positive(s * K * fac,
                     "oscillator stiffness imaginary: s*K*(E+M) = {} must be positive")
    delta_prime = s * 2.0 * A * fac + lam
    root = sqrt(nonnegative(0.25 + delta_prime,
                            "radial radicand negative: 1/4 + delta' = {}"))
    return delta_prime, root, stiff


def radial_ansatz(E, M: float, K: float, A: float, lam,
                  symmetry, n_r: int = 0) -> RadialSolution:
    """Solve the ansatz conditions for (delta, big_delta, e0_tilde).

    Requires s*K*(E + M) > 0 so the oscillator stiffness is real, and
    1/4 + delta_prime >= 0 so delta = -1/2 - sqrt(1/4 + delta_prime) is
    real; radial_terms raises DomainError otherwise.
    """
    delta_prime, root, stiff = radial_terms(E, M, K, A, lam, symmetry)
    delta = -0.5 - root
    big_delta = sqrt(stiff)
    return RadialSolution(delta=delta, delta_prime=delta_prime,
                          big_delta=big_delta,
                          e0_tilde=big_delta * (1.0 - 2.0 * delta), n_r=n_r)


def radial_spectrum(big_delta: float, delta: float, n_r: int) -> float:
    """n-th eigenvalue of the effective operator: Et_0 + 4*n*big_delta.

    Equivalently 2*big_delta*(2n + 1 + sqrt(1/4 + delta')) with
    delta' = delta^2 + delta.
    """
    return big_delta * (1.0 - 2.0 * delta) + 4.0 * n_r * big_delta


def partner_potentials_radial(delta: float, big_delta: float,
                              r: float) -> tuple[float, float]:
    """Supersymmetric partner pair generated by W(r) = big_delta*r + delta/r.

    v_minus = W^2 - W' = delta(delta+1)/r^2 + big_delta^2 r^2 + 2*delta*big_delta - big_delta
    v_plus  = W^2 + W' = delta(delta-1)/r^2 + big_delta^2 r^2 + 2*delta*big_delta + big_delta

    Shape invariance: v_plus(delta) - v_minus(delta - 1) = 4*big_delta,
    independent of r.
    """
    if r <= 0.0:
        raise DomainError(f"r must be positive (got {r})")
    common = big_delta**2 * r**2 + 2.0 * delta * big_delta
    v_plus = delta * (delta - 1.0) / r**2 + common + big_delta
    v_minus = delta * (delta + 1.0) / r**2 + common - big_delta
    return v_plus, v_minus


def kummer_1f1_terminating(n: int, b: float, z):
    """Terminating confluent hypergeometric series 1F1(-n, b, z).

    Evaluated by forward recurrence on the terms, which is exact for the
    degree-n polynomial; z may be a scalar or a numpy array.
    """
    if n < 0:
        raise DomainError(f"series degree must be >= 0 (got n = {n})")
    for k in range(n):
        if b + k == 0.0:
            raise DomainError(
                f"Pochhammer denominator vanishes: b + {k} = 0 with b = {b}")
    import numpy as np
    z_arr = np.asarray(z, dtype=float)
    total = np.ones_like(z_arr)
    term = np.ones_like(z_arr)
    for k in range(n):
        term = term * (k - n) * z_arr / ((b + k) * (k + 1.0))
        total = total + term
    if np.isscalar(z):
        return float(total)
    return total


def effective_scale(big_delta: float, convention: Convention) -> float:
    """Oscillator scale of the wavefunction under the active convention.

    delta_eff = (c/2) * big_delta, so that the sampled eigenfunctions and
    the convention's spectrum always solve the same effective operator:
    c = 2 uses big_delta itself, c = 1 uses half of it.
    """
    return 0.5 * convention.coefficient * big_delta


def default_r_grid(n_r: int, L: float, delta_eff: float,
                   points: int = 4000, r_max: float | None = None) -> np.ndarray:
    """Uniform sampling grid (0, r_max] sized from the classical turning point.

    r_max defaults to the turning radius of level n_r plus four Gaussian
    widths, far enough out that the tail is negligible.
    """
    if delta_eff <= 0.0:
        raise DomainError(f"delta_eff must be positive (got {delta_eff})")
    if points < 3:
        raise DomainError(f"grid needs at least 3 points (got {points})")
    if r_max is None:
        delta_prime = L * (L + 1.0)
        et = 2.0 * delta_eff * (2.0 * n_r + 1.0 + math.sqrt(0.25 + delta_prime))
        r_max = math.sqrt(et) / delta_eff + 4.0 / math.sqrt(delta_eff)
    import numpy as np
    h = r_max / points
    return h * np.arange(1, points + 1)


def radial_wavefunction(n_r: int, L: float, big_delta: float,
                        r_grid: np.ndarray,
                        convention: Convention = Convention.TABLE_CONSISTENT
                        ) -> WavefunctionSamples:
    """Sample the normalized closed-form eigenfunction

        R(r) = N exp(-eta^2/2) r^(L+1) 1F1(-n_r, L + 3/2, eta^2)

    with eta^2 = delta_eff * r^2 and delta_eff = (c/2)*big_delta.
    N is fixed by unit Simpson quadrature of R^2 dr on the grid.
    """
    if L <= -1.5:
        raise DomainError(f"L must exceed -3/2 for integrability at the origin (got {L})")
    if big_delta <= 0.0:
        raise DomainError(f"big_delta must be positive (got {big_delta})")
    import numpy as np
    r = np.asarray(r_grid, dtype=float)
    if r.size < 3 or np.any(r <= 0.0) or np.any(np.diff(r) <= 0.0):
        raise DomainError("r grid must be strictly positive and ascending with >= 3 points")
    delta_eff = effective_scale(big_delta, convention)
    eta2 = delta_eff * r**2
    bare = np.exp(-0.5 * eta2) * r ** (L + 1.0) * kummer_1f1_terminating(n_r, L + 1.5, eta2)
    norm_sq = simpson(bare**2, x=r)
    if not norm_sq > 0.0:
        raise DomainError("wavefunction quadrature collapsed; grid does not resolve the state")
    norm_constant = 1.0 / math.sqrt(norm_sq)
    return WavefunctionSamples(r=r, values=norm_constant * bare, L=L,
                               eta_scale=math.sqrt(delta_eff),
                               norm_constant=norm_constant)


def wavefunction_scales(request: SolveRequest, E: float, lam: float,
                        mass_factor: str = "eplus") -> tuple[float, float]:
    """Derive (L, big_delta) for the wavefunction from a solved energy.

    ``mass_factor`` selects which mass combination multiplies the
    couplings: "eplus" uses (E + M) consistently with the energy relation
    and is the default; "eminus" is the alternative (E - M) reading of the
    pseudo-spin case, exposed explicitly because it renders the state
    non-normalizable (imaginary stiffness) in the usual K < 0 regime.
    """
    p = request.params
    if mass_factor == "eplus":
        _, root, stiff = radial_terms(E, request.M, p.K, p.A, lam, request.symmetry)
        return -0.5 + root, math.sqrt(stiff)
    if mass_factor != "eminus":
        raise ValueError(f"mass_factor must be 'eplus' or 'eminus' (got {mass_factor!r})")
    fac = E - request.M
    stiff = p.K * fac
    if stiff <= 0.0:
        raise DomainError(
            f"oscillator stiffness imaginary under mass_factor='eminus': "
            f"K*factor = {stiff} must be positive")
    # Not radial_terms' delta': the couplings multiply E - M here.
    disc = 0.25 + (2.0 * p.A * fac + lam)
    if disc < 0.0:
        raise DomainError(f"L is complex: 1/4 + delta' = {disc} < 0")
    return -0.5 + math.sqrt(disc), math.sqrt(stiff)
