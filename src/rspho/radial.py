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
from .numerics import nonnegative, positive, require_finite, simpson, sqrt

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RadialSolution",
    "WavefunctionSamples",
    "radial_terms",
    "radial_terms_from_terms",
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
    ground eigenvalue of the effective operator, radial_spectrum(big_delta,
    delta, 0); radial_spectrum gives the other levels from the same pair.
    """

    delta: float
    delta_prime: float
    big_delta: float
    e0_tilde: float


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

    def node_count(self) -> int:
        """Count interior sign changes, ignoring samples at or below 1e-9
        of the peak magnitude, which are numerically zero."""
        import numpy as np
        mag = np.abs(self.values)
        keep = mag > 1e-9 * mag.max()
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
    return radial_terms_from_terms(E + M, s * K, s * 2.0 * A, lam)


def radial_terms_from_terms(fac, sK, s2A, lam):
    """radial_terms from fac = E + M, sK = s*K and s2A = s*2*A, which a
    caller evaluating many energies computes once."""
    stiff = positive(sK * fac,
                     "oscillator stiffness imaginary: s*K*(E+M) = {} must be positive")
    delta_prime = s2A * fac + lam
    root = sqrt(nonnegative(0.25 + delta_prime,
                            "radial radicand negative: 1/4 + delta' = {}"))
    return delta_prime, root, stiff


def radial_ansatz(E, M: float, K: float, A: float, lam, symmetry) -> RadialSolution:
    """Solve the ansatz conditions for (delta, big_delta, e0_tilde).

    The conditions do not involve n_r: e0_tilde is level 0 of the ladder
    for every state, and radial_spectrum gives the others.

    Requires s*K*(E + M) > 0 so the oscillator stiffness is real, and
    1/4 + delta_prime >= 0 so delta = -1/2 - sqrt(1/4 + delta_prime) is
    real; radial_terms raises DomainError otherwise.  A stiffness or a
    delta_prime that overflows to inf raises DomainError too: the solver's
    residual, which calls radial_terms_from_terms, leaves that check to
    the callers.
    """
    delta_prime, root, stiff = radial_terms(E, M, K, A, lam, symmetry)
    if stiff == math.inf:
        raise DomainError(f"oscillator stiffness overflows: s*K*(E+M) = inf "
                          f"(K = {K}, E + M = {E + M})")
    if delta_prime == math.inf:
        raise DomainError(f"inverse-square strength overflows: s*2*A*(E+M) + lambda = inf "
                          f"(A = {A}, E + M = {E + M}, lambda = {lam})")
    delta = -0.5 - root
    big_delta = sqrt(stiff)
    return RadialSolution(delta=delta, delta_prime=delta_prime,
                          big_delta=big_delta,
                          e0_tilde=radial_spectrum(big_delta, delta, 0))


def radial_spectrum(big_delta: float, delta: float, n_r: int) -> float:
    """n-th eigenvalue of the effective operator: big_delta*(4n + 1 - 2*delta).

    Equivalently Et_0 + 4*n*big_delta, Et_0 = big_delta*(1 - 2*delta), or
    2*big_delta*(2n + 1 + sqrt(1/4 + delta')) with delta' = delta^2 + delta.
    A negative n_r raises DomainError.
    """
    if n_r < 0:
        raise DomainError(f"n_r must be >= 0 (got {n_r})")
    return big_delta * (4.0 * n_r + 1.0 - 2.0 * delta)


def partner_potentials_radial(delta: float, big_delta: float,
                              r: float) -> tuple[float, float]:
    """Supersymmetric partner pair generated by W(r) = big_delta*r + delta/r.

    v_minus = W^2 - W' = delta(delta+1)/r^2 + big_delta^2 r^2 + 2*delta*big_delta - big_delta
    v_plus  = W^2 + W' = delta(delta-1)/r^2 + big_delta^2 r^2 + 2*delta*big_delta + big_delta

    Shape invariance: v_plus(delta) - v_minus(delta - 1) = 4*big_delta,
    independent of r.  A delta or big_delta that is not finite, an r that
    is not positive, or finite ones whose potentials overflow raise
    DomainError.
    """
    require_finite(delta=delta, big_delta=big_delta)
    if not r > 0.0:
        raise DomainError(f"r must be positive (got {r})")
    try:
        common = big_delta**2 * r**2 + 2.0 * delta * big_delta
        v_plus = delta * (delta - 1.0) / r**2 + common + big_delta
        v_minus = delta * (delta + 1.0) / r**2 + common - big_delta
    except (OverflowError, ZeroDivisionError):      # a square overflows, or r^2 is 0
        v_plus = v_minus = math.inf
    if not (math.isfinite(v_plus) and math.isfinite(v_minus)):
        raise DomainError(f"partner potentials overflow at delta = {delta}, "
                          f"big_delta = {big_delta}, r = {r}")
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
        delta = -0.5 - math.sqrt(0.25 + L * (L + 1.0))
        et = radial_spectrum(delta_eff, delta, n_r)
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
    N is fixed by unit Simpson quadrature of R^2 dr on the grid.  A norm
    that is not finite and positive (a grid that misses the state, or one
    so wide that a sample or the sum overflows, which makes the norm inf or
    NaN) raises DomainError ("quadrature collapsed"), with no numpy warning.
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta2 = delta_eff * r**2
        bare = np.exp(-0.5 * eta2) * r ** (L + 1.0) * kummer_1f1_terminating(n_r, L + 1.5, eta2)
        norm_sq = simpson(bare**2, x=r)
    if not 0.0 < norm_sq < math.inf:
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
    elif mass_factor == "eminus":
        # The couplings multiply E - M, with no symmetry sign.
        try:
            _, root, stiff = radial_terms_from_terms(E - request.M, p.K, 2.0 * p.A, lam)
        except DomainError as exc:
            raise DomainError(f"under mass_factor='eminus', which reads E + M as "
                              f"E - M with s = +1: {exc}") from None
    else:
        raise ValueError(f"mass_factor must be 'eplus' or 'eminus' (got {mass_factor!r})")
    return -0.5 + root, math.sqrt(stiff)
