"""Radial sector: oscillator-plus-inverse-square factorization and wavefunctions.

The effective radial operator is

    -u'' + (delta_prime / r^2 + big_delta^2 r^2) u = Et u

with delta_prime the inverse-square strength (energy dependent through the
separation constant) and big_delta = sqrt(|K| (E + M)) the oscillator
stiffness.  The superpotential W(r) = big_delta*r + delta/r factorizes it;
shape invariance gives the exact ladder Et_n = Et_0 + 4 n big_delta.

The closed-form eigenfunctions are Gaussian-damped power laws times a
terminating Kummer (confluent hypergeometric) polynomial, a Laguerre
polynomial in eta^2 = delta_eff*r^2, and are normalized by the Laguerre
orthogonality integral in closed form.  radial_wavefunction samples them
with array operations on a numpy grid and with math's functions on a list
of floats (the CLI's grid), so the wavefunction command runs without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import Convention, SolveRequest
from .numerics import exp, is_array, log, nonnegative, positive, require_finite, sqrt

if TYPE_CHECKING:
    from collections.abc import Sequence

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
    "r_grid_step",
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
    ``norm_constant`` multiplies the bare closed form to give a unit
    integral of R^2 dr over (0, inf), whatever the grid (0 or inf where
    it falls outside the float range; the samples do not use it).
    ``r`` and ``values`` are numpy arrays for a numpy grid and lists for a
    list grid.
    """

    r: np.ndarray | list[float]
    values: np.ndarray | list[float]
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

    Evaluated by the three-term recurrence in the first parameter,

        (b + k) F_{k+1} = (2k + b - z) F_k - k F_{k-1},   F_0 = 1,

    which is the Laguerre recurrence (k + 1) L_{k+1} = (2k + 1 + alpha - z)
    L_k - (k + alpha) L_{k-1} for F_k = k!/(alpha + 1)_k L_k^(alpha)(z),
    b = alpha + 1.  The power series cancels catastrophically at high n
    (near z ~ 4n its terms exceed the sum by many orders); the recurrence
    does not.  z may be a float or an array; for n = 0 the result is 1.0.
    A negative n, or a b + k = 0 for some k < n, raises DomainError.
    """
    if n < 0:
        raise DomainError(f"series degree must be >= 0 (got n = {n})")
    f_prev, f = 0.0, 1.0
    for k in range(n):
        if b + k == 0.0:
            raise DomainError(
                f"Pochhammer denominator vanishes: b + {k} = 0 with b = {b}")
        f_prev, f = f, ((2.0 * k + b - z) * f - k * f_prev) / (b + k)
    return f


def effective_scale(big_delta: float, convention: Convention) -> float:
    """Oscillator scale of the wavefunction under the active convention.

    delta_eff = (c/2) * big_delta, so that the sampled eigenfunctions and
    the convention's spectrum always solve the same effective operator:
    c = 2 uses big_delta itself, c = 1 uses half of it.
    """
    return 0.5 * convention.coefficient * big_delta


def r_grid_step(n_r: int, L: float, delta_eff: float,
                points: int = 4000, r_max: float | None = None) -> float:
    """Step h of the uniform grid h*i, i = 1..points, on (0, r_max].

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
    return r_max / points


def default_r_grid(n_r: int, L: float, delta_eff: float,
                   points: int = 4000, r_max: float | None = None) -> np.ndarray:
    """The grid h*i, i = 1..points, of r_grid_step as a numpy array."""
    h = r_grid_step(n_r, L, delta_eff, points, r_max)
    import numpy as np
    return h * np.arange(1, points + 1)


def radial_wavefunction(n_r: int, L: float, big_delta: float,
                        r_grid: np.ndarray | Sequence[float],
                        convention: Convention = Convention.TABLE_CONSISTENT
                        ) -> WavefunctionSamples:
    """Sample the normalized closed-form eigenfunction

        R(r) = N exp(-eta^2/2) r^(L+1) 1F1(-n_r, L + 3/2, eta^2)

    with eta^2 = delta_eff * r^2 and delta_eff = (c/2)*big_delta.

    N normalizes R^2 dr over (0, inf), not over the grid: with a =
    delta_eff and alpha = L + 1/2 the Laguerre orthogonality integral
    (Abramowitz & Stegun 22.2.12) gives

        N^-2 = (1/2) a^-(alpha+1) n_r! Gamma(alpha+1)^2 / Gamma(n_r+alpha+1).

    N, the Gaussian and the power law are multiplied as one exponential of
    the sum of their logarithms, so that no factor overflows where R is
    finite.  A numpy array grid is sampled with array operations; any
    other sequence of floats one float at a time with math's functions,
    in a process that need not load numpy, and then ``r`` and ``values``
    are lists.  The grid must hold at least 3 strictly positive, strictly
    ascending points.  A grid on which a sample is not finite (one that
    reaches where the polynomial or r^2 overflows) or on which every
    sample is zero (one that misses the state) raises DomainError naming
    the cause, with no numpy warning.
    """
    if L <= -1.5:
        raise DomainError(f"L must exceed -3/2 for integrability at the origin (got {L})")
    if big_delta <= 0.0:
        raise DomainError(f"big_delta must be positive (got {big_delta})")
    if is_array(r_grid):
        import numpy as np
        r = np.asarray(r_grid, dtype=float)
        ascending = r.size >= 3 and r[0] > 0.0 and bool((r[1:] > r[:-1]).all())
    else:
        r = [float(x) for x in r_grid]
        ascending = len(r) >= 3 and r[0] > 0.0 and all(a < b for a, b in zip(r, r[1:]))
    if not ascending:
        raise DomainError("r grid must be strictly positive and ascending with >= 3 points")
    delta_eff = effective_scale(big_delta, convention)
    alpha = L + 0.5
    log_norm = 0.5 * (math.log(2.0) + (alpha + 1.0) * math.log(delta_eff)
                      + math.lgamma(n_r + alpha + 1.0) - math.lgamma(n_r + 1.0)
                      - 2.0 * math.lgamma(alpha + 1.0))

    def sample(x):
        eta2 = delta_eff * x * x
        return (kummer_1f1_terminating(n_r, L + 1.5, eta2)
                * exp(log_norm + (L + 1.0) * log(x) - 0.5 * eta2))

    if is_array(r):
        with np.errstate(over="ignore", invalid="ignore"):
            values = sample(r)
        finite, nonzero = bool(np.isfinite(values).all()), bool(values.any())
    else:
        values = [sample(x) for x in r]
        finite, nonzero = all(map(math.isfinite, values)), any(values)
    where = f"(n_r = {n_r}, L = {L}, r from {r[0]} to {r[-1]})"
    if not finite:
        raise DomainError(f"wavefunction overflows on the grid: a sample is not finite {where}")
    if not nonzero:
        raise DomainError(f"wavefunction is zero at every grid point: the grid misses "
                          f"the state {where}")
    return WavefunctionSamples(r=r, values=values, L=L,
                               eta_scale=math.sqrt(delta_eff),
                               norm_constant=exp(log_norm))


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
