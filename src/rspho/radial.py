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
from typing import TYPE_CHECKING

from .errors import DomainError
from .model import Convention, SolveRequest, _Record
from .numerics import exp, is_array, log, nonnegative, positive, require_finite, sqrt

if TYPE_CHECKING:
    from collections.abc import Sequence

    import numpy as np

__all__ = [
    "WavefunctionSamples",
    "radial_terms_from_terms",
    "radial_spectrum",
    "partner_potentials_radial",
    "effective_scale",
    "r_grid_step",
    "radial_wavefunction",
    "wavefunction_scales",
]


class WavefunctionSamples(_Record):
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

    def __init__(self, r, values, L, eta_scale, norm_constant):
        self.__dict__.update(r=r, values=values, L=L, eta_scale=eta_scale,
                             norm_constant=norm_constant)

    def node_count(self) -> int:
        """Count interior sign changes, ignoring samples at or below 1e-9
        of the peak magnitude, which are numerically zero."""
        import numpy as np
        values = np.asarray(self.values)
        mag = np.abs(values)
        keep = mag > 1e-9 * mag.max()
        signs = np.sign(values[keep])
        return int(np.sum(signs[1:] * signs[:-1] < 0))


def radial_terms_from_terms(fac, sK, s2A, lam):
    """(delta', root, big_delta^2) at an energy E: delta' = s*2*A*(E + M) +
    lambda, root = sqrt(1/4 + delta') and big_delta^2 = s*K*(E + M), with
    s = +1 spin, -1 pseudo-spin, from fac = E + M, sK = s*K and s2A =
    s*2*A; the normalizable exponent is delta = -1/2 - root.  fac and lam
    may be floats or arrays.  A float stiffness that is not positive, then
    a float radicand 1/4 + delta' that is negative, raises DomainError; an
    array is returned unchecked, NaN where the radicand is negative, and
    the caller masks the stiffness (see numerics.positive).
    """
    stiff = positive(sK * fac,
                     "oscillator stiffness imaginary: s*K*(E+M) = {} must be positive")
    delta_prime = s2A * fac + lam
    root = sqrt(nonnegative(0.25 + delta_prime,
                            "radial radicand negative: 1/4 + delta' = {}"))
    return delta_prime, root, stiff


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
    r2 = r * r
    common = big_delta * big_delta * r2 + 2.0 * delta * big_delta
    try:
        v_plus = delta * (delta - 1.0) / r2 + common + big_delta
        v_minus = delta * (delta + 1.0) / r2 + common - big_delta
    except ZeroDivisionError:       # r^2 underflows to 0
        v_plus = v_minus = math.inf
    if not (math.isfinite(v_plus) and math.isfinite(v_minus)):
        raise DomainError(f"partner potentials overflow at delta = {delta}, "
                          f"big_delta = {big_delta}, r = {r}")
    return v_plus, v_minus


# Where the Kummer recurrence rescales F_k: 2^960 leaves one step room to
# grow by 2^63 before it overflows, and a step that could grow more is
# rescaled for first (_STEP_LIMIT).
_RESCALE_ABOVE = 2.0 ** 960
_STEP_LIMIT = 2.0 ** 1023
_LN2 = math.log(2.0)


def _kummer_scaled(n: int, b: float, z, z_max: float):
    """The terminating confluent hypergeometric series 1F1(-n, b, z) as
    (f, e), with 1F1(-n, b, z) = f * 2^e, so that a 1F1 past the float
    range is still a number.  z may be a float or an array, and z_max is
    at least every |z|.

    Evaluated by the three-term recurrence in the first parameter,

        (b + k) F_{k+1} = (2k + b - z) F_k - k F_{k-1},   F_0 = 1,

    which is the Laguerre recurrence (k + 1) L_{k+1} = (2k + 1 + alpha - z)
    L_k - (k + alpha) L_{k-1} for F_k = k!/(alpha + 1)_k L_k^(alpha)(z),
    b = alpha + 1.  The power series cancels catastrophically at high n
    (near z ~ 4n its terms exceed the sum by many orders); the recurrence
    does not.  For n = 0 the result is (1.0, 0).  A negative n, or a
    b + k = 0 for some k < n, raises DomainError.

    A scalar bound on |F_k| and |F_{k-1}|, grown each step by the largest
    factor the step can apply, says when they could pass 2^960.  Then
    each one that does is divided by a power of two, which is exact, and
    the power is added to its e; before a step that could carry them past
    2^1023, as at a z far beyond the state, so are those that it could
    carry past 2^960, and no step overflows for a finite z.  e is 0
    wherever 1F1 fits in a float, and f is then the unscaled recurrence's
    value, bit for bit.  e is an int for a float z, and an int or an
    integer array for an array z.
    """
    if n < 0:
        raise DomainError(f"series degree must be >= 0 (got n = {n})")
    f_prev, f, e = 0.0, 1.0, 0
    bound = 1.0
    for k in range(n):
        bk, ck = b + k, 2.0 * k + b
        if bk == 0.0:
            raise DomainError(
                f"Pochhammer denominator vanishes: b + {k} = 0 with b = {b}")
        # |F_{k+1}| <= (|ck| + |z| + k) * max(|F_k|, |F_{k-1}|) / |bk|, a
        # factor of at least 1.
        factor = (abs(ck) + z_max + k) / abs(bk)
        if bound * factor > _STEP_LIMIT:
            f_prev, f, e, bound = _rescale(f_prev, f, e, _RESCALE_ABOVE / factor)
        f_prev, f = f, ((ck - z) * f - k * f_prev) / bk
        bound *= factor
        if bound > _RESCALE_ABOVE:
            f_prev, f, e, bound = _rescale(f_prev, f, e, _RESCALE_ABOVE)
    return (f, e) if type(e) is int and e == 0 else _unscale(f, e)


def _rescale(f_prev, f, e, limit: float):
    """Divide f_prev and f by 2^s wherever either passes ``limit``, s the
    binary exponent of the larger, and add s to e.  Returns them with the
    largest magnitude left, the new bound."""
    if is_array(f):
        import numpy as np
        size = np.maximum(abs(f), abs(f_prev))
        s = np.where(size > limit, np.frexp(size)[1], 0)
        return np.ldexp(f_prev, -s), np.ldexp(f, -s), e + s, float(np.ldexp(size, -s).max())
    size = max(abs(f), abs(f_prev))
    s = math.frexp(size)[1] if size > limit else 0
    return math.ldexp(f_prev, -s), math.ldexp(f, -s), e + s, math.ldexp(size, -s)


def _unscale(f, e):
    """(f * 2^e, 0) wherever f * 2^e is a finite float, (f, e) elsewhere.
    The rescaling is exact, so a value that fits gets the bits that the
    recurrence gives without it."""
    if is_array(e):
        import numpy as np
        with np.errstate(over="ignore"):
            whole = np.ldexp(f, e)
        fits = np.isfinite(whole)
        return np.where(fits, whole, f), np.where(fits, 0, e)
    try:
        return math.ldexp(f, e), 0
    except OverflowError:
        return f, e


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

    N, the Gaussian, the power law and the power of two that the Kummer
    recurrence scaled 1F1 by are multiplied as one exponential of the sum
    of their logarithms, so that no factor overflows where R is finite.
    A numpy array grid is sampled with array operations; any other
    sequence of floats one float at a time with math's functions, in a
    process that need not load numpy, and then ``r`` and ``values``
    are lists.  The grid must hold at least 3 strictly positive, strictly
    ascending points.  A grid on which a sample is not finite (one that
    reaches where r^2 overflows, or where one recurrence step grows 1F1
    past the float range) or on which every sample is zero (one that
    misses the state) raises DomainError naming the cause, with no numpy
    warning.
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
    # The grid ascends, so its last point has the largest eta^2.
    eta2_max = delta_eff * float(r[-1]) * float(r[-1])

    def sample(x):
        eta2 = delta_eff * x * x
        f, e = _kummer_scaled(n_r, L + 1.5, eta2, eta2_max)
        # With e = 0, log_norm + 0.0 is log_norm, and the sum has the bits
        # it has without the rescaling.
        return f * exp(log_norm + e * _LN2 + (L + 1.0) * log(x) - 0.5 * eta2)

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
        s = request.symmetry.coupling_sign
        _, root, stiff = radial_terms_from_terms(E + request.M, s * p.K, s * 2.0 * p.A, lam)
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
