"""Spectral thermodynamics: partition function and its analytic moments.

The partition sum runs over the non-relativistic ladder at fixed azimuthal
number m (no degeneracy weighting).  All derived quantities come from
term-wise moment sums of the same truncated series, never from numeric
differentiation (that is kept as a test oracle only):

    U = <E>,   C = k_B beta^2 (<E^2> - <E>^2),
    F = -N ln(Z)/beta,   S = N k_B (ln Z + beta U).

Energies are shifted by the ground level before exponentiation so large
beta cannot underflow the sums; the shift cancels identically in U, S, C
and is restored in F and Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count as _count

from .errors import ConvergenceError, DomainError
from .model import BranchSign, Convention, PotentialParams, QuantumNumbers
from .spectrum import nonrelativistic_energy

__all__ = [
    "CachedLevels",
    "ThermoPoint",
    "partition_function",
    "thermo_point",
    "nonrelativistic_ladder",
    "nonrelativistic_levels",
]

_MAX_LEVELS = 10**6
_DEFAULT_TAIL_TOL = 1e-14


@dataclass(frozen=True)
class ThermoPoint:
    """Thermodynamic state at one temperature (k_B folded into beta)."""

    T: float
    beta: float
    Z: float
    F: float
    U: float
    S: float
    C: float
    levels_used: int


class CachedLevels:
    """A level sequence that every iteration replays from its first level.

    ``level(n)`` computes level n.  It is called once for each n, when an
    iteration first reaches it, so sums at many temperatures compute each
    level once.  A level that raises is not kept and raises again when an
    iteration next reaches it.
    """

    def __init__(self, level):
        self._level = level
        self._levels: list = []

    def __iter__(self):
        for n in _count():
            if n == len(self._levels):
                self._levels.append(self._level(n))
            yield self._levels[n]


def _moments(levels, beta: float, rel_tail_tol: float,
             max_levels: int = _MAX_LEVELS):
    """Shifted Boltzmann moment sums over an ascending level sequence.

    Returns (E0, s0, s1, s2, used) with s_k = sum (E - E0)^k exp(-beta (E - E0)),
    truncated once a term drops below rel_tail_tol times the running s0.
    Raises ConvergenceError if max_levels levels never satisfy the tail test,
    and DomainError, before taking a level, if beta or rel_tail_tol is not
    positive and finite: at beta = 0 no truncation passes the tail test,
    at beta = inf every term is NaN, and an infinite rel_tail_tol would
    end the sum at the ground level.
    """
    if not 0.0 < beta < math.inf:
        raise DomainError(f"beta must be positive and finite (got {beta})")
    if not 0.0 < rel_tail_tol < math.inf:
        raise DomainError(f"rel_tail_tol must be positive and finite (got {rel_tail_tol})")
    e0 = None
    prev = None
    s0 = s1 = s2 = 0.0
    used = 0
    for energy in levels:
        energy = float(energy)
        if prev is not None and energy <= prev:
            raise DomainError(
                f"levels must be strictly ascending (got {energy} after {prev})")
        prev = energy
        if e0 is None:
            e0 = energy
        x = energy - e0
        t = math.exp(-beta * x)
        s0 += t
        s1 += x * t
        s2 += x * x * t
        used += 1
        if t < rel_tail_tol * s0:
            break
        if used >= max_levels:
            raise ConvergenceError(
                f"partition sum failed the tail test after {max_levels} levels; "
                "the spectrum is growing too slowly for these inputs")
    if e0 is None:
        raise DomainError("level sequence is empty")
    return e0, s0, s1, s2, used


def partition_function(levels, beta: float,
                       rel_tail_tol: float = _DEFAULT_TAIL_TOL
                       ) -> tuple[float, int]:
    """Truncated Boltzmann sum Z = sum exp(-beta*E_n) and the level count used.

    ``levels`` may be any iterable of strictly ascending energies,
    including an unbounded generator such as nonrelativistic_levels.
    """
    e0, s0, _, _, used = _moments(levels, beta, rel_tail_tol)
    return math.exp(-beta * e0) * s0, used


def thermo_point(levels, T: float, N: int = 1, k_B: float = 1.0,
                 rel_tail_tol: float = _DEFAULT_TAIL_TOL) -> ThermoPoint:
    """All thermodynamic functions at temperature T from one truncated sum.

    T and k_B must be positive and finite, and so must their product and
    beta = 1/(k_B*T) (see _moments), which they can miss by overflow or
    underflow.
    """
    if not 0.0 < T < math.inf:
        raise DomainError(f"T must be positive and finite (got {T})")
    if not 0.0 < k_B < math.inf:
        raise DomainError(f"k_B must be positive and finite (got {k_B})")
    if N < 1:
        raise DomainError(f"N must be >= 1 (got {N})")
    kT = k_B * T
    if not 0.0 < kT < math.inf:
        raise DomainError(f"k_B*T must be positive and finite (got {kT})")
    beta = 1.0 / kT
    e0, s0, s1, s2, used = _moments(levels, beta, rel_tail_tol)
    mean_shift = s1 / s0
    u = e0 + mean_shift
    c = k_B * beta**2 * (s2 / s0 - mean_shift**2)
    log_z = -beta * e0 + math.log(s0)
    f = -N * log_z / beta
    s = N * k_B * (math.log(s0) + beta * mean_shift)
    return ThermoPoint(T=T, beta=beta, Z=math.exp(log_z), F=f, U=u, S=s,
                       C=max(c, 0.0), levels_used=used)


def nonrelativistic_ladder(params: PotentialParams, mu: float, m: int = 0,
                           branch: BranchSign = BranchSign.PLUS,
                           convention: Convention = Convention.TABLE_CONSISTENT
                           ) -> CachedLevels:
    """The oscillator-limit ladder at fixed m, replayable and computed once.

    Every iteration yields E_NR(n) for n = 0, 1, 2, ... with n_theta locked
    to n, the same pairing used by the reference energy tables.
    """
    return CachedLevels(lambda n: nonrelativistic_energy(
        params, mu, QuantumNumbers(n_r=n, m=m), branch, convention))


def nonrelativistic_levels(params: PotentialParams, mu: float, m: int = 0,
                           branch: BranchSign = BranchSign.PLUS,
                           convention: Convention = Convention.TABLE_CONSISTENT):
    """Unbounded iterator over the oscillator-limit ladder at fixed m."""
    return iter(nonrelativistic_ladder(params, mu, m, branch, convention))
