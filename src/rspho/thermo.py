"""Spectral thermodynamics: partition function and its analytic moments.

The partition sum runs over the non-relativistic ladder at fixed azimuthal
number m (no degeneracy weighting).  All derived quantities come from
term-wise moment sums of the same truncated series, never from numeric
differentiation (that is kept as a test oracle only):

    U = <E>,   C = k_B (<y^2> - <y>^2),
    F = N (E0 - k_B T ln s0),   S = N k_B (ln s0 + <y>),

with y = beta (E - E0), the excitation energy in units of k_B T, and s0 =
Z exp(beta E0), the sum of the weights exp(-y).  The shift by the ground
level E0 keeps a large beta from underflowing the sums, cancels in U, S
and C, and is restored in F and Z.  No square of beta or of an energy is
taken: y^2 < 746^2 wherever a weight is not 0.  Z is 0 or inf, and F
+/-inf, only where its value is out of the float range: where k_B T ln s0
is out of it and F is not, F is N k_B T (E0/(k_B T) - ln s0).

The ladder (nonrelativistic_levels) is a generator over the explicit
oscillator-limit closed form of nonrelativistic_energy, with the terms
that do not depend on the level computed once per generator; a sum at
each temperature takes a fresh one.  lambda comes from angular, as for
the solver: q from q_of_vtilde once per ladder, and the sum form
angular_level, lambda = angular_level(q, n_theta) - 1/4, once per
level.  It needs no energy solver: this module imports neither
spectrum nor radial.

The sums need strictly ascending levels.  Where a term of the closed
form swamps its level spacing (a huge 4*A*mu, say), the ladder repeats a
level, and the sum raises DomainError naming the two equal levels.
"""

from __future__ import annotations

import math
from itertools import count as _count

from .angular import angular_level, q_of_vtilde
from .errors import ConvergenceError, DomainError
from .model import BranchSign, Convention, PotentialParams, QuantumNumbers, _Record
from .numerics import exp, require_finite

__all__ = [
    "ThermoPoint",
    "thermo_point",
    "nonrelativistic_energy",
    "nonrelativistic_levels",
]

_MAX_LEVELS = 10**6
_DEFAULT_TAIL_TOL = 1e-14


class ThermoPoint(_Record):
    """Thermodynamic state at one temperature (k_B folded into beta)."""

    T: float
    beta: float
    Z: float
    F: float
    U: float
    S: float
    C: float
    levels_used: int

    def __init__(self, T, beta, Z, F, U, S, C, levels_used):
        self.__dict__.update(T=T, beta=beta, Z=Z, F=F, U=U, S=S, C=C, levels_used=levels_used)


def _moments(levels, beta: float, rel_tail_tol: float):
    """Shifted Boltzmann moment sums over a strictly ascending level sequence.

    Returns (E0, s0, s1, s2, used) with s0 = sum t, s1 = sum (E - E0) t and
    s2 = sum y^2 t, t = exp(-y), y = beta (E - E0), truncated once a term
    drops below rel_tail_tol times the running s0.  A term with t = 0 adds
    exactly 0 and is skipped, so an infinite E - E0 makes no NaN.
    Raises ConvergenceError if _MAX_LEVELS levels never satisfy the tail
    test, and DomainError, before taking a level, if beta or rel_tail_tol
    is not positive and finite: at beta = 0 no truncation passes the tail
    test, at beta = inf every term is NaN, and an infinite rel_tail_tol
    would end the sum at the ground level.  A level equal to the one
    before it raises DomainError naming both indices (a degenerate
    spectrum, or a spacing lost to rounding); a lower one names both
    energies.
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
            if energy == prev:
                raise DomainError(
                    f"levels {used - 1} and {used} are both {energy}: a degenerate "
                    "spectrum, or a level spacing lost to rounding")
            raise DomainError(
                f"levels must be strictly ascending (got {energy} after {prev})")
        prev = energy
        if e0 is None:
            e0 = energy
        x = energy - e0
        y = beta * x
        t = math.exp(-y)
        if t > 0.0:
            s0 += t
            s1 += x * t
            s2 += y * y * t
        used += 1
        if t < rel_tail_tol * s0:
            break
        if used >= _MAX_LEVELS:
            raise ConvergenceError(
                f"partition sum failed the tail test after {_MAX_LEVELS} levels; "
                "the spectrum is growing too slowly for these inputs")
    if e0 is None:
        raise DomainError("level sequence is empty")
    return e0, s0, s1, s2, used


def thermo_point(levels, T: float, N: int = 1, k_B: float = 1.0,
                 rel_tail_tol: float = _DEFAULT_TAIL_TOL) -> ThermoPoint:
    """All thermodynamic functions at temperature T from one truncated sum.

    ``levels`` may be any iterable of strictly ascending energies,
    including an unbounded generator such as nonrelativistic_levels.
    T and k_B must be positive and finite, and so must their product and
    beta = 1/(k_B*T) (see _moments), which they can miss by overflow or
    underflow.  C keeps its precision at any finite beta, and Z and F are
    0 or +/-inf only out of the float range (see the module docstring).
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
    mean_y = beta * mean_shift
    log_s0 = math.log(s0)
    c = k_B * (s2 / s0 - mean_y * mean_y)
    thermal = kT * log_s0
    # k_B*T*ln s0 can pass the float range where F does not.
    f = e0 - thermal if math.isfinite(thermal) else kT * (e0 / kT - log_s0)
    return ThermoPoint(T=T, beta=beta, Z=exp(log_s0 - beta * e0), F=N * f,
                       U=e0 + mean_shift, S=N * k_B * (log_s0 + mean_y),
                       C=max(c, 0.0), levels_used=used)


def _ladder_terms(params: PotentialParams, mu: float, m: int,
                  branch: BranchSign, convention: Convention) -> tuple:
    """The terms of E_NR that do not depend on n_r or n_theta, inputs checked.

    Returns (q, 1/4 + 4*A*mu, (c/2)*sqrt(2K/mu)), with q =
    angular.q_of_vtilde(1/4 - m^2 - w) at w = 4*mu*(B+C), the static ring
    coupling.
    Requires K > 0: the mapping descends from the spin-symmetric regime.
    K, A, B, C and mu must be finite: a NaN or infinite one makes every
    level of a ladder NaN or infinite, and no partition sum over it ends.
    The separation root sqrt(1/2 - w - m^2) = |q - 1/2| has no bound: the
    sum form keeps lambda's relative precision at any root.
    """
    if mu <= 0.0:
        raise DomainError(f"reduced mass must be positive (got {mu})")
    if params.K <= 0.0:
        raise DomainError(
            f"non-relativistic limit requires K > 0 (got {params.K})")
    # One sum tests the five inputs at once: it is not finite when one of
    # them is not (or when finite ones overflow), and only then is each
    # input tested, to name it.
    if not math.isfinite(params.K + params.A + params.B + params.C + mu):
        require_finite(K=params.K, A=params.A, B=params.B, C=params.C, mu=mu)
    w = 4.0 * mu * (params.B + params.C)
    if not math.isfinite(w):
        raise DomainError(f"ring coupling overflows: w = 4*mu*(B+C) = {w}")
    q = q_of_vtilde(0.25 - m * m - w, branch)
    return (q, 0.25 + 4.0 * params.A * mu,
            0.5 * convention.coefficient * math.sqrt(2.0 * params.K / mu))


def _level(terms: tuple, n_r: int, n_theta: int) -> float:
    """E_NR at (n_r, n_theta) from the terms of _ladder_terms:
    (c/2)*sqrt(2K/mu) * (2*n_r + 1 + sqrt(1/4 + 4*A*mu + lambda_NR)), with
    lambda_NR = angular_level(q, n_theta) - 1/4."""
    q, radial, scale = terms
    inner = radial + (angular_level(q, n_theta) - 0.25)
    if inner < 0.0:
        raise DomainError(f"radial radicand negative: 1/4 + 4*A*mu + lambda = {inner}")
    energy = scale * (2.0 * n_r + 1.0 + math.sqrt(inner))
    if not math.isfinite(energy):
        raise DomainError(
            f"oscillator-limit energy overflows at n_r = {n_r}, n_theta = {n_theta}: "
            f"(c/2)*sqrt(2K/mu) = {scale}, 1/4 + 4*A*mu + lambda = {inner}")
    return energy


def nonrelativistic_energy(params: PotentialParams, mu: float,
                           qn: QuantumNumbers,
                           branch: BranchSign = BranchSign.PLUS,
                           convention: Convention = Convention.TABLE_CONSISTENT
                           ) -> float:
    """Explicit oscillator-limit energy for reduced mass mu (no root-finding).

    E_NR = (c/2) * sqrt(2K/mu) * (2*n_r + 1 + sqrt(1/4 + 4*A*mu + lambda_NR))

    with lambda_NR evaluated at the static ring coupling w = 4*mu*(B+C).
    The inputs are checked as in _ladder_terms, and an energy that
    overflows raises DomainError.
    """
    return _level(_ladder_terms(params, mu, qn.m, branch, convention),
                  qn.n_r, qn.n_theta)


def nonrelativistic_levels(params: PotentialParams, mu: float, m: int = 0,
                           branch: BranchSign = BranchSign.PLUS,
                           convention: Convention = Convention.TABLE_CONSISTENT):
    """Unbounded generator over the oscillator-limit ladder at fixed m.

    Yields E_NR(n) for n = 0, 1, 2, ... with n_theta locked to n, the same
    pairing used by the reference energy tables.  Like every generator it
    does no work until its first next(): that call checks the inputs and
    computes the terms that do not depend on n (_ladder_terms), and each
    level then has the bits of nonrelativistic_energy at n_r = n_theta = n.
    """
    terms = _ladder_terms(params, mu, m, branch, convention)
    for n in _count():
        yield _level(terms, n, n)
