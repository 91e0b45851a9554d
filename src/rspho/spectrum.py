"""Self-consistent energy solver and the non-relativistic closed form.

The bound-state energy satisfies an implicit relation

    E - M = c * sqrt(s*K/(E+M)) * (2*n_r + 1 + sqrt(1/4 + delta'(E)))

where delta'(E) = s*2*A*(E+M) + lambda(E) and lambda comes from the
angular sector (itself energy dependent).  s is +1 under spin symmetry
and -1 under pseudo-spin; c is the convention coefficient (see
model.Convention).

The relation is solved in two steps.  A scan evaluates the residual on a
grid over the analytic validity interval in one array call and records
every sign change: every radicand except the radial one is affine in E, so
the interval endpoints are available in closed form, and grid points where
the radial radicand fails are skipped.  The selected bracket is then
polished by the Illinois variant of regula falsi (Dowell & Jarratt, BIT 11
(1971) 168), which keeps the root bracketed at every step and converges
superlinearly; every step lands at least half the tolerance inside the
bracket, so the bracket shrinks even where the chord points at one of
its ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import lambda_from_coupling, lambda_separation
from .errors import ConvergenceError, DomainError, NoRootError
from .model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                    SolveRequest, validate)
from .numerics import guarded, sqrt
from .radial import radial_ansatz, radial_terms

__all__ = [
    "SolveResult",
    "SolverOptions",
    "energy_residual",
    "solve_energy",
    "nonrelativistic_energy",
]

_EPS = float(np.finfo(float).eps)
_MAX_POLISH_STEPS = 200


@dataclass(frozen=True)
class SolveResult:
    """A converged bound-state energy with its diagnostics.

    ``bracket`` is the scan interval that contained the root;
    ``root_count_in_scan`` reports how many sign changes the scan saw in
    total, so callers can detect parameter regimes with several candidate
    roots.  ``iterations`` counts the polish steps, each one residual
    evaluation, and ``residual`` is the residual at E.
    """

    E: float
    lam: float
    delta: float
    big_delta: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    root_count_in_scan: int


@dataclass(frozen=True)
class SolverOptions:
    """Tunables of the scan-and-polish root finder.

    ``abs_tol_E`` ends the polish once the bracket is narrower than
    abs_tol_E plus a few ulps of E, so large energies converge too.
    ``scan_points`` is the number of grid points of the scan.
    ``e_max_offset`` bounds the scan at M + offset; None means the default
    100*sqrt(|K|), generous against the oscillator level spacing.
    ``root_index`` selects among brackets in ascending energy order
    (0 = smallest root, the physical ground choice).
    """

    abs_tol_E: float = 1e-12
    scan_points: int = 512
    e_max_offset: float | None = None
    root_index: int = 0

    def __post_init__(self) -> None:
        if not self.abs_tol_E > 0.0:
            raise ValueError(f"abs_tol_E must be positive (got {self.abs_tol_E})")
        if self.scan_points < 2:
            raise ValueError(f"scan_points must be >= 2 (got {self.scan_points})")
        if self.root_index < 0:
            raise ValueError(f"root_index must be >= 0 (got {self.root_index})")


def energy_residual(E, request: SolveRequest):
    """f(E) = (E - M) - c*sqrt(s*K/(E+M))*(2*n_r + 1 + sqrt(1/4 + delta'(E))).

    Zero exactly at a bound-state energy.  E may be a float or a numpy
    array.  A float outside the validity region raises DomainError naming
    the radicand that failed; an array gets NaN wherever one fails.
    """
    p = request.params
    M = request.M
    qn = request.qn
    fac = E + M
    fac = guarded(fac, fac > 0.0, "E + M must be positive (got {})")
    lam = lambda_separation(E, M, p, qn.m, qn.n_theta, request.branch,
                            request.symmetry)
    delta_prime, stiff = radial_terms(E, M, p.K, p.A, lam, request.symmetry)
    radicand = 0.25 + delta_prime
    root = sqrt(guarded(radicand, radicand >= 0.0,
                        "radial radicand negative: 1/4 + delta' = {}"))
    # sqrt(s*K/(E+M)) = big_delta/(E+M) with big_delta^2 = s*K*(E+M)
    rhs = (request.convention.coefficient * sqrt(stiff) / fac
           * (2.0 * qn.n_r + 1.0 + root))
    return (E - M) - rhs


def _validity_interval(request: SolveRequest, e_max: float) -> tuple[float, float]:
    """Closed-form scan interval from the affine-in-E radicand constraints.

    Constraints: E + M > 0, and the separation-constant radicand
    1/2 - s*2*(E+M)*(B+C) - m^2 >= 0, which is affine in E.  The radial
    radicand is not affine; the scan tolerates it pointwise instead.
    """
    p = request.params
    M = request.M
    m = request.qn.m
    s = request.symmetry.coupling_sign
    lo = -M
    hi = e_max
    slope = -s * 2.0 * (p.B + p.C)
    const = 0.5 - s * 2.0 * M * (p.B + p.C) - m * m
    if slope > 0.0:
        lo = max(lo, -const / slope)
    elif slope < 0.0:
        hi = min(hi, -const / slope)
    elif const < 0.0:
        raise NoRootError(
            f"separation-constant radicand is {const} for every energy; "
            "no bound state exists for these quantum numbers")
    return lo, hi


def _scan(request: SolveRequest, opts: SolverOptions):
    """Every sign change of the residual on the scan grid, in ascending order.

    Returns (brackets, first, last).  A bracket is (a, b, f(a), f(b)) for a
    sign change between neighbouring grid points, or (a, a, 0.0, 0.0) for
    an exact zero; first and last are the grid ends.  Grid points outside
    the domain (NaN) bound no bracket.  Only floats leave this frame, so an
    exception raised about the scan does not keep its arrays alive.
    """
    offset = (opts.e_max_offset if opts.e_max_offset is not None
              else 100.0 * math.sqrt(abs(request.params.K)))
    lo, hi = _validity_interval(request, request.M + offset)
    if not hi > lo:
        raise NoRootError(
            f"empty scan interval: validity bounds give [{lo}, {hi}]")
    margin = 1e-9 * max(1.0, abs(lo), abs(hi))
    grid = np.linspace(lo + margin, hi - margin, opts.scan_points)
    values = energy_residual(grid, request)
    brackets = []
    # A product <= 0 marks a zero or a sign change; one with NaN never does.
    for i in np.flatnonzero(values[:-1] * values[1:] <= 0.0).tolist():
        fa, fb = float(values[i]), float(values[i + 1])
        if fa == 0.0:
            brackets.append((float(grid[i]), float(grid[i]), 0.0, 0.0))
        elif fa * fb < 0.0:
            brackets.append((float(grid[i]), float(grid[i + 1]), fa, fb))
    if values[-1] == 0.0:
        brackets.append((float(grid[-1]), float(grid[-1]), 0.0, 0.0))
    return brackets, float(grid[0]), float(grid[-1])


def _polish(request: SolveRequest, a: float, b: float, fa: float, fb: float,
            abs_tol: float) -> tuple[float, float, int]:
    """Shrink the bracket [a, b] around a root of the residual.

    Illinois steps: the next point is where the chord through (a, ga) and
    (b, gb) crosses zero, ga and gb being f(a) and f(b) except that the
    weight of an end kept twice in a row is halved, which stops regula
    falsi from stalling on one side.  A point closer than half the
    tolerance to an end moves to that distance, so when one end already
    sits on the root the next step closes the bracket.  Stops when
    the bracket is narrower than abs_tol plus four ulps of its midpoint,
    or on an exact zero.  Returns (E, f(E), steps) with E the end of
    smaller |f|.
    """
    ga, gb = fa, fb
    moved = 0                   # +1: a moved last step, -1: b moved
    steps = 0
    while b - a > (tol := abs_tol + 4.0 * _EPS * abs(0.5 * (a + b))):
        steps += 1
        if steps > _MAX_POLISH_STEPS:
            raise ConvergenceError(
                f"root polish exceeded {_MAX_POLISH_STEPS} iterations; "
                f"interval [{a}, {b}]")
        c = b - gb * (b - a) / (gb - ga)
        if not c > a + 0.5 * tol:
            c = a + 0.5 * tol
        elif not c < b - 0.5 * tol:
            c = b - 0.5 * tol
        fc = energy_residual(c, request)
        if fc == 0.0:
            return c, fc, steps
        if (fc < 0.0) == (fa < 0.0):
            a, fa, ga = c, fc, fc
            if moved == 1:
                gb *= 0.5
            moved = 1
        else:
            b, fb, gb = c, fc, fc
            if moved == -1:
                ga *= 0.5
            moved = -1
    if abs(fa) <= abs(fb):
        return a, fa, steps
    return b, fb, steps


def solve_energy(request: SolveRequest,
                 options: SolverOptions | None = None) -> SolveResult:
    """Find a bound-state energy: scan for sign changes, then polish one.

    Scans ``scan_points`` abscissae over the validity interval in one
    array evaluation of the residual, records every sign change, and
    polishes the bracket selected by ``options.root_index`` with Illinois
    steps until it is narrower than ``abs_tol_E`` plus a few ulps of E.
    """
    opts = options if options is not None else SolverOptions()
    violations = validate(request)
    if violations:
        raise DomainError("invalid request: "
                          + "; ".join(v.message for v in violations))
    brackets, first, last = _scan(request, opts)
    if not brackets:
        raise NoRootError(
            f"no sign change of the energy residual on [{first}, {last}] "
            f"with {opts.scan_points} scan points")
    if opts.root_index >= len(brackets):
        raise NoRootError(
            f"root index {opts.root_index} requested but the scan found only "
            f"{len(brackets)} bracket(s)")

    a, b, fa, fb = brackets[opts.root_index]
    energy, residual, iterations = _polish(request, a, b, fa, fb, opts.abs_tol_E)
    lam = lambda_separation(energy, request.M, request.params, request.qn.m,
                            request.qn.n_theta, request.branch,
                            request.symmetry)
    ansatz = radial_ansatz(energy, request.M, request.params.K,
                           request.params.A, lam, request.symmetry,
                           n_r=request.qn.n_r)
    return SolveResult(E=energy, lam=lam, delta=ansatz.delta,
                       big_delta=ansatz.big_delta, residual=residual,
                       iterations=iterations, bracket=(a, b),
                       root_count_in_scan=len(brackets))


def nonrelativistic_energy(params: PotentialParams, mu: float,
                           qn: QuantumNumbers,
                           branch: BranchSign = BranchSign.PLUS,
                           convention: Convention = Convention.TABLE_CONSISTENT
                           ) -> float:
    """Explicit oscillator-limit energy for reduced mass mu (no root-finding).

    E_NR = (c/2) * sqrt(2K/mu) * (2*n_r + 1 + sqrt(1/4 + 4*A*mu + lambda_NR))

    with lambda_NR evaluated at the static ring coupling w = 4*mu*(B+C).
    Requires K > 0: the mapping descends from the spin-symmetric regime.
    """
    if mu <= 0.0:
        raise DomainError(f"reduced mass must be positive (got {mu})")
    if params.K <= 0.0:
        raise DomainError(
            f"non-relativistic limit requires K > 0 (got {params.K})")
    w = 4.0 * mu * (params.B + params.C)
    lam_nr = lambda_from_coupling(w, qn.m, qn.n_theta, branch)
    inner = 0.25 + 4.0 * params.A * mu + lam_nr
    if inner < 0.0:
        raise DomainError(f"radial radicand negative: 1/4 + 4*A*mu + lambda = {inner}")
    return (0.5 * convention.coefficient * math.sqrt(2.0 * params.K / mu)
            * (2.0 * qn.n_r + 1.0 + math.sqrt(inner)))
