"""Problem definition: potential, parameters, quantum numbers, enumerations.

The potential combines a harmonic well, an inverse-square core, and two
ring-shaped angular barriers:

    V(r, theta) = (1/2) K r^2 + A / r^2
                  + B / (r^2 sin^2 theta)
                  + C cos^2 theta / (r^2 sin^2 theta)

Natural units (hbar = c = 1) are used throughout; masses and energies are
in inverse femtometers.  Everything in this module is an immutable value
type or a pure function, safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import DomainError

__all__ = [
    "Symmetry",
    "BranchSign",
    "Convention",
    "PotentialParams",
    "QuantumNumbers",
    "SolveRequest",
    "Violation",
    "evaluate_potential",
    "validate",
]


class Symmetry(Enum):
    """Which relativistic symmetry regime decouples the wave equation.

    SPIN couples the potential through +2(E + M)V and requires K > 0;
    PSEUDOSPIN mirrors the coupling sign and requires K < 0.
    """

    SPIN = "spin"
    PSEUDOSPIN = "pseudospin"

    @property
    def coupling_sign(self) -> float:
        """+1 for SPIN, -1 for PSEUDOSPIN: the sign s in s*2(E+M)*coupling."""
        return 1.0 if self is Symmetry.SPIN else -1.0


class BranchSign(Enum):
    """Sign choice in front of the angular square root Q = 1/2 +/- sqrt(...)."""

    PLUS = "plus"
    MINUS = "minus"

    @property
    def sign(self) -> float:
        return 1.0 if self is BranchSign.PLUS else -1.0


class Convention(Enum):
    """Leading coefficient c of the transcendental energy relation.

    TABLE_CONSISTENT (c = 1) reproduces the built-in reference energies;
    EQUATION_CONSISTENT (c = 2) matches the exact spectrum of the effective
    radial operator, as confirmed by the finite-difference oracle.  See
    DISCREPANCIES.md at the repository root for the numeric evidence.
    """

    TABLE_CONSISTENT = "table"
    EQUATION_CONSISTENT = "equation"

    @property
    def coefficient(self) -> float:
        return 1.0 if self is Convention.TABLE_CONSISTENT else 2.0


@dataclass(frozen=True)
class PotentialParams:
    """The four potential coefficients.

    K: harmonic coefficient (energy * length^-2)
    A: inverse-square coefficient
    B: ring coefficient
    C: angular-ring coefficient
    """

    K: float
    A: float
    B: float
    C: float


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial, angular, and azimuthal quantum numbers.

    ``n_theta`` defaults to ``n_r`` when left unset, which is the pairing
    that reproduces the reference energy tables.
    """

    n_r: int
    n_theta: int | None = None
    m: int = 0

    def __post_init__(self) -> None:
        if self.n_theta is None:
            object.__setattr__(self, "n_theta", self.n_r)


@dataclass(frozen=True)
class SolveRequest:
    """A complete bound-state problem instance."""

    params: PotentialParams
    M: float
    qn: QuantumNumbers
    symmetry: Symmetry
    branch: BranchSign = BranchSign.PLUS
    convention: Convention = Convention.TABLE_CONSISTENT


@dataclass(frozen=True)
class Violation:
    """A single validation failure, with a machine-readable code."""

    code: str
    message: str


def evaluate_potential(params: PotentialParams, r, theta):
    """Evaluate V(r, theta).  Accepts scalars or numpy arrays.

    Raises DomainError at the singular loci r <= 0 and theta in {0, pi}
    (and beyond), where the inverse-square and ring terms blow up.
    """
    r_arr = np.asarray(r, dtype=float)
    t_arr = np.asarray(theta, dtype=float)
    if np.any(r_arr <= 0.0):
        raise DomainError("r must be positive; the potential has a 1/r^2 singularity at r = 0")
    if np.any(t_arr <= 0.0) or np.any(t_arr >= np.pi):
        raise DomainError("theta must lie strictly inside (0, pi); the ring terms diverge at the axis")
    sin2 = np.sin(t_arr) ** 2
    cos2 = np.cos(t_arr) ** 2
    v = (0.5 * params.K * r_arr**2
         + params.A / r_arr**2
         + params.B / (r_arr**2 * sin2)
         + params.C * cos2 / (r_arr**2 * sin2))
    if np.isscalar(r) and np.isscalar(theta):
        return float(v)
    return v


def validate(request: SolveRequest) -> list[Violation]:
    """Check every solver precondition; an empty list means the request is ok.

    Violations are returned as data rather than raised, so a caller can
    report all of them at once.
    """
    out: list[Violation] = []
    p = request.params
    for name in ("K", "A", "B", "C"):
        val = getattr(p, name)
        if not math.isfinite(val):
            out.append(Violation("params-finite", f"{name} must be a finite real (got {val!r})"))
    if not (math.isfinite(request.M) and request.M > 0):
        out.append(Violation("mass-positive", f"M must be positive (got {request.M!r})"))
    if request.symmetry is Symmetry.SPIN and not p.K > 0:
        out.append(Violation("k-sign-spin", f"K must be positive under spin symmetry (got {p.K!r})"))
    if request.symmetry is Symmetry.PSEUDOSPIN and not p.K < 0:
        out.append(Violation("k-sign-pseudospin",
                             f"K must be negative under pseudo-spin symmetry (got {p.K!r})"))
    qn = request.qn
    if not (isinstance(qn.n_r, Integral) and qn.n_r >= 0):
        out.append(Violation("n-r-range", f"n_r must be an integer >= 0 (got {qn.n_r!r})"))
    if not (isinstance(qn.n_theta, Integral) and qn.n_theta >= 0):
        out.append(Violation("n-theta-range", f"n_theta must be an integer >= 0 (got {qn.n_theta!r})"))
    if not isinstance(qn.m, Integral):
        out.append(Violation("m-integer", f"m must be an integer (got {qn.m!r})"))
    return out
