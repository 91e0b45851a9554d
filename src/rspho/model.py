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
from enum import Enum
from numbers import Integral, Real

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
    "numeric_checks",
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


class _Record:
    """Base of the frozen records: PotentialParams, SolveResult and the rest.

    A subclass's __init__ stores its fields, in order, in the instance
    __dict__.  Equality, hash and repr (Name(field=value, ...)) are over
    those fields; a record equals only a record of its own class, never a
    tuple, and assigning or deleting an attribute raises AttributeError.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


class PotentialParams(_Record):
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

    def __init__(self, K, A, B, C):
        self.__dict__.update(K=K, A=A, B=B, C=C)


class QuantumNumbers(_Record):
    """Radial, angular, and azimuthal quantum numbers.

    ``n_theta`` defaults to ``n_r`` when left unset, which is the pairing
    that reproduces the reference energy tables.
    """

    n_r: int
    n_theta: int
    m: int

    def __init__(self, n_r, n_theta=None, m=0):
        self.__dict__.update(n_r=n_r, n_theta=n_r if n_theta is None else n_theta, m=m)


class SolveRequest(_Record):
    """A complete bound-state problem instance."""

    params: PotentialParams
    M: float
    qn: QuantumNumbers
    symmetry: Symmetry
    branch: BranchSign
    convention: Convention

    def __init__(self, params, M, qn, symmetry, branch=BranchSign.PLUS,
                 convention=Convention.TABLE_CONSISTENT):
        self.__dict__.update(params=params, M=M, qn=qn, symmetry=symmetry, branch=branch,
                             convention=convention)


class Violation(_Record):
    """A single validation failure, with a machine-readable code."""

    code: str
    message: str

    def __init__(self, code, message):
        self.__dict__.update(code=code, message=message)


_R_DOMAIN = "r must be positive; the potential has a 1/r^2 singularity at r = 0"
_THETA_DOMAIN = "theta must lie strictly inside (0, pi); the ring terms diverge at the axis"
_V_FINITE = "V(r, theta) is not finite at r = {!r}, theta = {!r}"


def evaluate_potential(params: PotentialParams, r: float, theta: float) -> float:
    """Evaluate V(r, theta) at real numbers r and theta, as a float.

    Raises DomainError at the singular loci r <= 0 and theta in {0, pi}
    (and beyond), where the inverse-square and ring terms blow up, at a
    NaN r or theta, and where V is not finite in float64 (r^2 or
    sin^2(theta) under- or overflowing, a coefficient that is not finite),
    naming r and theta.  Squares are written as products, the operations
    numpy applies to an array, so the potential command prints the bits
    of a numpy evaluation.  An r or theta that is not a real number (an
    array, a string) raises TypeError naming it.
    """
    if not (_is_real(r) and _is_real(theta)):
        name, x = ("r", r) if not _is_real(r) else ("theta", theta)
        raise TypeError(f"{name} must be a real number (got {type(x).__name__})")
    r = float(r)
    theta = float(theta)
    if not r > 0.0:
        raise DomainError(_R_DOMAIN)
    if not 0.0 < theta < math.pi:
        raise DomainError(_THETA_DOMAIN)
    r2 = r * r
    sin = math.sin(theta)
    cos = math.cos(theta)
    den = r2 * (sin * sin)          # 0 where r^2 or sin^2 underflows
    v = float(0.5 * params.K * r2
              + params.A / r2
              + params.B / den
              + params.C * (cos * cos) / den) if den else math.nan
    if not math.isfinite(v):
        raise DomainError(_V_FINITE.format(r, theta))
    return v


def _is_real(x) -> bool:
    """isinstance(x, Real), a plain float tested first (see _is_integer)."""
    return type(x) is float or isinstance(x, Real)


def _is_integer(x) -> bool:
    """isinstance(x, Integral), with the common case, a plain int, tested
    first: the ABC check costs several times more."""
    return type(x) is int or isinstance(x, Integral)


def numeric_checks(K, A, B, C, M, coupling_sign, n_r, n_theta) -> tuple:
    """The numeric preconditions of a request, each true where it holds.

    In order: K, A, B and C are finite; M is finite and positive; K has
    the symmetry's sign (coupling_sign * K > 0); n_r >= 0; n_theta >= 0.
    The numbers may be floats, which give bools, or arrays holding the
    numbers of many requests, which give boolean arrays.
    """
    inf = math.inf
    return (abs(K) < inf, abs(A) < inf, abs(B) < inf, abs(C) < inf,
            (M > 0.0) & (M < inf), coupling_sign * K > 0.0, n_r >= 0, n_theta >= 0)


def validate(request: SolveRequest) -> list[Violation]:
    """Check every solver precondition; an empty list means the request is ok.

    Violations are returned as data rather than raised, so a caller can
    report all of them at once.
    """
    out: list[Violation] = []
    p = request.params
    qn = request.qn
    # A quantum number that is not an integer fails its range check too:
    # one message covers both.
    K_ok, A_ok, B_ok, C_ok, mass, k_sign, n_r, n_theta = numeric_checks(
        p.K, p.A, p.B, p.C, request.M, request.symmetry.coupling_sign,
        qn.n_r if _is_integer(qn.n_r) else -1,
        qn.n_theta if _is_integer(qn.n_theta) else -1)
    if not (K_ok and A_ok and B_ok and C_ok):
        out += [Violation("params-finite", f"{name} must be a finite real (got {getattr(p, name)!r})")
                for name, ok in zip("KABC", (K_ok, A_ok, B_ok, C_ok)) if not ok]
    if not mass:
        out.append(Violation("mass-positive", f"M must be positive (got {request.M!r})"))
    if not k_sign and request.symmetry is Symmetry.SPIN:
        out.append(Violation("k-sign-spin", f"K must be positive under spin symmetry (got {p.K!r})"))
    elif not k_sign:
        out.append(Violation("k-sign-pseudospin",
                             f"K must be negative under pseudo-spin symmetry (got {p.K!r})"))
    if not n_r:
        out.append(Violation("n-r-range", f"n_r must be an integer >= 0 (got {qn.n_r!r})"))
    if not n_theta:
        out.append(Violation("n-theta-range", f"n_theta must be an integer >= 0 (got {qn.n_theta!r})"))
    if not _is_integer(qn.m):
        out.append(Violation("m-integer", f"m must be an integer (got {qn.m!r})"))
    return out
