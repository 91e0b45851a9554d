"""Self-consistent energy solver for one request or for columns of many.

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

solve_energy does this for one request and returns the energy with its
diagnostics, or raises.  solve_columns does it for many, column-wise: it
takes the requests' numbers as an (11, requests) array (request_columns
builds one), validates them and computes their scan intervals with the
same formulas applied to arrays, and returns only the energies.  For the
scan and the polish it prepares the batch once (_stack): the numbers
become (requests x 1) columns, and a number equal in every row stays one
float, so numpy broadcasting computes what the rows share once.  The
residual's terms that depend on the request alone (s*2, B + C, m^2,
n_theta + 1/2, s*K, s*2*A and 2*n_r + 1, see _terms) are computed then,
as the closed forms compute them, and are not recomputed per residual
call: angular and radial take them through lambda_from_terms,
coupling_from_terms and radial_terms_from_terms, the same functions
their float forms call.  The scan walks the requests' grids in
ascending windows, each one residual call over the requests still
scanning, taken from the prepared batch by index, and a request leaves
the scan as soon as it holds its bracket; most roots lie low on the
grid, so most requests see only its first points.  The brackets are
counted and picked with array operations.  One Illinois loop then steps
every row at once, one residual call per step.  An energy is NaN exactly
where solve_energy raises for that request, and has solve_energy's bits
everywhere else.

numpy is imported by the array code only (solve_energy's scan, the
column solver, the array forms of the residual and of the scan
intervals), so the float forms run in a process that has not loaded it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .angular import coupling_from_terms, lambda_from_terms, lambda_separation
from .errors import ConvergenceError, DomainError, NoRootError
from .model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                    SolveRequest, Symmetry, numeric_checks, validate)
from .numerics import is_array, positive, sqrt
from .radial import radial_ansatz, radial_terms_from_terms

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SolveResult",
    "SolverOptions",
    "energy_residual",
    "solve_energy",
    "request_columns",
    "solve_columns",
]

_EPS = sys.float_info.epsilon
_MAX_POLISH_STEPS = 200
# Grid points per residual call of a batch scan: the scan's windows are at
# most this large, so the kernel's temporaries stay in cache and the memory
# of a batch does not grow with its length.
_SCAN_CHUNK = 8192


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
        if not 0.0 < self.abs_tol_E < math.inf:
            raise ValueError(f"abs_tol_E must be positive and finite (got {self.abs_tol_E})")
        if self.scan_points < 2:
            raise ValueError(f"scan_points must be >= 2 (got {self.scan_points})")
        if self.root_index < 0:
            raise ValueError(f"root_index must be >= 0 (got {self.root_index})")


_DEFAULT_OPTIONS = SolverOptions()


def _terms(request) -> tuple:
    """The numbers of the residual that depend on the request alone, each
    computed as the closed forms compute it: M, s*2, B + C, m^2,
    n_theta + 1/2, the branch sign, s*K, s*2*A, 2*n_r + 1 and the
    convention coefficient c."""
    p, qn, s = request.params, request.qn, request.symmetry.coupling_sign
    s2 = s * 2.0
    return (request.M, s2, p.B + p.C, qn.m * qn.m, qn.n_theta + 0.5,
            request.branch.sign, s * p.K, s2 * p.A, 2.0 * qn.n_r + 1.0,
            request.convention.coefficient)


def energy_residual(E, request: SolveRequest):
    """f(E) = (E - M) - c*sqrt(s*K/(E+M))*(2*n_r + 1 + sqrt(1/4 + delta'(E))).

    Zero exactly at a bound-state energy.  E may be a float or a numpy
    array.  A float outside the validity region raises DomainError naming
    the radicand that failed; an array gets NaN wherever one fails.  A
    batch that _stack made brings its _terms; any other request's are
    computed here.
    """
    terms = request.terms if type(request) is _Batch else _terms(request)
    if is_array(E):
        import numpy as np
        # The square roots make NaN of negative radicands; the two strict
        # guards, E + M > 0 and a positive stiffness, are one mask at the end
        # (np.minimum passes a NaN on, and NaN > 0 is false), written into
        # f, a new array with the shape of the three.
        with np.errstate(invalid="ignore", divide="ignore"):
            f, fac, stiff = _residual(E, terms)
        np.copyto(f, np.nan, where=~(np.minimum(fac, stiff) > 0.0))
        return f
    return _residual(E, terms)[0]


def _residual(E, terms: tuple):
    """energy_residual with E + M and the stiffness, which it must mask."""
    M, s2, bc, mm, half_nt, sign, sK, s2A, nr21, c = terms
    fac = positive(E + M, "E + M must be positive (got {})")
    lam = lambda_from_terms(coupling_from_terms(s2, fac, bc), mm, half_nt, sign)
    _, root, stiff = radial_terms_from_terms(fac, sK, s2A, lam)
    # sqrt(s*K/(E+M)) = big_delta/(E+M) with big_delta^2 = s*K*(E+M)
    rhs = c * sqrt(stiff) / fac * (nr21 + root)
    return (E - M) - rhs, fac, stiff


def _validity_interval(M, B, C, m, s, e_max):
    """Closed-form scan interval from the affine-in-E radicand constraints.

    Constraints: E + M > 0, and the separation-constant radicand
    1/2 - s*2*(E+M)*(B+C) - m^2 >= 0, which is affine in E.  The radial
    radicand is not affine; the scan tolerates it pointwise instead.
    Returns (lo, hi).  The numbers may be floats, and where the separation
    radicand is negative at every energy NoRootError is raised, or 1-D
    arrays of one request per element, and there lo is NaN.
    """
    slope = -s * 2.0 * (B + C)
    const = 0.5 - s * 2.0 * M * (B + C) - m * m
    if is_array(slope):
        import numpy as np
        with np.errstate(divide="ignore", invalid="ignore"):
            edge = -const / slope
        # The float branches below, element by element.
        lo = np.where((slope > 0.0) & (edge > -M), edge, -M)
        hi = np.where((slope < 0.0) & (edge < e_max), edge, e_max)
        lo[~(slope > 0.0) & ~(slope < 0.0) & (const < 0.0)] = np.nan
        return lo, hi
    lo = -M
    hi = e_max
    if slope > 0.0:
        lo = max(lo, -const / slope)
    elif slope < 0.0:
        hi = min(hi, -const / slope)
    elif const < 0.0:
        raise NoRootError(
            f"separation-constant radicand is {const} for every energy; "
            "no bound state exists for these quantum numbers")
    return lo, hi


def _scan_interval(K, B, C, M, m, s, opts: SolverOptions):
    """The first and last point of a scan.

    The scan covers the validity interval up to M + e_max_offset, pulled
    in at both ends by a relative margin of 1e-9.  The numbers may be
    floats, and an empty interval raises NoRootError, or 1-D arrays of one
    request per element, and a request without an interval gets NaN ends.
    """
    offset = (opts.e_max_offset if opts.e_max_offset is not None
              else 100.0 * sqrt(abs(K)))
    lo, hi = _validity_interval(M, B, C, m, s, M + offset)
    if is_array(lo):
        import numpy as np
        lo[~(hi > lo)] = np.nan
        margin = 1e-9 * np.maximum(np.maximum(1.0, abs(lo)), abs(hi))
        return lo + margin, hi - margin
    if not hi > lo:
        raise NoRootError(
            f"empty scan interval: validity bounds give [{lo}, {hi}]")
    margin = 1e-9 * max(1.0, abs(lo), abs(hi))
    return lo + margin, hi - margin


def _scan_ends(request: SolveRequest | np.ndarray, opts: SolverOptions):
    """Validate requests and return the first and last point of their scans
    (see _scan_interval).

    ``request`` is a SolveRequest, and one that fails validation raises
    DomainError, or an (11, R) array of columns (see request_columns), and
    a request that fails the numeric checks of validation, has a quantum
    number that is not whole, or has no scan interval, gets NaN ends.
    """
    if is_array(request):
        import numpy as np
        K, A, B, C, M, n_r, n_theta, m, s = request[:9]
        # Requests that fail validation may hold inf and NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            first, last = _scan_interval(K, B, C, M, m, s, opts)
            valid = np.logical_and.reduce(
                numeric_checks(K, A, B, C, M, s, n_r, n_theta)
                + tuple(request[5:8] % 1.0 == 0.0))
        first[~valid] = last[~valid] = np.nan
        return first, last
    violations = validate(request)
    if violations:
        raise DomainError("invalid request: "
                          + "; ".join(v.message for v in violations))
    return _scan_interval(request.params.K, request.params.B, request.params.C,
                          request.M, request.qn.m, request.symmetry.coupling_sign,
                          opts)


def request_columns(K, A, B, C, M, n_r, n_theta, m, symmetry: Symmetry,
                    branch: BranchSign = BranchSign.PLUS,
                    convention: Convention = Convention.TABLE_CONSISTENT
                    ) -> np.ndarray:
    """Requests as the (11, R) array that solve_columns takes.

    Each number is a float, the same in every request, or a 1-D array of
    one value per request; at least one must be an array.  Column i of
    the result is request i; its rows hold K, A, B, C, M, n_r, n_theta, m
    and the enums' numeric properties coupling_sign, sign and coefficient.
    """
    import numpy as np
    numbers = (K, A, B, C, M, n_r, n_theta, m, symmetry.coupling_sign,
               branch.sign, convention.coefficient)
    return np.array(np.broadcast_arrays(*(np.asarray(x, dtype=float)
                                          for x in numbers)))


class _Batch:
    """A request whose numbers are (R, 1) columns, row r for request r, or
    floats shared by every row, with its _terms computed once.

    It has a SolveRequest's fields, so energy_residual evaluates it on an
    (R, n) grid element by element as it would each request alone; the
    symmetry, branch and convention fields hold their enums' numeric
    properties.  take() gives the batch of some of its rows without
    computing their terms again.
    """

    def __init__(self, numbers: tuple, terms: tuple | None = None):
        K, A, B, C, M, n_r, n_theta, m, s, sign, c = self.numbers = numbers
        self.params = PotentialParams(K=K, A=A, B=B, C=C)
        self.M = M
        self.qn = QuantumNumbers(n_r=n_r, n_theta=n_theta, m=m)
        self.symmetry = self.branch = self.convention = SimpleNamespace(
            coupling_sign=s, sign=sign, coefficient=c)
        self.terms = _terms(self) if terms is None else terms

    def take(self, rows) -> _Batch:
        """The batch of the rows ``rows``, an index array or a slice."""
        def pick(x):
            return x if type(x) is float else x[rows]
        return _Batch(tuple(map(pick, self.numbers)), tuple(map(pick, self.terms)))


def _stack(cols: np.ndarray) -> _Batch:
    """The batch of the requests in ``cols`` (an (11, R) array, see
    request_columns), row r from cols[:, r].

    A number with the same bits in every row stays one float, so numpy
    broadcasting computes what depends only on such numbers and the grid
    once, not once per row.
    """
    import numpy as np
    bits = cols.view(np.int64)
    shared = (bits == bits[:, :1]).all(axis=1).tolist()
    return _Batch(tuple(col[0].item() if same else col[:, None]
                        for col, same in zip(cols, shared)))


def _bracket_starts(values):
    """Where a bracket starts along the last axis of a scan's residuals.

    A bracket starts at a grid point whose residual is exactly zero, or
    whose residual changes sign at the next point; NaN starts none.
    """
    hit = values == 0.0
    hit[..., :-1] |= values[..., :-1] * values[..., 1:] < 0.0
    return hit


def _scan(cols, first, last, opts: SolverOptions):
    """Scan the residual of the requests in ``cols`` (an (11, R) array, see
    request_columns, or the batch that _stack made of one) and pick each
    one's bracket ``opts.root_index``.

    Row r scans the bits of np.linspace(first[r], last[r], scan_points),
    walked in ascending windows: each window is one residual call over
    the rows still scanning, taken from the batch by index, _SCAN_CHUNK //
    rows points wide (at least one), and if every row has the same ends
    they share one grid row.  A row stops scanning once it holds its
    bracket, and a row without one sees every grid point once.  Brackets
    are counted as _scan_one counts them (see _bracket_starts): a window
    counts the brackets that start at its points but its last, and at
    the point before it, whose residual the previous window leaves
    behind; the counts are carried too.  The bracket starting at a is
    (a, b, f(a), f(b)), b the next grid point, or (a, a, 0.0, 0.0) for an
    exact zero.  Returns the (4, R) array of the rows' (a, b, fa, fb), NaN
    for a row without the bracket.
    """
    import numpy as np
    batch = cols if type(cols) is _Batch else _stack(cols)
    n = opts.scan_points
    rows = first.size
    step = (last - first) / (n - 1)
    if (first == first[0]).all() and (last == last[0]).all():
        first, last, step = first[:1], last[:1], step[:1]
    bracket = np.full((4, rows), np.nan)
    skip = np.full(rows, opts.root_index)       # brackets still to pass
    before = np.full(rows, np.nan)              # f at the point before a window
    scanning = np.arange(rows)
    start = 0
    while scanning.size and start < n:
        width = min(max(1, _SCAN_CHUNK // scanning.size), n - start)
        lo, hi, h = ((first, last, step) if len(first) == 1 else
                     (first[scanning], last[scanning], step[scanning]))
        # Grid points start - 1 to start + width - 1 as linspace computes
        # them: i*step + first, and the last point is last itself.
        grid = np.arange(start - 1, start + width, dtype=float) * h[:, None] + lo[:, None]
        final = start + width == n
        if final:
            grid[:, -1] = hi
        values = energy_residual(
            grid[:, 1:], batch if scanning.size == rows else batch.take(scanning))
        hit = _bracket_starts(values)
        if not final:
            hit[:, -1] = False                  # the next window decides it
        f0 = before[scanning]
        hit0 = (f0 == 0.0) | (f0 * values[:, 0] < 0.0)     # at the point before
        count = hit0 + np.count_nonzero(hit, axis=1)
        done = count > skip[scanning]
        r = np.flatnonzero(done)
        if r.size:
            # The done rows' window with the point before it: find their
            # bracket, at i, and its ends, i and i + 1 (kept in the window).
            vr = r if len(values) > 1 else 0
            starts = np.empty((r.size, width + 1), dtype=bool)
            f = np.empty((r.size, width + 1))
            starts[:, 0], starts[:, 1:] = hit0[r], hit[vr]
            f[:, 0], f[:, 1:] = f0[r], values[vr]
            passing = skip[scanning[r]]
            if passing.any():                   # mark the starts after those passed
                starts = starts.cumsum(axis=1) > passing[:, None]
            i = starts.argmax(axis=1)
            j = np.minimum(i + 1, width)
            k = np.arange(r.size)
            row = r if len(grid) > 1 else 0
            pa, pb, fa, fb = grid[row, i], grid[row, j], f[k, i], f[k, j]
            zero = fa == 0.0
            bracket[:, scanning[r]] = (pa, np.where(zero, pa, pb), np.where(zero, 0.0, fa),
                                       np.where(zero, 0.0, fb))
        skip[scanning] -= count
        before[scanning] = values[:, -1]
        scanning = scanning[~done]
        start += width
    return bracket


def _scan_one(request: SolveRequest, first: float, last: float,
              opts: SolverOptions) -> tuple:
    """_scan for one request, picking the bracket from a list of starts,
    which costs fewer numpy calls than _scan's row-wise picking.

    Returns (count, a, b, fa, fb) as floats, the bracket NaN if there is
    no bracket ``opts.root_index``.  Only these floats leave this frame,
    so an exception raised about the scan does not keep its arrays alive.
    """
    import numpy as np
    grid = np.linspace(first, last, opts.scan_points)
    values = energy_residual(grid, request)
    starts = np.flatnonzero(_bracket_starts(values)).tolist()
    if len(starts) <= opts.root_index:
        return len(starts), math.nan, math.nan, math.nan, math.nan
    i = starts[opts.root_index]
    a, fa = grid.item(i), values.item(i)
    if fa == 0.0:
        return len(starts), a, a, 0.0, 0.0
    return len(starts), a, grid.item(i + 1), fa, values.item(i + 1)


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
            raise ConvergenceError(f"root polish exceeded {_MAX_POLISH_STEPS} "
                                   f"iterations; interval [{a}, {b}]")
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


def _polish_rows(request: SolveRequest, a, b, fa, fb, abs_tol: float):
    """_polish for every row of a stacked request, element by element.

    a, b, fa and fb hold one bracket per row; a row whose bracket is
    closed (a == b) or NaN takes no step.  Each step evaluates the next point of
    every row in one residual call, and a row stops where _polish would
    stop it, with the same arithmetic.  A point outside the domain (NaN)
    closes its row's bracket on that point, where _polish would raise.
    Returns (E, f(E), capped): ``capped`` marks the rows that reached the
    step cap, where _polish would raise too.
    """
    import numpy as np
    sides = np.array([[a, fa, fa], [b, fb, fb]])    # point, f, chord weight
    (a, fa, ga), (b, fb, gb) = sides
    weights = sides[:, 2]                           # ga, gb
    new = np.empty((3,) + a.shape)                  # c, f(c), f(c)
    moved = np.zeros((2,) + a.shape, dtype=bool)    # a, b took c last step
    # f(a) keeps its sign while a moves, and f(b) the other one:
    # f(c)*away[0] < 0 where f(c) has f(b)'s sign, f(c)*away[1] < 0 where
    # it has f(a)'s.
    away = np.where(fa < 0.0, -1.0, 1.0) * np.array([[1.0], [-1.0]])
    # A finished row's chord may divide 0 by 0; its point is not used.
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_MAX_POLISH_STEPS + 1):
            tol = abs_tol + 4.0 * _EPS * np.abs(0.5 * (a + b))
            width = b - a
            active = width > tol
            if step == _MAX_POLISH_STEPS or not np.count_nonzero(active):
                break
            c = b - gb * width / (gb - ga)
            half = 0.5 * tol
            lo, hi = a + half, b - half
            c = np.where(c > lo, np.where(c < hi, c, hi), lo)
            fc = energy_residual(c[:, None], request)[:, 0]
            # c replaces a where f(c) has f(a)'s sign, b where it has f(b)'s,
            # and both, closing the bracket on c, where f(c) is 0 or NaN
            # (outside the domain): the first ends _polish, the second
            # makes it raise.  An end that takes c twice in a row halves
            # the other end's chord weight.
            took = active & ~(fc * away < 0.0)
            np.multiply(weights, 0.5, out=weights, where=(took & moved)[::-1])
            moved = took
            new[0], new[1:] = c, fc
            np.copyto(sides, new, where=moved[:, None])
    at_a = np.abs(fa) <= np.abs(fb)
    # Rows still active here have reached the step cap.
    return np.where(at_a, a, b), np.where(at_a, fa, fb), active


def solve_energy(request: SolveRequest,
                 options: SolverOptions | None = None) -> SolveResult:
    """Find a bound-state energy: scan for sign changes, then polish one.

    Scans ``scan_points`` abscissae over the validity interval in one
    array evaluation of the residual, counts the sign changes, and
    polishes the bracket selected by ``options.root_index`` with Illinois
    steps until it is narrower than ``abs_tol_E`` plus a few ulps of E.
    """
    opts = options if options is not None else _DEFAULT_OPTIONS
    first, last = _scan_ends(request, opts)
    count, a, b, fa, fb = _scan_one(request, first, last, opts)
    if count == 0:
        raise NoRootError(
            f"no sign change of the energy residual on [{first}, {last}] "
            f"with {opts.scan_points} scan points")
    if opts.root_index >= count:
        raise NoRootError(
            f"root index {opts.root_index} requested but the scan found only "
            f"{count} bracket(s)")
    energy, residual, iterations = _polish(request, a, b, fa, fb, opts.abs_tol_E)
    lam = lambda_separation(energy, request.M, request.params, request.qn.m,
                            request.qn.n_theta, request.branch, request.symmetry)
    ansatz = radial_ansatz(energy, request.M, request.params.K, request.params.A,
                           lam, request.symmetry, n_r=request.qn.n_r)
    return SolveResult(E=energy, lam=lam, delta=ansatz.delta,
                       big_delta=ansatz.big_delta, residual=residual,
                       iterations=iterations, bracket=(a, b),
                       root_count_in_scan=count)


def solve_columns(cols: np.ndarray, options: SolverOptions | None = None
                  ) -> np.ndarray:
    """solve_energy's energy for each request of an (11, R) array of
    columns (see request_columns), solved column-wise in array calls.

    Validation (the numeric checks of model.validate) and the scan ends
    are array operations over the columns.  The requests that pass are
    scanned in ascending windows that they leave once they hold their
    bracket (see _scan), at most _SCAN_CHUNK requests at a time, and then
    polished all at once, one residual call per Illinois step.  Returns
    the R energies: NaN exactly where solve_energy raises for the request,
    solve_energy's bits elsewhere.  The columns are floats, so a quantum
    number is checked by value: n_r = 1.0 solves here as n_r = 1 does in
    solve_energy, which raises "n_r must be an integer" for
    QuantumNumbers(n_r=1.0); a fraction such as 1.5 fails in both.
    """
    import numpy as np
    opts = options if options is not None else _DEFAULT_OPTIONS
    first, last = _scan_ends(cols, opts)
    E = np.full(cols.shape[1], np.nan)
    rows = np.flatnonzero(~np.isnan(first))
    if rows.size:
        first, last = first[rows], last[rows]
        batch = _stack(cols[:, rows])
        # Blocks of at most _SCAN_CHUNK rows, so that a window of one point
        # per row stays within _SCAN_CHUNK points.
        parts = [slice(i, i + _SCAN_CHUNK) for i in range(0, rows.size, _SCAN_CHUNK)]
        a, b, fa, fb = np.concatenate(
            [_scan(batch.take(p), first[p], last[p], opts) for p in parts], axis=1)
        point, residual, capped = _polish_rows(batch, a, b, fa, fb, opts.abs_tol_E)
        # A NaN residual: no bracket, or the polish stepped outside the domain.
        E[rows] = np.where(capped | np.isnan(residual), np.nan, point)
    return E

