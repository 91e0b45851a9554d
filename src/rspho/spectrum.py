"""Self-consistent energy solver for one request or for columns of many.

The bound-state energy satisfies an implicit relation

    E - M = c * sqrt(s*K/(E+M)) * (2*n_r + 1 + sqrt(1/4 + delta'(E)))

where delta'(E) = s*2*A*(E+M) + lambda(E) and lambda comes from the
angular sector (itself energy dependent).  s is +1 under spin symmetry
and -1 under pseudo-spin; c is the convention coefficient (see
model.Convention).

The relation is solved in two steps.  A scan evaluates the residual on a
grid of _SCAN_POINTS points over the analytic validity interval, up to
M + _SCAN_CEILING*sqrt(|K|), and takes its first sign change: every
radicand except the radial one is affine in E, so the interval endpoints
are available in closed form (_scan_ends), and grid points where the
radial radicand fails are skipped.  That first bracket, the lowest root,
is then polished by the Illinois variant of regula falsi
(Dowell & Jarratt, BIT 11 (1971) 168), which keeps the root bracketed at
every step and converges superlinearly; every step lands at least half
the tolerance inside the bracket, so the bracket shrinks even where the
chord points at one of its ends.  That tolerance, abs_tol_E, is the one
setting a caller passes; the grid and the ceiling are constants.

Both solvers compute the residual's terms that depend on the request
alone (M, s*2, B + C, 1/4 - m^2, n_theta, the branch sign, s*K, s*2*A,
2*n_r + 1 and c, see _terms) once per request, and energy_residual takes
that tuple in place of a request.  lambda is angular's, lambda = angular_level(q, n_theta) - 1/4
with q from q_of_vtilde, the forms that verify checks; the radial terms
come from radial_terms_from_terms.  Both scan the grid that _grid
computes, with the bits of np.linspace.

solve_energy does this for one request and returns the energy with its
diagnostics, or raises: the scan, every polish step and the result's
lambda, delta and big_delta at E share the request's one terms tuple.
Its scan has two forms with the same result: one array call over the
whole grid (_scan_one), or, in a process that has not loaded numpy, one
float call per point up to the first bracket (_scan_floats).
solve_columns does it for many, column-wise, and returns only the
energies, NaN exactly where solve_energy raises and its bits elsewhere.
Each of the requests' numbers is a float shared by every request or an
array of one value per request; validation, scan intervals and terms
broadcast them, a shared number staying one float so that numpy computes
what the requests share once.  The scan walks the requests' grids in
ascending windows, each one residual call over the rows still scanning,
which a request leaves once it holds its first bracket; most roots lie
low on the grid.  One Illinois loop then steps every row at once, one
residual call per step.

solve_cells solves the cells of a table or a sweep: with solve_columns,
or, in a process that has not loaded numpy, with solve_energy one cell
at a time.  numpy is imported by the array code only (_scan_one, the
column solver, the array forms of the residual and of the scan ends),
so solve_energy and solve_cells run on floats alone where numpy is not
loaded.  numerics.numpy_loaded makes that choice: importing numpy costs a
cold process more than the float residual calls of a table, while in a
process that has loaded it one array call over a grid costs a small
fraction of 512 float calls.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING

from .angular import angular_level, q_of_vtilde
from .errors import ConvergenceError, DomainError, NoRootError
from .model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                    SolveRequest, Symmetry, _Record, numeric_checks, validate)
from .numerics import is_array, numpy_loaded, positive, sqrt
from .radial import radial_terms_from_terms

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SolveResult",
    "energy_residual",
    "solve_energy",
    "solve_columns",
    "solve_cells",
]

_EPS = sys.float_info.epsilon
_MAX_POLISH_STEPS = 200
# Grid points of a scan, and its ceiling: a scan stops at
# M + _SCAN_CEILING*sqrt(|K|), generous against the oscillator level
# spacing.  Both are read when a scan runs.
_SCAN_POINTS = 512
_SCAN_CEILING = 100.0
# Grid points per residual call of a batch scan: the scan's windows are at
# most this large, or one point per row where a batch has more rows, so the
# kernel's temporaries stay in cache.
_SCAN_CHUNK = 8192


class SolveResult(_Record):
    """A converged bound-state energy with its diagnostics.

    ``lam``, ``delta`` and ``big_delta`` are lambda, delta and big_delta
    at E (see solve_energy).  ``bracket`` is the interval between two
    neighbouring points of the scan's grid (see _scan_ends) that contained
    the root, the first bracket on the grid, or (E, E) for an exact zero
    on the grid; the scan does not look for brackets above it.  ``iterations`` counts the polish
    steps, each one residual evaluation, and ``residual`` is the residual
    at E.
    """

    E: float
    lam: float
    delta: float
    big_delta: float
    residual: float
    iterations: int
    bracket: tuple[float, float]

    def __init__(self, E, lam, delta, big_delta, residual, iterations, bracket):
        self.__dict__.update(E=E, lam=lam, delta=delta, big_delta=big_delta, residual=residual,
                             iterations=iterations, bracket=bracket)


def _terms(K, A, B, C, M, n_r, n_theta, m, s, sign, c) -> tuple:
    """The numbers of the residual that depend on the request alone, each
    computed as the closed forms compute it: M, s*2, B + C, 1/4 - m^2
    (the part of the barrier Vt free of E), n_theta, the branch sign, s*K,
    s*2*A, 2*n_r + 1 and the convention coefficient c.  The numbers may
    be floats, shared by every request, or (R, 1) columns, row r for
    request r (s, sign and c being the enums' numeric properties)."""
    s2 = s * 2.0
    return (M, s2, B + C, 0.25 - m * m, n_theta, sign, s * K, s2 * A,
            2.0 * n_r + 1.0, c)


def _request_terms(request: SolveRequest) -> tuple:
    """The _terms of one request, as floats."""
    p, qn = request.params, request.qn
    return _terms(p.K, p.A, p.B, p.C, request.M, qn.n_r, qn.n_theta, qn.m,
                  request.symmetry.coupling_sign, request.branch.sign,
                  request.convention.coefficient)


def energy_residual(E, request: SolveRequest | tuple):
    """f(E) = (E - M) - c*sqrt(s*K/(E+M))*(2*n_r + 1 + sqrt(1/4 + delta'(E))).

    Zero exactly at a bound-state energy.  E may be a float or a numpy
    array.  A float outside the validity region raises DomainError naming
    the radicand that failed; an array gets NaN wherever one fails.
    ``request`` is a SolveRequest, whose _terms are computed here, or the
    terms themselves, as solve_columns builds them for many requests: then
    an (R, n) grid is evaluated element by element as each row's request
    would be alone.
    """
    terms = request if type(request) is tuple else _request_terms(request)
    if is_array(E):
        import numpy as np
        # The square roots make NaN of negative radicands; the two strict
        # guards, E + M > 0 and a positive stiffness, are one mask at the end
        # (np.minimum passes a NaN on, and NaN > 0 is false), written into
        # f, a new array with the shape of the three.
        with np.errstate(invalid="ignore", divide="ignore"):
            f, fac, _, _, stiff = _residual(E, terms)
        np.copyto(f, np.nan, where=~(np.minimum(fac, stiff) > 0.0))
        return f
    return _residual(E, terms)[0]


def _residual(E, terms: tuple):
    """energy_residual's f with what it computes on the way: (f, E + M,
    lambda, sqrt(1/4 + delta'), big_delta^2).  The array form masks E + M
    and the stiffness; solve_energy builds its result from the rest."""
    M, s2, bc, vt_m, n_theta, sign, sK, s2A, nr21, c = terms
    fac = positive(E + M, "E + M must be positive (got {})")
    # Vt = (1/4 - m^2) - w, w = s*2*(E+M)*(B+C) the signed ring coupling
    q = q_of_vtilde(vt_m - s2 * fac * bc, sign)
    lam = angular_level(q, n_theta) - 0.25
    _, root, stiff = radial_terms_from_terms(fac, sK, s2A, lam)
    # sqrt(s*K/(E+M)) = big_delta/(E+M) with big_delta^2 = s*K*(E+M)
    rhs = c * sqrt(stiff) / fac * (nr21 + root)
    return (E - M) - rhs, fac, lam, root, stiff


def _scan_ends(request: SolveRequest | tuple):
    """Validate requests and return the first and last point of their scans.

    A scan covers the energies where E + M > 0 and where the
    separation-constant radicand 1/2 - s*2*(E+M)*(B+C) - m^2, affine in E,
    is >= 0, up to M + _SCAN_CEILING*sqrt(|K|), pulled in at both ends by
    a relative margin of 1e-9.  The radial radicand is not affine; the
    scan tolerates it pointwise instead.

    ``request`` is a SolveRequest: one that fails validation raises
    DomainError, and NoRootError is raised where the separation radicand
    is negative at every energy or the interval is empty, naming the
    constraint that sets each end (E + M > 0, the separation radicand or
    the ceiling).  Or it is the tuple of solve_columns' numbers, and the
    ends are arrays, NaN for a request that fails the numeric checks of
    validation, has a quantum number that is not whole, or has no scan
    interval.  Both forms compute the same formulas in the same order, so
    their ends have the same bits.
    """
    if type(request) is tuple:
        import numpy as np
        K, A, B, C, M, n_r, n_theta, m, s = request[:9]
        # Requests that fail validation may hold inf and NaN, and a slope
        # of 0 divides by 0, a shared float one too (np.divide).
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e_max = M + _SCAN_CEILING * np.sqrt(abs(K))
            slope = -s * 2.0 * (B + C)
            const = 0.5 - s * 2.0 * M * (B + C) - m * m
            edge = np.divide(-const, slope)
            # The float branch below, element by element.
            lo = np.where((slope > 0.0) & (edge > -M), edge, -M)
            hi = np.where((slope < 0.0) & (edge < e_max), edge, e_max)
            valid = np.ones(np.broadcast_shapes(1, *map(np.shape, request)), dtype=bool)
            for ok in numeric_checks(K, A, B, C, M, s, n_r, n_theta) + (
                    n_r % 1.0 == 0.0, n_theta % 1.0 == 0.0, m % 1.0 == 0.0,
                    (slope > 0.0) | (slope < 0.0) | np.logical_not(const < 0.0), hi > lo):
                valid &= ok
            margin = 1e-9 * np.maximum(np.maximum(1.0, abs(lo)), abs(hi))
            return (np.where(valid, lo + margin, np.nan),
                    np.where(valid, hi - margin, np.nan))
    violations = validate(request)
    if violations:
        raise DomainError("invalid request: "
                          + "; ".join(v.message for v in violations))
    p, M, s = request.params, request.M, request.symmetry.coupling_sign
    lo, lo_by = -M, "E + M > 0"
    hi, hi_by = M + _SCAN_CEILING * math.sqrt(abs(p.K)), "the scan ceiling"
    slope = -s * 2.0 * (p.B + p.C)
    const = 0.5 - s * 2.0 * M * (p.B + p.C) - request.qn.m * request.qn.m
    if slope > 0.0:
        if (edge := -const / slope) > lo:
            lo, lo_by = edge, "the separation radicand"
    elif slope < 0.0:
        if (edge := -const / slope) < hi:
            hi, hi_by = edge, "the separation radicand"
    elif const < 0.0:
        raise NoRootError(
            f"separation-constant radicand is {const} for every energy; "
            "no bound state exists for these quantum numbers")
    if not hi > lo:
        if hi_by == "the scan ceiling":
            hi_by += f" M + {_SCAN_CEILING}*sqrt(|K|)"
        raise NoRootError(
            f"empty scan interval [{lo}, {hi}]: {lo_by} sets its low end "
            f"and {hi_by} its high end")
    margin = 1e-9 * max(1.0, abs(lo), abs(hi))
    return lo + margin, hi - margin


def _take(terms: tuple, rows) -> tuple:
    """Rows ``rows`` (an index array or a slice) of solve_columns' terms."""
    return tuple(x[rows] if is_array(x) else x for x in terms)


def _bracket_starts(values):
    """Where a bracket starts along the last axis of a scan's residuals.

    A bracket starts at a grid point whose residual is exactly zero, or
    whose residual changes sign at the next point; NaN starts none.
    """
    hit = values == 0.0
    hit[..., :-1] |= values[..., :-1] * values[..., 1:] < 0.0
    return hit


def _grid(first, step, last, start: int, stop: int):
    """Points start to stop - 1 of the scan grid from first to last, with
    the bits of np.linspace(first, last, _SCAN_POINTS): point i is
    i*step + first, step = (last - first)/(_SCAN_POINTS - 1), and the
    grid's last point is last itself.  first, step and last are floats
    for one grid, or first and step are (R, 1) columns and last an (R,)
    array for R grid rows."""
    import numpy as np
    grid = np.arange(start, stop, dtype=float) * step + first
    if stop == _SCAN_POINTS:
        grid[..., -1] = last
    return grid


def _scan(terms: tuple, first, last):
    """Scan the residual of the requests whose terms solve_columns built
    and pick each one's first bracket.

    Row r scans the grid from first[r] to last[r] (see _grid), walked in
    ascending windows: each window is one residual call over the rows
    still scanning, taken from the terms by index, _SCAN_CHUNK // rows
    points wide (at least one), and if every row has the same ends they
    share one grid row.  A row stops scanning once it holds a bracket, and
    a row without one sees every grid point once.  Brackets start where
    _scan_one finds them (see _bracket_starts), in the residual at the
    point before the window (NaN before the first) followed by the
    window's, but not at its last point, which the next window decides.
    Returns the (4, R) array of the rows' (a, b, fa, fb) as _scan_one
    picks them, NaN for a row without a bracket.
    """
    import numpy as np
    n = _SCAN_POINTS
    rows = first.size
    step = (last - first) / (n - 1)
    shared = (first == first[0]).all() and (last == last[0]).all()
    bracket = np.full((4, rows), np.nan)
    before = np.full(rows, np.nan)              # f at the point before a window
    scanning = np.arange(rows)
    start = 0
    while scanning.size and start < n:
        width = min(max(1, _SCAN_CHUNK // scanning.size), n - start)
        # Grid points start - 1 to start + width - 1, and f at them.
        at = slice(1) if shared else scanning
        grid = _grid(first[at, None], step[at, None], last[at], start - 1, start + width)
        values = np.empty((scanning.size, width + 1))
        values[:, 0] = before[scanning]
        values[:, 1:] = energy_residual(
            grid[:, 1:], terms if scanning.size == rows else _take(terms, scanning))
        hit = _bracket_starts(values)
        if start + width < n:
            hit[:, -1] = False                  # the next window decides it
        done = hit.any(axis=1)
        r = np.flatnonzero(done)
        if r.size:
            # The done rows' first bracket, at i, and its ends, i and i + 1.
            i = hit[r].argmax(axis=1)
            j = np.minimum(i + 1, width)
            grid = np.broadcast_to(grid, values.shape)
            pa, pb, fa, fb = grid[r, i], grid[r, j], values[r, i], values[r, j]
            zero = fa == 0.0
            bracket[:, scanning[r]] = (pa, np.where(zero, pa, pb), np.where(zero, 0.0, fa),
                                       np.where(zero, 0.0, fb))
        before[scanning] = values[:, -1]
        scanning = scanning[~done]
        start += width
    return bracket


def _scan_one(terms: tuple, first: float, last: float) -> tuple | int:
    """_scan for the _terms of one request, in one residual call over the
    whole grid, which costs fewer numpy calls than _scan's windows.

    Returns the first bracket (a, b, fa, fb) as floats, as _scan picks it.
    A grid without a bracket returns the number of its points inside the
    domain (a residual that is not NaN), an int.  Only these numbers leave
    this frame, so an exception raised about the scan does not keep its
    arrays alive.
    """
    import numpy as np
    grid = _grid(first, (last - first) / (_SCAN_POINTS - 1), last, 0, _SCAN_POINTS)
    values = energy_residual(grid, terms)
    starts = _bracket_starts(values)
    i = int(starts.argmax())
    if not starts[i]:
        return int(np.count_nonzero(~np.isnan(values)))
    a, fa = grid.item(i), values.item(i)
    if fa == 0.0:
        return a, a, 0.0, 0.0
    return a, grid.item(i + 1), fa, values.item(i + 1)


def _scan_floats(terms: tuple, first: float, last: float) -> tuple | int:
    """_scan_one on floats, one residual call per grid point, for a process
    that has not loaded numpy.

    Walks _grid's points in ascending order, with its bits (point i is
    i*step + first, the last point is last), and stops at the first
    bracket by _bracket_starts' rule: a point outside the domain
    (DomainError) counts as NaN, which starts none.  Returns what _scan_one
    returns, bit for bit.
    """
    step = (last - first) / (_SCAN_POINTS - 1)
    inside = 0
    a = fa = math.nan                           # the point before b
    for i in range(_SCAN_POINTS):
        b = i * step + first if i < _SCAN_POINTS - 1 else last
        try:
            fb = energy_residual(b, terms)
        except DomainError:
            fb = math.nan
        if fa * fb < 0.0:
            return a, b, fa, fb
        if fb == 0.0:
            return b, b, 0.0, 0.0
        if not math.isnan(fb):
            inside += 1
        a, fa = b, fb
    return inside


def _polish(terms: tuple, a: float, b: float, fa: float, fb: float,
            abs_tol: float) -> tuple[float, float, int]:
    """Shrink the bracket [a, b] around a root of the residual of one
    request, given by its _terms.

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
        fc = energy_residual(c, terms)
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


def _polish_rows(terms: tuple, a, b, fa, fb, abs_tol: float):
    """_polish for every row of solve_columns' terms, element by element.

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
            fc = energy_residual(c[:, None], terms)[:, 0]
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


def _check_tolerance(abs_tol_E: float) -> None:
    if not 0.0 < abs_tol_E < math.inf:
        raise ValueError(f"abs_tol_E must be positive and finite (got {abs_tol_E})")


def solve_energy(request: SolveRequest, abs_tol_E: float = 1e-12) -> SolveResult:
    """Find the lowest bound-state energy: scan for sign changes, then
    polish the first.

    Computes the request's _terms once, for every residual call and for
    the result.  Scans _SCAN_POINTS abscissae over the scan interval (see
    _scan_ends), on the grid that solve_columns' scan computes (see
    _grid): in one array evaluation of the residual where numpy is loaded
    (_scan_one), and otherwise on floats up to the first sign change
    (_scan_floats), which finds the same bracket.  Polishes that bracket
    with Illinois steps until it is narrower than ``abs_tol_E`` plus a few
    ulps of E, so large energies converge too.  lambda, delta = -1/2 - sqrt(1/4 + delta') and big_delta
    at E come from the residual's own arithmetic (_residual).  A scan
    without a bracket raises NoRootError that says how many grid points
    lay inside the domain.  ``abs_tol_E`` must be positive and finite
    (ValueError).
    """
    _check_tolerance(abs_tol_E)
    first, last = _scan_ends(request)
    terms = _request_terms(request)
    scan = (_scan_one if numpy_loaded() else _scan_floats)(terms, first, last)
    if type(scan) is int:
        raise NoRootError(
            f"no sign change of the energy residual on [{first}, {last}] "
            f"with {_SCAN_POINTS} scan points ({scan} of {_SCAN_POINTS} "
            "points inside the domain)")
    a, b, fa, fb = scan
    energy, residual, iterations = _polish(terms, a, b, fa, fb, abs_tol_E)
    _, _, lam, root, stiff = _residual(energy, terms)
    return SolveResult(E=energy, lam=lam, delta=-0.5 - root,
                       big_delta=sqrt(stiff), residual=residual,
                       iterations=iterations, bracket=(a, b))


def solve_columns(K, A, B, C, M, n_r, n_theta, m, s, sign, c,
                  abs_tol_E: float = 1e-12) -> np.ndarray:
    """solve_energy's energy for each of R requests, in array calls.

    Each number (_terms', with s, sign and c the enums' numeric
    properties) is a float shared by every request or a 1-D array of one
    value per request.  The requests that pass validation (_scan_ends) are
    scanned in ascending windows that they leave once they hold their
    first bracket (see _scan), then polished all at once, one residual
    call per Illinois step.  Returns the R energies: NaN exactly where
    solve_energy raises for the request, solve_energy's bits elsewhere.
    A quantum number is checked by value: n_r = 1.0 solves here as n_r =
    1 does in solve_energy, which raises "n_r must be an integer" for
    QuantumNumbers(n_r=1.0); a fraction such as 1.5 fails in both.
    ``abs_tol_E`` is solve_energy's.
    """
    import numpy as np
    _check_tolerance(abs_tol_E)
    numbers = (K, A, B, C, M, n_r, n_theta, m, s, sign, c)
    first, last = _scan_ends(numbers)
    E = np.full(first.shape, np.nan)
    rows = np.flatnonzero(~np.isnan(first))
    if rows.size:
        first, last = first[rows], last[rows]
        terms = _terms(*(x[rows, None] if is_array(x) else x for x in numbers))
        a, b, fa, fb = _scan(terms, first, last)
        point, residual, capped = _polish_rows(terms, a, b, fa, fb, abs_tol_E)
        # A NaN residual: no bracket, or the polish stepped outside the domain.
        E[rows] = np.where(capped | np.isnan(residual), np.nan, point)
    return E


def solve_cells(K, A, B, C, M, n_r, n_theta, m, symmetry: Symmetry,
                branch: BranchSign = BranchSign.PLUS,
                convention: Convention = Convention.TABLE_CONSISTENT,
                abs_tol_E: float = 1e-12) -> list[float]:
    """The energies of the cells of a table or a sweep, as a list:
    solve_columns' energies, each list given as an array.

    Each number is a float, the same in every cell, or a list of one value
    per cell; the quantum numbers are ints.  Lists of unequal length, or
    none, raise ValueError before any solve.  In a process that has not
    loaded numpy, each cell is solved by solve_energy instead, NaN where
    it raises DomainError, NoRootError or ConvergenceError: the same
    energies, without the import.
    """
    numbers = (K, A, B, C, M, n_r, n_theta, m)
    lengths = [len(x) for x in numbers if type(x) is list]
    if len(set(lengths)) != 1:
        raise ValueError(f"the lists of cells differ in length: {lengths}" if lengths
                         else "no number is a list of cells")
    if numpy_loaded():
        import numpy as np
        return solve_columns(*(np.array(x, dtype=float) if type(x) is list else x
                               for x in numbers), symmetry.coupling_sign, branch.sign,
                             convention.coefficient, abs_tol_E).tolist()
    energies = []
    for K, A, B, C, M, n_r, n_theta, m in zip(
            *(x if type(x) is list else [x] * lengths[0] for x in numbers)):
        request = SolveRequest(params=PotentialParams(K=K, A=A, B=B, C=C), M=M,
                               qn=QuantumNumbers(n_r=n_r, n_theta=n_theta, m=m),
                               symmetry=symmetry, branch=branch, convention=convention)
        try:
            energies.append(solve_energy(request, abs_tol_E).E)
        except (DomainError, NoRootError, ConvergenceError):
            energies.append(math.nan)
    return energies
