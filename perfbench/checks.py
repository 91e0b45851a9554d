"""Output checks that share no code with the rspho package.

Every formula here is written from the paper's relations, so a check
passes because the program's output is right, not because the program
agrees with itself.  A "request" is a plain dict with the keys
K, A, B, C, M, n_r, n_theta, m, s (+1 spin, -1 pseudo-spin),
c (1 table convention, 2 equation convention) and branch (+1 or -1).
"""

from __future__ import annotations

import math

import numpy as np

# Relative-plus-absolute tolerance for physical CSV columns.  The CLI prints
# 8 significant digits by default, so two correct runs may differ by one unit
# in the last printed digit; 2e-7 relative covers that and nothing coarser.
CSV_REL_TOL = 2e-7
CSV_ABS_TOL = 1e-9
# Columns whose value a legitimate change of root-finding method may change:
# only their form is checked.
FORM_COLUMNS = {"iterations", "residual", "rel_error"}
# Bound on the |residual| a solver may report for a converged root.
REPORTED_RESIDUAL_BOUND = 1e-8
# The paper's verification gate for finite-difference levels.
FD_REL_TOL = 1e-3
# Tolerance on an energy read back from the library (full float64).
RESIDUAL_REL_TOL_FULL = 1e-9


def separation_constant(E: float, req: dict) -> float | None:
    """lambda(E) = [n_theta + 1/2 +/- sqrt(1/2 - w - m^2)]^2 + w + m^2 - 1/2,
    with the ring coupling w = s*2(E+M)(B+C); None outside its domain."""
    w = req["s"] * 2.0 * (E + req["M"]) * (req["B"] + req["C"])
    rad = 0.5 - w - req["m"] ** 2
    if rad < 0.0:
        return None
    b = req["n_theta"] + 0.5 + req["branch"] * math.sqrt(rad)
    return b * b + w + req["m"] ** 2 - 0.5


def energy_relation(E: float, req: dict) -> float | None:
    """(E - M) - c*sqrt(s*K/(E+M))*(2 n_r + 1 + sqrt(1/4 + delta'(E))).

    delta'(E) = s*2*A*(E+M) + lambda(E).  Zero at a bound state; None where a
    square root of the relation has a negative argument.
    """
    s, M = req["s"], req["M"]
    if not E + M > 0.0:
        return None
    lam = separation_constant(E, req)
    if lam is None:
        return None
    radial = 0.25 + s * 2.0 * req["A"] * (E + M) + lam
    stiff = s * req["K"] / (E + M)
    if radial < 0.0 or stiff <= 0.0:
        return None
    return (E - M) - req["c"] * math.sqrt(stiff) * (
        2.0 * req["n_r"] + 1.0 + math.sqrt(radial))


def residual_tolerance(E: float, decimals: int | None) -> float:
    """Allowed |f(E)| for an energy known to full precision (decimals None)
    or rounded to ``decimals`` places.  |df/dE| stays below a few units on
    every workload, so twenty units of the last place is a safe margin."""
    scale = 1.0 + abs(E)
    if decimals is None:
        return RESIDUAL_REL_TOL_FULL * scale
    return max(RESIDUAL_REL_TOL_FULL, 20.0 * 10.0 ** -decimals) * scale


def check_energy(E, req: dict, decimals: int | None = None) -> str | None:
    """None when E satisfies the energy relation, else the reason it does not."""
    if not isinstance(E, float) or not math.isfinite(E):
        return f"energy {E!r} is not a finite float"
    f = energy_relation(E, req)
    if f is None:
        return f"E = {E!r} lies outside the domain of the energy relation"
    tol = residual_tolerance(E, decimals)
    if abs(f) > tol:
        return f"|f(E)| = {abs(f):.3e} > {tol:.1e} at E = {E!r}"
    return None


# ---------------------------------------------------------------- closed forms

def radial_ladder(delta_prime: float, big_delta: float, count: int) -> list[float]:
    """Levels of -u'' + (delta'/r^2 + big_delta^2 r^2) u: 2*D*(2n + 1 + sqrt(1/4 + delta'))."""
    root = math.sqrt(0.25 + delta_prime)
    return [2.0 * big_delta * (2.0 * n + 1.0 + root) for n in range(count)]


def angular_ladder(v0: float, count: int) -> list[float]:
    """Levels of -u'' + v0 cot^2(theta) u: n^2 + 2nq + q with q = 1/2 + sqrt(1/4 + v0)."""
    q = 0.5 + math.sqrt(0.25 + v0)
    return [n * n + 2.0 * n * q + q for n in range(count)]


def check_fd_levels(computed, predicted: list[float]) -> str | None:
    computed = [float(x) for x in computed]
    if len(computed) != len(predicted):
        return f"{len(computed)} levels returned, {len(predicted)} expected"
    worst = max(abs(c - p) / abs(p) for c, p in zip(computed, predicted))
    if not worst <= FD_REL_TOL:
        return f"finite-difference level off by {worst:.3e} relative"
    return None


def trapezoid(y, x) -> float:
    """Composite trapezoid rule."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def kummer_polynomial(n: int, b: float, z):
    """1F1(-n; b; z), the terminating series summed term by term."""
    z = np.asarray(z, dtype=float)
    total = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(n):
        term = term * ((k - n) * z / ((b + k) * (k + 1.0)))
        total = total + term
    return total


def sign_changes(values) -> int:
    values = np.asarray(values, dtype=float)
    kept = values[np.abs(values) > 1e-9 * np.max(np.abs(values))]
    return int(np.count_nonzero(np.diff(kept > 0.0)))


def check_profile(values, bare, grid, weight, nodes: int) -> str | None:
    """A normalised sampled profile: unit norm by our own quadrature, the
    closed-form shape ``bare`` up to a constant, and ``nodes`` sign changes."""
    values = np.asarray(values, dtype=float)
    if values.shape != np.shape(grid):
        return f"{values.size} samples for {np.size(grid)} grid points"
    norm = trapezoid(values * values * weight, grid)
    if abs(norm - 1.0) > 1e-4:
        return f"norm {norm!r} differs from 1 by more than 1e-4"
    k = math.sqrt(1.0 / trapezoid(bare * bare * weight, grid))
    peak = float(np.max(np.abs(values)))
    worst = float(np.max(np.abs(values - k * bare)))
    if worst > 1e-4 * peak:
        return f"shape departs from the closed form by {worst / peak:.3e} of the peak"
    found = sign_changes(values)
    if found != nodes:
        return f"{found} nodes, expected {nodes}"
    return None


def radial_bare(n_r: int, L: float, big_delta: float, c: float, r_grid):
    """exp(-eta^2/2) r^(L+1) 1F1(-n_r; L + 3/2; eta^2), eta^2 = (c/2) big_delta r^2."""
    eta2 = 0.5 * c * big_delta * np.asarray(r_grid, dtype=float) ** 2
    return np.exp(-0.5 * eta2) * np.asarray(r_grid) ** (L + 1.0) * kummer_polynomial(n_r, L + 1.5, eta2)


def nonrelativistic_ladder(p: dict, count_tail_tol: float, beta: float):
    """Own oscillator-limit ladder and its Boltzmann moments.

    E_n = (c/2) sqrt(2K/mu) (2n + 1 + sqrt(1/4 + 4 A mu + lambda_n)), with
    lambda_n taken at the static coupling w = 4 mu (B + C) and n_theta = n.
    Returns (E0, s0, s1, s2) of the ground-shifted sums, truncated like the
    paper's partition sum once a term falls below ``count_tail_tol`` * s0.
    """
    mu, m = p["mu"], p["m"]
    w = 4.0 * mu * (p["B"] + p["C"])
    root_w = math.sqrt(0.5 - w - m * m)
    pre = 0.5 * p["c"] * math.sqrt(2.0 * p["K"] / mu)
    e0 = None
    s0 = s1 = s2 = 0.0
    n = 0
    while True:
        lam = (n + 0.5 + p["branch"] * root_w) ** 2 + w + m * m - 0.5
        energy = pre * (2.0 * n + 1.0 + math.sqrt(0.25 + 4.0 * p["A"] * mu + lam))
        if e0 is None:
            e0 = energy
        x = energy - e0
        t = math.exp(-beta * x)
        s0 += t
        s1 += x * t
        s2 += x * x * t
        n += 1
        if t < count_tail_tol * s0:
            return e0, s0, s1, s2


def check_thermo(point: dict, p: dict, T: float) -> str | None:
    """F = U - TS, C >= 0, and U, C, ln Z against our own ladder sums."""
    F, U, S, C, Z = (point[k] for k in ("F", "U", "S", "C", "Z"))
    scale = abs(F) + abs(U) + abs(T * S) + 1.0
    if abs(F - (U - T * S)) > 1e-9 * scale:
        return f"F - (U - TS) = {F - (U - T * S):.3e}"
    if not C >= 0.0:
        return f"heat capacity {C!r} is negative"
    beta = 1.0 / T
    e0, s0, s1, s2 = nonrelativistic_ladder(p, 1e-14, beta)
    mean = s1 / s0
    own = {"U": e0 + mean, "C": beta * beta * (s2 / s0 - mean * mean),
           "lnZ": -beta * e0 + math.log(s0)}
    got = {"U": U, "C": C, "lnZ": math.log(Z) if Z > 0.0 else -math.inf}
    for key, want in own.items():
        if not abs(got[key] - want) <= 1e-8 * (abs(want) + 1e-3):
            return f"{key} = {got[key]!r}, own ladder gives {want!r}"
    return None


# ---------------------------------------------------------------- CSV outputs

def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """(comment lines, header cells, data rows) of an rspho CSV."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return comments, [], []
    return comments, body[0].split(","), [ln.split(",") for ln in body[1:]]


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _form_ok(column: str, cell: str) -> bool:
    if column == "iterations":
        return cell.isdigit()
    value = _as_float(cell)
    if value is None or not math.isfinite(value):
        return False
    if column == "residual":
        return abs(value) <= REPORTED_RESIDUAL_BOUND
    return value >= 0.0


def compare_csv(got: str, want: str, filled_check=None) -> list[str]:
    """Differences that matter between a CSV output and the recorded one.

    Comment lines, the header and the row count must match exactly; text
    cells must match exactly; numeric cells within CSV_REL_TOL/CSV_ABS_TOL;
    FORM_COLUMNS only for form.  A cell empty in the record but filled now
    is accepted when ``filled_check(row, column, cell)`` returns None, the
    independent check of a newly found state.
    """
    problems: list[str] = []
    g_comments, g_header, g_rows = parse_csv(got)
    w_comments, w_header, w_rows = parse_csv(want)
    if g_comments != w_comments:
        problems.append(f"comment lines differ: {g_comments!r} vs {w_comments!r}")
    if g_header != w_header:
        return problems + [f"header {g_header!r} differs from {w_header!r}"]
    if len(g_rows) != len(w_rows):
        return problems + [f"{len(g_rows)} rows, expected {len(w_rows)}"]
    for i, (g_row, w_row) in enumerate(zip(g_rows, w_rows)):
        if len(g_row) != len(w_row):
            problems.append(f"row {i}: {len(g_row)} cells, expected {len(w_row)}")
            continue
        for column, g, w in zip(w_header, g_row, w_row):
            if g == w:
                continue
            where = f"row {i} column {column}"
            if column in FORM_COLUMNS:
                if not _form_ok(column, g):
                    problems.append(f"{where}: {g!r} has the wrong form")
                continue
            if w == "" and filled_check is not None:
                reason = filled_check(g_row, column, g)
                if reason is not None:
                    problems.append(f"{where}: newly filled cell fails: {reason}")
                continue
            gv, wv = _as_float(g), _as_float(w)
            if gv is None or wv is None:
                problems.append(f"{where}: {g!r} differs from {w!r}")
            elif not abs(gv - wv) <= CSV_ABS_TOL + CSV_REL_TOL * abs(wv):
                problems.append(f"{where}: {g!r} differs from {w!r} beyond tolerance")
    return problems
