"""Command-line surface: solve, table, sweep, wavefunction, potential, thermo, verify.

All commands emit CSV (comma separated, header row, LF line endings) to
standard output or to --output.  Options may also come from a plain
``key = value`` config file via --config.  A key is the long name of one
of the subcommand's flags without its dashes, and argparse checks its
value as it checks that flag's; explicit flags override file values, and
any other key is an error.

table and sweep build one list per number of their cells (the swept
values repeated across the series, the series repeated across the sweep)
and solve them together with spectrum.solve_cells, formatting the CSV
from the energies it returns, NaN where a cell failed.  A failed sweep
cell is empty; table fails with the error that solve_energy raises for
its first failed row.  The sweep, potential and thermo grids are lists
of floats with np.linspace's bits (_linspace), and the wavefunction grid
is the list of floats h*i, i = 1..points, with h from radial.r_grid_step.
This module imports numpy nowhere, and in a fresh process no command
loads it or scipy: verify's oracle builds and solves its matrix on floats
where numpy is not loaded.

Each check that concerns one flag (a count's lower bound, an integer that
fits a float, a grid bound's finiteness, a positive tolerance, the integers
of --series-values) is that flag's argparse type, so argparse reports it
("argument --X: must be ...") and checks a config value as it checks the
flag.  The commands check only what spans several flags: a grid whose
span overflows, a sweep from a value to itself, and the coefficients and
--n that a sweep needs.  The parsers read a token that starts with a
minus sign and a digit, or with -inf, -infinity or -nan in any case, as a
value (``--series-values -3,0,5``, ``--r-min -inf``), where argparse reads
only a plain negative number so.

This module imports only errors and model from the package.  Each command
imports the modules it runs when it runs: potential imports no other,
thermo imports thermo (and with it angular), verify imports oracle, and
solve, table, sweep and wavefunction import spectrum (and with it angular
and radial).  The public functions that a command calls (solve_energy,
radial_wavefunction, thermo_point, verify_radial and verify_angular) are
taken from the package, rspho, so a wrapper set there, as perfbench's span
tracer sets one, sees each call; the helpers come from their own modules.

Exit codes: 0 success, 1 usage error (including an --output file that
cannot be written), 2 domain or convergence failure, 3 verification
failure (verify command only).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import re
import sys

from .errors import ConvergenceError, DomainError, NoRootError
from .model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                    SolveRequest, Symmetry, evaluate_potential)

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

SOLVE_HEADER = "n,m,n_theta,A,B,C,K,M,symmetry,branch,convention,E,lambda,residual,iterations"
TABLE_HEADER = "n,m,n_theta,A,B,C,K,M,E"

# Built-in reference parameter sets for the table command.
_REFERENCE_SETS = {
    "spin1": dict(symmetry="spin", B=-0.05, K=5.0, C=0.005, M=5.0,
                  A_values=(6.0, 6.5, 7.0, 7.5),
                  n_values=(1, 2, 3), m_values=(0, 1)),
    "pseudospin2": dict(symmetry="pseudospin", B=0.5, K=-5.0, C=0.005, M=3.0,
                        A_values=(-5.0, -4.5, -4.0, -3.5, -3.0, -2.5),
                        n_values=(1, 2, 3), m_values=(0, 1, 2)),
}

_VERIFY_RADIAL_CASES = ((0.0, 1.0), (2.0, 1.0), (2.0, 3.0), (239.3666, 9.84509))
_VERIFY_ANGULAR_CASES = (2.0, 6.0, 12.0)


class UsageError(Exception):
    """A command-line or config-file problem; maps to exit code 1."""


# A minus sign, then a digit, a point and a digit, or a whole inf,
# infinity or nan (any case) before the end or a comma.
_NEGATIVE = re.compile(r"-(\.?\d|(inf|infinity|nan)(,|$))", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # What argparse reads as a value rather than a flag (by default
        # only "-3" or "-0.5"); no flag of rspho looks like one.
        self._negative_number_matcher = _NEGATIVE

    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` of the flag's text, which must pass
    ``ok``.  A text that convert rejects is an "invalid <its name> value"."""
    def check(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what} (got {value})")
        return value
    check.__name__ = convert.__name__
    return check


# An integer that converts to a float, as the model's checks and sums do.
_int = _checked(int, lambda n: abs(n) <= sys.float_info.max, "within the float range")


def _int_at_least(k: int):
    return _checked(_int, lambda n: n >= k, f">= {k}")


# 1074 decimals print 5e-324 = 2^-1074, the float with the most, exactly.
_precision = _checked(_int_at_least(0), lambda n: n <= 1074, "<= 1074")
_finite = _checked(float, math.isfinite, "finite")
_positive_finite = _checked(float, lambda x: 0.0 < x < math.inf, "positive and finite")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be comma-separated integers (got {text!r})") from None


def _read_config(path: str) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        entries[key.strip()] = raw.strip()
    return entries


def _fixed(x: float, prec: int) -> str:
    return f"{x:.{prec}f}"


def _compact(x: float, prec: int) -> str:
    return f"{x:.{prec}g}"


def _sci(x: float, prec: int) -> str:
    return f"{x:.{prec}e}"


def _param(x: float) -> str:
    return repr(float(x))


def _emit(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write output file {path}: {exc}")


def _finite_span(args: argparse.Namespace, first: str, last: str) -> None:
    """Check that the span of a grid from the option ``first`` to the
    option ``last`` is finite; each bound is finite by its flag's type."""
    span = getattr(args, last) - getattr(args, first)
    if not math.isfinite(span):
        first, last = ("--" + name.replace("_", "-") for name in (first, last))
        raise UsageError(f"the span from {first} to {last} must be finite (got {span})")


def _linspace(first: float, last: float, n: int) -> list[float]:
    """The n floats of np.linspace(first, last, n), bit for bit.

    Point i is i*step + first with step = (last - first)/(n - 1), and the
    last point is last itself.  Where the step is 0 (first == last, or a
    difference too small to divide) point i is (i/(n - 1))*(last - first)
    + first, as numpy computes it; one point is 0.0*(last - first) + first.
    """
    delta = last - first
    if n < 2:
        return [0.0 * delta + first] * n
    div = n - 1
    step = delta / div
    if step == 0.0:
        points = [i / div * delta + first for i in range(n)]
    else:
        points = [i * step + first for i in range(n)]
    points[-1] = last
    return points


def _build_request(args: argparse.Namespace) -> SolveRequest:
    params = PotentialParams(K=args.K, A=args.A, B=args.B, C=args.C)
    qn = QuantumNumbers(n_r=args.n, n_theta=args.ntheta, m=args.m)
    return SolveRequest(params=params, M=args.M, qn=qn,
                        symmetry=Symmetry(args.symmetry),
                        branch=BranchSign(args.branch),
                        convention=Convention(args.convention))


def _solve_row(req: SolveRequest, res, prec: int) -> str:
    p = req.params
    return ",".join([
        str(req.qn.n_r), str(req.qn.m), str(req.qn.n_theta),
        _param(p.A), _param(p.B), _param(p.C), _param(p.K), _param(req.M),
        req.symmetry.value, req.branch.value, req.convention.value,
        _fixed(res.E, prec), _fixed(res.lam, prec),
        _sci(res.residual, prec), str(res.iterations),
    ])


def cmd_solve(args: argparse.Namespace) -> int:
    from . import solve_energy
    req = _build_request(args)
    res = solve_energy(req, args.tol)
    _emit([SOLVE_HEADER, _solve_row(req, res, args.precision)], args.output)
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    from . import solve_energy
    from .spectrum import solve_cells
    spec = _REFERENCE_SETS[args.which]
    lines: list[str] = []
    if args.which == "pseudospin2":
        lines.append("# third energy series interpreted as m = 2")
    lines.append(TABLE_HEADER)
    rows = list(itertools.product(spec["n_values"], spec["A_values"], spec["m_values"]))
    n, A, m = (list(column) for column in zip(*rows))
    symmetry = Symmetry(spec["symmetry"])
    E = solve_cells(K=spec["K"], A=A, B=spec["B"], C=spec["C"], M=spec["M"],
                    n_r=n, n_theta=n, m=m, symmetry=symmetry)
    failed = [math.isnan(e) for e in E]
    if any(failed):
        # solve_energy raises on exactly the rows that failed; the first
        # one in row order gives the command its error.
        n_r, a, m_r = rows[failed.index(True)]
        solve_energy(SolveRequest(
            params=PotentialParams(K=spec["K"], A=a, B=spec["B"], C=spec["C"]),
            M=spec["M"], qn=QuantumNumbers(n_r=n_r, m=m_r), symmetry=symmetry))
    fixed = [_param(spec[name]) for name in ("B", "C", "K", "M")]
    for (n_r, a, m_r), e in zip(rows, E):
        lines.append(",".join([str(n_r), str(m_r), str(n_r), _param(a), *fixed,
                               _fixed(e, args.precision)]))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    from .spectrum import solve_cells
    vary = args.vary
    _finite_span(args, "from", "to")
    if getattr(args, "from") == args.to:
        raise UsageError("degenerate sweep range: --from equals --to")
    for name in ("A", "B", "K"):
        if name != vary and getattr(args, name) is None:
            raise UsageError(f"--{name} is required when sweeping {vary}")
    if args.series == "m" and args.n is None:
        raise UsageError("--n is required when the series runs over m")

    prec = args.precision
    series_values = args.series_values
    xs = _linspace(getattr(args, "from"), args.to, args.steps)
    # One request per cell, row by row: x repeats across the series.
    series = list(series_values) * len(xs)
    coeffs = {name: getattr(args, name) for name in ("A", "B", "C", "K")}
    coeffs[vary] = [x for x in xs for _ in series_values]
    n_r = series if args.series == "n" else args.n
    m = series if args.series == "m" else args.m
    E = solve_cells(**coeffs, M=args.M, n_r=n_r,
                    n_theta=n_r if args.ntheta is None else args.ntheta, m=m,
                    symmetry=Symmetry(args.symmetry), branch=BranchSign(args.branch),
                    convention=Convention(args.convention), abs_tol_E=args.tol)
    cells = ["" if math.isnan(e) else _fixed(e, prec) for e in E]
    width = len(series_values)
    lines = ["x," + ",".join(f"{args.series}={sv}" for sv in series_values)]
    for i, x in enumerate(xs):
        lines.append(",".join([_compact(x, prec), *cells[i * width:(i + 1) * width]]))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_wavefunction(args: argparse.Namespace) -> int:
    from . import radial_wavefunction, solve_energy
    from .radial import effective_scale, r_grid_step, wavefunction_scales
    prec = args.precision
    req = _build_request(args)
    res = solve_energy(req, args.tol)
    L, big_delta = wavefunction_scales(req, res.E, res.lam, args.mass_factor)
    delta_eff = effective_scale(big_delta, req.convention)
    h = r_grid_step(req.qn.n_r, L, delta_eff, points=args.points, r_max=args.r_max)
    grid = [h * i for i in range(1, args.points + 1)]
    wf = radial_wavefunction(req.qn.n_r, L, big_delta, grid, req.convention)
    lines = ["r,R"]
    lines.extend(f"{_compact(r, prec)},{_compact(val, prec)}"
                 for r, val in zip(wf.r, wf.values))
    _emit(lines, args.output)
    return EXIT_OK


def cmd_potential(args: argparse.Namespace) -> int:
    _finite_span(args, "r_min", "r_max")
    prec = args.precision
    params = PotentialParams(K=args.K, A=args.A, B=args.B, C=args.C)
    k = args.theta_steps
    thetas = [(t, _compact(t, prec)) for t in (math.pi * i / (k + 1) for i in range(1, k + 1))]
    lines = ["r,theta,V"]
    for r in _linspace(args.r_min, args.r_max, args.r_steps):
        r_text = _compact(r, prec)
        lines.extend(f"{r_text},{t_text},{_compact(evaluate_potential(params, r, t), prec)}"
                     for t, t_text in thetas)
    _emit(lines, args.output)
    return EXIT_OK


def cmd_thermo(args: argparse.Namespace) -> int:
    from . import nonrelativistic_levels, thermo_point
    _finite_span(args, "T_min", "T_max")
    prec = args.precision
    params = PotentialParams(K=args.K, A=args.A, B=args.B, C=args.C)
    branch = BranchSign(args.branch)
    convention = Convention(args.convention)
    lines = ["T,Z,F,U,S,C"]
    for t in _linspace(args.T_min, args.T_max, args.steps):
        levels = nonrelativistic_levels(params, args.mu, args.m, branch, convention)
        pt = thermo_point(levels, t, N=args.N, k_B=args.kB,
                          rel_tail_tol=args.tail_tol)
        lines.append(",".join(_compact(val, prec)
                              for val in (pt.T, pt.Z, pt.F, pt.U, pt.S, pt.C)))
    _emit(lines, args.output)
    return EXIT_OK


def _oracle_reports(suite: str, points: int):
    """(suite, case label, OracleReport) for every oracle case of ``suite``."""
    from . import verify_angular, verify_radial
    if suite in ("radial", "all"):
        for delta_prime, big_delta in _VERIFY_RADIAL_CASES:
            yield ("radial", f"dp={_param(delta_prime)} bd={_param(big_delta)}",
                   verify_radial(delta_prime, big_delta, count=3, points=points))
    if suite in ("angular", "all"):
        for v0 in _VERIFY_ANGULAR_CASES:
            yield "angular", f"v0={_param(v0)}", verify_angular(v0, count=3, points=points)


def cmd_verify(args: argparse.Namespace) -> int:
    prec = args.precision
    converged = True
    lines = ["suite,case,level,computed,predicted,rel_error,converged"]
    for suite, case, rep in _oracle_reports(args.suite, args.points):
        converged = converged and rep.converged
        for level, (comp, pred) in enumerate(zip(rep.computed, rep.predicted)):
            rel = abs(comp - pred) / abs(pred)
            lines.append(",".join([suite, case, str(level),
                                   _compact(comp, prec), _compact(pred, prec),
                                   _sci(rel, 3), str(rep.converged).lower()]))
    _emit(lines, args.output)
    return EXIT_OK if converged else EXIT_VERIFY


def _add_request_flags(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    """The flags of one solve request.  A sweep needs --A, --B and --K only
    where it does not sweep them, and --n only for an m series, so there
    they are optional and cmd_sweep requires them."""
    unless_swept = " (unless swept)" if sweep else ""
    p.add_argument("--symmetry", required=True, choices=("spin", "pseudospin"),
                   help="relativistic symmetry regime")
    p.add_argument("--n", type=_int, required=not sweep,
                   help="radial quantum number n_r >= 0"
                        + (" (needed when the series runs over m)" if sweep else ""))
    p.add_argument("--ntheta", type=_int, help="angular quantum number (default: same as --n)")
    p.add_argument("--m", type=_int, default=0, help="azimuthal quantum number (default 0)")
    p.add_argument("--A", type=float, required=not sweep,
                   help="inverse-square coefficient" + unless_swept)
    p.add_argument("--B", type=float, required=not sweep, help="ring coefficient" + unless_swept)
    p.add_argument("--C", type=float, required=True, help="angular-ring coefficient")
    p.add_argument("--K", type=float, required=not sweep,
                   help="harmonic coefficient" + unless_swept)
    p.add_argument("--M", type=float, required=True, help="fermion mass (inverse fm)")
    p.add_argument("--branch", default="plus", choices=("plus", "minus"),
                   help="sign branch of the angular square root (default plus)")
    p.add_argument("--convention", default="table", choices=("table", "equation"),
                   help="leading coefficient: table (c=1) or equation (c=2)")
    p.add_argument("--tol", type=_positive_finite, default=1e-12,
                   help="absolute energy tolerance (default 1e-12)")


def _add_coefficient_flags(p: argparse.ArgumentParser) -> None:
    for name in ("A", "B", "C", "K"):
        p.add_argument("--" + name, type=float, required=True)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=_precision, default=8,
                   help="decimals in CSV output, 0 to 1074 (default 8)")
    p.add_argument("--output", help="write CSV here instead of standard output")
    p.add_argument("--config",
                   help="read options from a 'key = value' file; flags take precedence")


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: argparse makes a help
    formatter, which asks for the terminal size, for every argument it
    adds, and parsing leaves the parser unchanged."""
    parser = _Parser(
        prog="rspho",
        description="Bound-state energies, wavefunctions, and thermodynamics of a "
                    "ring-shaped pseudo-harmonic oscillator potential in spin- and "
                    "pseudo-spin-symmetric relativistic regimes.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve one bound-state energy")
    _add_request_flags(p)
    _add_io_flags(p)
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("table", help="reproduce a built-in reference energy set")
    p.add_argument("--which", required=True, choices=tuple(_REFERENCE_SETS),
                   help="which reference set to compute")
    _add_io_flags(p)
    p.set_defaults(handler=cmd_table)

    p = sub.add_parser("sweep", help="sweep one coefficient, one CSV column per series member")
    p.add_argument("--vary", required=True, choices=("A", "B", "K"),
                   help="which coefficient to sweep")
    p.add_argument("--from", type=_finite, required=True, help="sweep start")
    p.add_argument("--to", type=_finite, required=True, help="sweep end")
    p.add_argument("--steps", type=_int_at_least(2), default=50,
                   help="number of sweep points (default 50)")
    p.add_argument("--series", default="n", choices=("n", "m"),
                   help="quantum number labelling the columns (default n)")
    p.add_argument("--series-values", type=_int_list, default="1,2,3",
                   help="comma-separated series values (default 1,2,3)")
    _add_request_flags(p, sweep=True)
    _add_io_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("wavefunction", help="sample the normalized radial eigenfunction")
    _add_request_flags(p)
    p.add_argument("--points", type=_int_at_least(3), default=4000,
                   help="number of radial samples (default 4000)")
    p.add_argument("--r-max", type=_finite,
                   help="outer radius (default: turning point + 4 widths)")
    p.add_argument("--mass-factor", default="eplus", choices=("eplus", "eminus"),
                   help="mass combination in the wavefunction scales (default eplus)")
    _add_io_flags(p)
    p.set_defaults(handler=cmd_wavefunction)

    p = sub.add_parser("potential", help="sample V(r, theta) on a grid")
    _add_coefficient_flags(p)
    p.add_argument("--r-min", type=_finite, default=0.1, help="inner radius (default 0.1)")
    p.add_argument("--r-max", type=_finite, default=5.0, help="outer radius (default 5)")
    p.add_argument("--r-steps", type=_int_at_least(1), default=64,
                   help="radial samples (default 64)")
    p.add_argument("--theta-steps", type=_int_at_least(1), default=64,
                   help="polar samples (default 64)")
    _add_io_flags(p)
    p.set_defaults(handler=cmd_potential)

    p = sub.add_parser("thermo", help="thermodynamic functions over a temperature range")
    _add_coefficient_flags(p)
    p.add_argument("--mu", type=float, required=True,
                   help="reduced mass of the oscillator ladder")
    p.add_argument("--m", type=_int, default=0, help="azimuthal quantum number (default 0)")
    p.add_argument("--branch", default="plus", choices=("plus", "minus"))
    p.add_argument("--convention", default="table", choices=("table", "equation"))
    p.add_argument("--T-min", type=_finite, default=0.1,
                   help="lowest temperature (default 0.1)")
    p.add_argument("--T-max", type=_finite, default=5.0,
                   help="highest temperature (default 5)")
    p.add_argument("--steps", type=_int_at_least(1), default=50,
                   help="temperature samples (default 50)")
    p.add_argument("--N", type=_int_at_least(1), default=1,
                   help="particle count in F and S (default 1)")
    p.add_argument("--kB", type=_positive_finite, default=1.0,
                   help="Boltzmann constant (default 1)")
    p.add_argument("--tail-tol", type=_positive_finite, default=1e-14,
                   help="relative truncation tolerance of the level sum (default 1e-14)")
    _add_io_flags(p)
    p.set_defaults(handler=cmd_thermo)

    p = sub.add_parser("verify", help="run the finite-difference oracle suites")
    p.add_argument("--suite", default="all", choices=("radial", "angular", "all"),
                   help="which oracle suite to run (default all)")
    p.add_argument("--points", type=_int_at_least(16), default=4000,
                   help="grid points per case (default 4000)")
    _add_io_flags(p)
    p.set_defaults(handler=cmd_verify)

    parser.commands = sub.choices
    return parser


@functools.cache
def _config_flag_parser() -> _Parser:
    """A parser that knows only --config, to find it before the full parse."""
    parser = _Parser(add_help=False)
    parser.add_argument("--config")
    return parser


def _with_config(argv: list[str]) -> list[str]:
    """argv with the entries of its --config file spliced in as flags.

    Each ``key = value`` becomes ``--key=value`` right after the subcommand
    name, so argparse converts and checks it like a flag, and a flag of
    the user's, parsed later, wins.  A key must be one of the subcommand's
    flags, spelled out in full.
    """
    command = _build_parser().commands.get(argv[0]) if argv else None
    # Only a token that starts with "--c" can be --config or an
    # abbreviation of it.
    if command is None or not any(token.startswith("--c") for token in argv[1:]):
        return argv
    path = _config_flag_parser().parse_known_args(argv[1:])[0].config
    if path is None:
        return argv
    flags = []
    for key, raw in _read_config(path).items():
        if key in ("help", "config") or "--" + key not in command._option_string_actions:
            raise UsageError(f"unknown config key {key!r} in {path}")
        flags.append(f"--{key}={raw}")
    return argv[:1] + flags + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, NoRootError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
