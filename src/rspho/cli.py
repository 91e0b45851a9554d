"""Command-line surface: solve, table, sweep, wavefunction, potential, thermo, verify.

All commands emit CSV (comma separated, header row, LF line endings) to
standard output or to --output.  Options may also come from a plain
``key = value`` config file via --config; explicit flags override file
values, and unknown keys in the file are an error.

Exit codes: 0 success, 1 usage error, 2 domain or convergence failure,
3 verification failure (verify command only).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError, NoRootError, RsphoError
from .model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                    SolveRequest, Symmetry, evaluate_potential)
from .oracle import default_angular_grid, default_radial_grid, verify_angular, verify_radial
from .radial import (default_r_grid, effective_scale, radial_wavefunction,
                     wavefunction_scales)
from .spectrum import SolverOptions, solve_energies, solve_energy
from .thermo import nonrelativistic_ladder, thermo_point

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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class Opt:
    """One resolvable option: flag, config key, type, default, constraint."""

    name: str
    conv: Callable
    default: object = None
    required: bool = False
    choices: tuple = ()
    help: str = ""


def _add_options(parser: argparse.ArgumentParser, opts: list[Opt]) -> None:
    for o in opts:
        kwargs = dict(type=o.conv, default=None, help=o.help)
        if o.choices:
            kwargs["choices"] = list(o.choices)
        parser.add_argument("--" + o.name, **kwargs)
    parser.add_argument("--config", type=str, default=None,
                        help="read options from a 'key = value' file; flags take precedence")


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


def _resolve(args: argparse.Namespace, opts: list[Opt]) -> dict:
    """Layer defaults < config file < explicit flags, validating as we go."""
    values = {o.name: o.default for o in opts}
    by_name = {o.name: o for o in opts}
    if args.config is not None:
        for key, raw in _read_config(args.config).items():
            o = by_name.get(key)
            if o is None:
                raise UsageError(f"unknown config key {key!r} in {args.config}")
            try:
                val = o.conv(raw)
            except (TypeError, ValueError):
                raise UsageError(f"config key {key!r}: cannot parse value {raw!r}")
            if o.choices and val not in o.choices:
                raise UsageError(
                    f"config key {key!r}: must be one of {', '.join(map(str, o.choices))}")
            values[o.name] = val
    for o in opts:
        flag_value = getattr(args, o.name.replace("-", "_"))
        if flag_value is not None:
            values[o.name] = flag_value
    missing = [o.name for o in opts if o.required and values[o.name] is None]
    if missing:
        raise UsageError("missing required option(s): "
                         + ", ".join("--" + name for name in missing))
    return values


def _precision(v: dict) -> int:
    """The --precision option, which must be >= 0."""
    if v["precision"] < 0:
        raise UsageError(f"--precision must be >= 0 (got {v['precision']})")
    return v["precision"]


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
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _request_opts() -> list[Opt]:
    return [
        Opt("symmetry", str, required=True, choices=("spin", "pseudospin"),
            help="relativistic symmetry regime"),
        Opt("n", int, required=True, help="radial quantum number n_r >= 0"),
        Opt("ntheta", int, help="angular quantum number (default: same as --n)"),
        Opt("m", int, default=0, help="azimuthal quantum number (default 0)"),
        Opt("A", float, required=True, help="inverse-square coefficient"),
        Opt("B", float, required=True, help="ring coefficient"),
        Opt("C", float, required=True, help="angular-ring coefficient"),
        Opt("K", float, required=True, help="harmonic coefficient"),
        Opt("M", float, required=True, help="fermion mass (inverse fm)"),
        Opt("branch", str, default="plus", choices=("plus", "minus"),
            help="sign branch of the angular square root (default plus)"),
        Opt("convention", str, default="table", choices=("table", "equation"),
            help="leading coefficient: table (c=1) or equation (c=2)"),
        Opt("tol", float, default=1e-12, help="absolute energy tolerance (default 1e-12)"),
    ]


def _io_opts() -> list[Opt]:
    return [
        Opt("precision", int, default=8, help="decimals in CSV output (default 8)"),
        Opt("output", str, help="write CSV here instead of standard output"),
    ]


def _build_request(v: dict) -> SolveRequest:
    params = PotentialParams(K=v["K"], A=v["A"], B=v["B"], C=v["C"])
    qn = QuantumNumbers(n_r=v["n"], n_theta=v["ntheta"], m=v["m"])
    return SolveRequest(params=params, M=v["M"], qn=qn,
                        symmetry=Symmetry(v["symmetry"]),
                        branch=BranchSign(v["branch"]),
                        convention=Convention(v["convention"]))


def _solver_options(v: dict) -> SolverOptions:
    if v["tol"] is not None and not v["tol"] > 0.0:
        raise UsageError(f"--tol must be positive (got {v['tol']})")
    return SolverOptions(abs_tol_E=v["tol"])


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
    v = _resolve(args, args.opts)
    prec = _precision(v)
    req = _build_request(v)
    res = solve_energy(req, _solver_options(v))
    _emit([SOLVE_HEADER, _solve_row(req, res, prec)], v["output"])
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    v = _resolve(args, args.opts)
    spec = _REFERENCE_SETS[v["which"]]
    prec = _precision(v)
    lines: list[str] = []
    if v["which"] == "pseudospin2":
        lines.append("# third energy series interpreted as m = 2")
    lines.append(TABLE_HEADER)
    requests = [
        SolveRequest(params=PotentialParams(K=spec["K"], A=a, B=spec["B"], C=spec["C"]),
                     M=spec["M"], qn=QuantumNumbers(n_r=n, m=m),
                     symmetry=Symmetry(spec["symmetry"]))
        for n in spec["n_values"] for a in spec["A_values"] for m in spec["m_values"]]
    for req, res in zip(requests, solve_energies(requests)):
        if isinstance(res, RsphoError):
            raise res
        p = req.params
        lines.append(",".join([
            str(req.qn.n_r), str(req.qn.m), str(req.qn.n_theta),
            _param(p.A), _param(p.B), _param(p.C), _param(p.K), _param(req.M),
            _fixed(res.E, prec),
        ]))
    _emit(lines, v["output"])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    v = _resolve(args, args.opts)
    vary = v["vary"]
    if v["steps"] < 2:
        raise UsageError(f"--steps must be >= 2 (got {v['steps']})")
    if v["from"] == v["to"]:
        raise UsageError("degenerate sweep range: --from equals --to")
    for name in ("A", "B", "K"):
        if name != vary and v[name] is None:
            raise UsageError(f"--{name} is required when sweeping {vary}")
    try:
        series_values = tuple(int(tok) for tok in v["series-values"].split(","))
    except ValueError:
        raise UsageError(f"--series-values must be comma-separated integers "
                         f"(got {v['series-values']!r})")
    if v["series"] == "m" and v["n"] is None:
        raise UsageError("--n is required when the series runs over m")

    prec = _precision(v)
    xs = np.linspace(v["from"], v["to"], v["steps"])
    header = "x," + ",".join(f"{v['series']}={sv}" for sv in series_values)
    enums = dict(symmetry=Symmetry(v["symmetry"]), branch=BranchSign(v["branch"]),
                 convention=Convention(v["convention"]))
    requests = []
    for x in xs:
        for sv in series_values:
            coeffs = {name: v[name] for name in ("A", "B", "C", "K")}
            coeffs[vary] = float(x)
            if v["series"] == "n":
                qn = QuantumNumbers(n_r=sv, n_theta=v["ntheta"], m=v["m"])
            else:
                qn = QuantumNumbers(n_r=v["n"], n_theta=v["ntheta"], m=sv)
            requests.append(SolveRequest(params=PotentialParams(**coeffs), M=v["M"],
                                         qn=qn, **enums))
    results = solve_energies(requests, _solver_options(v))
    lines = [header]
    for i, x in enumerate(xs):
        row = results[i * len(series_values):(i + 1) * len(series_values)]
        lines.append(",".join([_compact(float(x), prec)] + [
            "" if isinstance(res, RsphoError) else _fixed(res.E, prec) for res in row]))
    _emit(lines, v["output"])
    return EXIT_OK


def cmd_wavefunction(args: argparse.Namespace) -> int:
    v = _resolve(args, args.opts)
    if v["points"] < 3:
        raise UsageError(f"--points must be >= 3 (got {v['points']})")
    prec = _precision(v)
    req = _build_request(v)
    res = solve_energy(req, _solver_options(v))
    L, big_delta = wavefunction_scales(req, res.E, res.lam, v["mass-factor"])
    delta_eff = effective_scale(big_delta, req.convention)
    grid = default_r_grid(req.qn.n_r, L, delta_eff,
                          points=v["points"], r_max=v["r-max"])
    wf = radial_wavefunction(req.qn.n_r, L, big_delta, grid, req.convention)
    lines = ["r,R"]
    lines.extend(f"{_compact(r, prec)},{_compact(val, prec)}"
                 for r, val in zip(wf.r, wf.values))
    _emit(lines, v["output"])
    return EXIT_OK


def cmd_potential(args: argparse.Namespace) -> int:
    v = _resolve(args, args.opts)
    if v["r-steps"] < 1 or v["theta-steps"] < 1:
        raise UsageError("--r-steps and --theta-steps must be >= 1")
    prec = _precision(v)
    params = PotentialParams(K=v["K"], A=v["A"], B=v["B"], C=v["C"])
    r_values = np.linspace(v["r-min"], v["r-max"], v["r-steps"])
    theta_values = math.pi * np.arange(1, v["theta-steps"] + 1) / (v["theta-steps"] + 1)
    lines = ["r,theta,V"]
    for r in r_values:
        row_v = evaluate_potential(params, float(r), theta_values)
        lines.extend(
            f"{_compact(float(r), prec)},{_compact(float(t), prec)},{_compact(float(val), prec)}"
            for t, val in zip(theta_values, row_v))
    _emit(lines, v["output"])
    return EXIT_OK


def cmd_thermo(args: argparse.Namespace) -> int:
    v = _resolve(args, args.opts)
    if v["steps"] < 1:
        raise UsageError(f"--steps must be >= 1 (got {v['steps']})")
    prec = _precision(v)
    params = PotentialParams(K=v["K"], A=v["A"], B=v["B"], C=v["C"])
    branch = BranchSign(v["branch"])
    convention = Convention(v["convention"])
    levels = nonrelativistic_ladder(params, v["mu"], v["m"], branch, convention)
    lines = ["T,Z,F,U,S,C"]
    for t in np.linspace(v["T-min"], v["T-max"], v["steps"]):
        pt = thermo_point(levels, float(t), N=v["N"], k_B=v["kB"],
                          rel_tail_tol=v["tail-tol"])
        lines.append(",".join(_compact(val, prec)
                              for val in (pt.T, pt.Z, pt.F, pt.U, pt.S, pt.C)))
    _emit(lines, v["output"])
    return EXIT_OK


def _oracle_reports(suite: str, points: int):
    """(suite, case label, OracleReport) for every oracle case of ``suite``."""
    if suite in ("radial", "all"):
        for delta_prime, big_delta in _VERIFY_RADIAL_CASES:
            grid = default_radial_grid(delta_prime, big_delta, 3, points=points)
            yield ("radial", f"dp={_param(delta_prime)} bd={_param(big_delta)}",
                   verify_radial(delta_prime, big_delta, count=3, grid=grid))
    if suite in ("angular", "all"):
        for v0 in _VERIFY_ANGULAR_CASES:
            grid = default_angular_grid(points=points)
            yield "angular", f"v0={_param(v0)}", verify_angular(v0, count=3, grid=grid)


def cmd_verify(args: argparse.Namespace) -> int:
    v = _resolve(args, args.opts)
    if v["points"] < 16:
        raise UsageError(f"--points must be >= 16 (got {v['points']})")
    prec = _precision(v)
    converged = True
    lines = ["suite,case,level,computed,predicted,rel_error,converged"]
    for suite, case, rep in _oracle_reports(v["suite"], v["points"]):
        converged = converged and rep.converged
        for level, (comp, pred) in enumerate(zip(rep.computed, rep.predicted)):
            rel = abs(comp - pred) / abs(pred)
            lines.append(",".join([suite, case, str(level),
                                   _compact(comp, prec), _compact(pred, prec),
                                   _sci(rel, 3), str(rep.converged).lower()]))
    _emit(lines, v["output"])
    return EXIT_OK if converged else EXIT_VERIFY


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
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", help="solve one bound-state energy")
    opts = _request_opts() + _io_opts()
    _add_options(p, opts)
    p.set_defaults(handler=cmd_solve, opts=opts)

    p = sub.add_parser("table", help="reproduce a built-in reference energy set")
    opts = [Opt("which", str, required=True, choices=tuple(_REFERENCE_SETS),
                help="which reference set to compute")] + _io_opts()
    _add_options(p, opts)
    p.set_defaults(handler=cmd_table, opts=opts)

    p = sub.add_parser("sweep", help="sweep one coefficient, one CSV column per series member")
    opts = [
        Opt("vary", str, required=True, choices=("A", "B", "K"),
            help="which coefficient to sweep"),
        Opt("from", float, required=True, help="sweep start"),
        Opt("to", float, required=True, help="sweep end"),
        Opt("steps", int, default=50, help="number of sweep points (default 50)"),
        Opt("series", str, default="n", choices=("n", "m"),
            help="quantum number labelling the columns (default n)"),
        Opt("series-values", str, default="1,2,3",
            help="comma-separated series values (default 1,2,3)"),
        Opt("symmetry", str, required=True, choices=("spin", "pseudospin")),
        Opt("n", int, help="radial quantum number (needed when series runs over m)"),
        Opt("ntheta", int, help="angular quantum number (default: follows n)"),
        Opt("m", int, default=0, help="azimuthal quantum number (default 0)"),
        Opt("A", float, help="fixed A (unless swept)"),
        Opt("B", float, help="fixed B (unless swept)"),
        Opt("C", float, required=True, help="angular-ring coefficient"),
        Opt("K", float, help="fixed K (unless swept)"),
        Opt("M", float, required=True, help="fermion mass"),
        Opt("branch", str, default="plus", choices=("plus", "minus")),
        Opt("convention", str, default="table", choices=("table", "equation")),
        Opt("tol", float, default=1e-12),
    ] + _io_opts()
    _add_options(p, opts)
    p.set_defaults(handler=cmd_sweep, opts=opts)

    p = sub.add_parser("wavefunction", help="sample the normalized radial eigenfunction")
    opts = _request_opts() + [
        Opt("points", int, default=4000, help="number of radial samples (default 4000)"),
        Opt("r-max", float, help="outer radius (default: turning point + 4 widths)"),
        Opt("mass-factor", str, default="eplus", choices=("eplus", "eminus"),
            help="mass combination in the wavefunction scales (default eplus)"),
    ] + _io_opts()
    _add_options(p, opts)
    p.set_defaults(handler=cmd_wavefunction, opts=opts)

    p = sub.add_parser("potential", help="sample V(r, theta) on a grid")
    opts = [
        Opt("A", float, required=True), Opt("B", float, required=True),
        Opt("C", float, required=True), Opt("K", float, required=True),
        Opt("r-min", float, default=0.1, help="inner radius (default 0.1)"),
        Opt("r-max", float, default=5.0, help="outer radius (default 5)"),
        Opt("r-steps", int, default=64, help="radial samples (default 64)"),
        Opt("theta-steps", int, default=64, help="polar samples (default 64)"),
    ] + _io_opts()
    _add_options(p, opts)
    p.set_defaults(handler=cmd_potential, opts=opts)

    p = sub.add_parser("thermo", help="thermodynamic functions over a temperature range")
    opts = [
        Opt("A", float, required=True), Opt("B", float, required=True),
        Opt("C", float, required=True), Opt("K", float, required=True),
        Opt("mu", float, required=True, help="reduced mass of the oscillator ladder"),
        Opt("m", int, default=0, help="azimuthal quantum number (default 0)"),
        Opt("branch", str, default="plus", choices=("plus", "minus")),
        Opt("convention", str, default="table", choices=("table", "equation")),
        Opt("T-min", float, default=0.1, help="lowest temperature (default 0.1)"),
        Opt("T-max", float, default=5.0, help="highest temperature (default 5)"),
        Opt("steps", int, default=50, help="temperature samples (default 50)"),
        Opt("N", int, default=1, help="particle count in F and S (default 1)"),
        Opt("kB", float, default=1.0, help="Boltzmann constant (default 1)"),
        Opt("tail-tol", float, default=1e-14,
            help="relative truncation tolerance of the level sum (default 1e-14)"),
    ] + _io_opts()
    _add_options(p, opts)
    p.set_defaults(handler=cmd_thermo, opts=opts)

    p = sub.add_parser("verify", help="run the finite-difference oracle suites")
    opts = [
        Opt("suite", str, default="all", choices=("radial", "angular", "all"),
            help="which oracle suite to run (default all)"),
        Opt("points", int, default=4000, help="grid points per case (default 4000)"),
    ] + _io_opts()
    _add_options(p, opts)
    p.set_defaults(handler=cmd_verify, opts=opts)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "handler", None) is None:
        print("error: a subcommand is required (try --help)", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, NoRootError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main_entry() -> None:
    sys.exit(main())
