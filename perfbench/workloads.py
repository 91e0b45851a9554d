"""The four workloads: inputs from a seed, the timed call, and the checks.

A workload builds one *pass*: a list of operations made from the seed.  The
runner repeats whole passes, times each operation, and checks every output
with the code in ``checks`` (which shares nothing with rspho).

Why these four (each optimisation named in ROADMAP.md has a workload that
exercises it and one that bypasses it):

* cli_cold      - a fresh ``rspho`` process per operation.  Import is ~90% of
                  the time, so lazy imports and a smaller CLI show here and
                  the residual kernel does not.
* solve_batch   - independent ``solve_energy`` calls over mixed input classes.
                  Per-solve cost and the scan ceiling's silent misses show here.
* sweep_dense   - in-process ``rspho.cli.main`` table and sweep commands whose
                  rows share parameters, where batching solves would pay.
* oracle_thermo - the finite-difference oracle, wavefunction quadrature and
                  thermodynamic sums; the solver only runs during set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
EXPECTED = os.path.join(HERE, "expected")

@dataclass
class Op:
    """One operation of a pass.  ``classes`` are the input classes whose
    shares the result records; ``payload`` is whatever ``run`` needs."""

    kind: str
    payload: dict
    classes: tuple = ()
    arg: object = None


@dataclass
class Outcome:
    """What the checks made of one output."""

    problem: str | None = None
    solves: int = 0
    solved: int = 0
    ref_errors: list = field(default_factory=list)


def reference_energies() -> list[dict]:
    with open(os.path.join(DATA, "reference_energies.json"), encoding="utf-8") as fh:
        return json.load(fh)


def request_dict(sym: str, n_r: int, m: int, A: float, B: float, C: float,
                 K: float, M: float, convention: str = "table",
                 branch: str = "plus", n_theta: int | None = None) -> dict:
    return {"s": 1.0 if sym == "spin" else -1.0, "n_r": n_r,
            "n_theta": n_r if n_theta is None else n_theta, "m": m,
            "A": A, "B": B, "C": C, "K": K, "M": M,
            "c": 1.0 if convention == "table" else 2.0,
            "branch": 1.0 if branch == "plus" else -1.0,
            "symmetry": sym, "convention": convention}


def to_request(rspho, d: dict):
    """The program's request object for one of our request dicts."""
    return rspho.SolveRequest(
        params=rspho.PotentialParams(K=d["K"], A=d["A"], B=d["B"], C=d["C"]),
        M=d["M"], qn=rspho.QuantumNumbers(n_r=d["n_r"], n_theta=d["n_theta"], m=d["m"]),
        symmetry=rspho.Symmetry(d["symmetry"]),
        branch=rspho.BranchSign("plus" if d["branch"] > 0 else "minus"),
        convention=rspho.Convention(d["convention"]))


def check_solution(E, lam, req: dict) -> str | None:
    """A returned energy must satisfy the relation; its separation constant
    must be the one the relation uses at that energy."""
    problem = checks.check_energy(E, req)
    if problem is None and lam is not None:
        own = checks.separation_constant(E, req)
        if own is None or abs(lam - own) > 1e-9 * (1.0 + abs(own)):
            problem = f"lambda {lam!r} differs from the relation's {own!r}"
    return problem


# ====================================================================== CLI

def option_map(argv: list[str]) -> dict[str, str]:
    """'--key value' pairs of an argv (every rspho option takes a value)."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--")}


class CliOutputs:
    """Checks of CSV outputs against the record made at the seed commit."""

    def __init__(self, name: str):
        with open(os.path.join(EXPECTED, f"{name}.json"), encoding="utf-8") as fh:
            self.catalogue = json.load(fh)
        self.refs = {(r["symmetry"], r["n_r"], r["m"], r["A"]): r["E"]
                     for r in reference_energies()}

    def classes(self, key: str) -> tuple:
        """Input classes of a recorded command, for the class shares."""
        argv = self.catalogue[key]["argv"]
        o = option_map(argv)
        found = [self.catalogue[key]["family"]]
        if o.get("convention") == "equation":
            found.append("equation")
        if o.get("symmetry") == "pseudospin" or o.get("which") == "pseudospin2":
            found.append("pseudospin")
        _, want = self.expected(key)
        if any(cell == "" for row in checks.parse_csv(want)[2] for cell in row):
            found += ["domain_edge", "expected_empty"]
        return tuple(found)

    def ops(self, keys) -> list:
        return [Op("cli", {"key": k}, self.classes(k), self.catalogue[k]["argv"]) for k in keys]

    def expected(self, key: str) -> tuple[int, str]:
        entry = self.catalogue[key]
        with open(os.path.join(EXPECTED, entry["file"]), encoding="utf-8") as fh:
            return entry["exit"], fh.read()

    def check(self, key: str, code: int, text: str) -> Outcome:
        argv = self.catalogue[key]["argv"]
        want_code, want_text = self.expected(key)
        out = Outcome()
        if code != want_code:
            out.problem = f"exit code {code}, expected {want_code}"
            return out
        opts = option_map(argv)
        decimals = int(opts.get("precision", 8))
        _, header, rows = checks.parse_csv(text)
        problems = checks.compare_csv(
            text, want_text, lambda row, col, cell: self._filled(argv, header, row, col, cell))
        for _, req, cell in self._energies(argv, header, rows):
            out.solves += 1
            if cell == "":
                continue
            out.solved += 1
            E = float(cell)
            reason = checks.check_energy(E, req, decimals)
            if reason is not None:
                problems.append(reason)
            ref = self.refs.get((req["symmetry"], req["n_r"], req["m"], req["A"]))
            if ref is not None and argv[0] == "table":
                out.ref_errors.append(abs(E - ref))
        if argv[0] == "wavefunction":
            out.solves = out.solved = 1
        out.problem = "; ".join(problems[:3]) or None
        return out

    def _filled(self, argv, header, row, col, cell) -> str | None:
        for column, req, value in self._energies(argv, header, [row]):
            if column == col:
                return checks.check_energy(float(value), req,
                                           int(option_map(argv).get("precision", 8)))
        return f"column {col} holds no energy"

    @staticmethod
    def _energies(argv, header, rows):
        """(column, request dict, E cell) for every energy an output holds."""
        o = option_map(argv)
        cmd = argv[0]
        if cmd in ("solve", "table"):
            sym = "spin" if o.get("which", "spin").startswith("spin") else "pseudospin"
            for row in rows:
                r = dict(zip(header, row))
                yield "E", request_dict(
                    r.get("symmetry", sym), int(r["n"]), int(r["m"]), float(r["A"]),
                    float(r["B"]), float(r["C"]), float(r["K"]), float(r["M"]),
                    r.get("convention", "table"), r.get("branch", "plus"),
                    int(r["n_theta"])), r["E"]
        elif cmd == "sweep":
            series = o.get("series", "n")
            for row in rows:
                coeffs = {k: float(o[k]) if k in o else None for k in ("A", "B", "C", "K")}
                coeffs[o["vary"]] = float(row[0])
                for col, cell in zip(header[1:], row[1:]):
                    value = int(col.split("=", 1)[1])
                    n_r = value if series == "n" else int(o["n"])
                    m = value if series == "m" else int(o.get("m", 0))
                    n_theta = int(o["ntheta"]) if "ntheta" in o else None
                    yield col, request_dict(o["symmetry"], n_r, m, coeffs["A"], coeffs["B"],
                                            coeffs["C"], coeffs["K"], float(o["M"]),
                                            o.get("convention", "table"),
                                            o.get("branch", "plus"), n_theta), cell


def entry_point_code() -> str:
    """Python source that runs the ``rspho`` console script, read from the
    project's build file so the benchmark follows a renamed entry point."""
    import tomllib
    with open("pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rspho"]
    module, func = target.split(":")
    return f"import sys; from {module} import {func} as entry; sys.exit(entry())"


class CliCold:
    """Operation: one fresh ``rspho <subcommand>`` process, README arguments.

    The two ``table`` commands print 12 decimals instead of 8 so that their
    energies measure the distance to the reference values (at 8 decimals
    they round onto them exactly).
    """

    name = "cli_cold"
    tail_pct = 55
    in_process = False

    def __init__(self):
        self.outputs = CliOutputs(self.name)
        self.env = dict(os.environ, PYTHONPATH="src")
        self.code = entry_point_code()

    def generate(self, rng: random.Random) -> list[Op]:
        keys = list(self.outputs.catalogue)
        rng.shuffle(keys)
        return self.outputs.ops(keys)

    def calibration(self, op: Op) -> str:
        return "spawn"

    def command(self, op: Op, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, os.path.join(HERE, "tracecli.py")] + op.arg
        return [sys.executable, "-c", self.code] + op.arg

    def run(self, op: Op, traced: bool = False):
        proc = subprocess.run(self.command(op, traced), env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def digest(self, op: Op, raw):
        return raw[0], raw[1]

    def check(self, op: Op, digest) -> Outcome:
        return self.outputs.check(op.payload["key"], *digest)


class SweepDense:
    """Operation: one in-process ``rspho.cli.main([...])`` command.

    A pass runs both reference tables and three recorded variants of each of
    six sweep families (spin vs A, pseudo-spin vs K, a series over m, a sweep
    that crosses into the region with no bound state, the equation
    convention, pseudo-spin vs A) in an order the seed shuffles.  Every pass
    holds every command, so the share of empty cells is the same for every
    seed.
    """

    name = "sweep_dense"
    tail_pct = 85
    in_process = True

    def __init__(self, rspho_cli):
        self.cli = rspho_cli
        self.outputs = CliOutputs(self.name)

    def generate(self, rng: random.Random) -> list[Op]:
        keys = sorted(self.outputs.catalogue)
        rng.shuffle(keys)
        return self.outputs.ops(keys)

    def calibration(self, op: Op) -> str:
        return "kernel"

    def run(self, op: Op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(op.arg))
        return code, buf.getvalue()

    def digest(self, op: Op, raw):
        return raw

    def check(self, op: Op, digest) -> Outcome:
        return self.outputs.check(op.payload["key"], *digest)


# ============================================================ solve_batch

class SolveBatch:
    """Operation: one independent ``rspho.solve_energy`` call.

    A pass of 1000 requests: the 78 reference requests, then fixed counts of
    seeded draws per class, so every seed has the same class shares:

    * ordinary   - both symmetries x both conventions, n_r <= 40, inside the
                   domain, where a state exists below the seed's scan ceiling;
    * high_nr    - n_r in [1000, 2500], where a state exists but lies above the
                   seed's scan ceiling M + 100 sqrt|K| (the seed reports none);
    * edge_in    - just inside the domain (tiny |K|, tiny M, B + C at the edge);
    * edge_out   - just outside it (K = 0 or of the wrong sign, M <= 0, no
                   valid separation constant): no state exists.
    """

    name = "solve_batch"
    tail_pct = 99
    in_process = True
    COUNTS = {"ordinary": 702, "high_nr": 120, "edge_in": 50, "edge_out": 50}

    def __init__(self, rspho):
        self.rspho = rspho

    def generate(self, rng: random.Random) -> list[Op]:
        draws = [("ref", request_dict(r["symmetry"], r["n_r"], r["m"], r["A"], r["B"],
                                      r["C"], r["K"], r["M"]), r["E"])
                 for r in reference_energies()]
        for kind, count in self.COUNTS.items():
            for i in range(count):
                draws.append((kind, getattr(self, "_" + kind)(rng, i), None))
        rng.shuffle(draws)
        ops = []
        for kind, req, ref in draws:
            classes = [kind]
            if req["convention"] == "equation":
                classes.append("equation")
            if req["s"] < 0:
                classes.append("pseudospin")
            if kind in ("edge_in", "edge_out"):
                classes.append("domain_edge")
            if kind == "edge_out":
                classes.append("expected_empty")
            ops.append(Op(kind, {"req": req, "ref": ref}, tuple(classes),
                          to_request(self.rspho, req)))
        return ops

    @staticmethod
    def _spin_params(rng):
        return dict(K=rng.uniform(2, 10), A=rng.uniform(2, 10),
                    B=rng.uniform(-0.3, -0.02), C=rng.uniform(0, 0.01), M=rng.uniform(2, 8))

    @staticmethod
    def _pseudo_params(rng):
        return dict(K=-rng.uniform(2, 10), A=-rng.uniform(1, 6),
                    B=rng.uniform(0.3, 1.0), C=rng.uniform(0, 0.01), M=rng.uniform(2, 6))

    def _ordinary(self, rng, i):
        sym = ("spin", "pseudospin")[i % 2]
        conv = ("table", "equation")[(i // 2) % 2]
        if sym == "spin":
            p, m = self._spin_params(rng), rng.choice((0, 0, 1))
            if m == 1:                  # |m| = 1 needs a strong ring: 2(E+M)(B+C) <= -1/2
                p["B"] = rng.uniform(-0.3, -0.12)
        else:
            p, m = self._pseudo_params(rng), rng.choice((0, 1, 2))
        return request_dict(sym, rng.randint(0, 40), m, convention=conv, **p)

    def _high_nr(self, rng, i):
        sym = ("spin", "pseudospin")[i % 2]
        p = self._spin_params(rng) if sym == "spin" else self._pseudo_params(rng)
        return request_dict(sym, rng.randint(1000, 2500), 0, **p)

    def _edge_in(self, rng, i):
        p = self._spin_params(rng)
        which = i % 3
        if which == 0:
            p["K"] = rng.uniform(1e-4, 1e-3)
        elif which == 1:
            p["M"] = rng.uniform(1e-4, 1e-3)
        else:
            p["B"] = -p["C"] - rng.uniform(1e-6, 1e-4)
        return request_dict("spin", rng.randint(0, 5), 0, **p)

    def _edge_out(self, rng, i):
        which = i % 4
        if which == 0:
            p = self._spin_params(rng)
            p["K"] = -rng.uniform(0.0, 1e-6)
            return request_dict("spin", rng.randint(0, 5), 0, **p)
        if which == 1:
            p = self._pseudo_params(rng)
            p["K"] = rng.uniform(0.0, 1e-6)
            return request_dict("pseudospin", rng.randint(0, 5), 0, **p)
        if which == 2:
            p = self._spin_params(rng)
            p["M"] = -rng.uniform(0.0, 1e-6)
            return request_dict("spin", rng.randint(0, 5), 0, **p)
        p = self._spin_params(rng)
        p["B"] = -p["C"]                    # w = 0 for every E: 1/2 - m^2 < 0
        return request_dict("spin", rng.randint(0, 5), rng.randint(1, 3), **p)

    def calibration(self, op: Op) -> str:
        return "kernel"

    def run(self, op: Op):
        try:
            return self.rspho.solve_energy(op.arg)
        except self.rspho.RsphoError as exc:
            return exc

    def digest(self, op: Op, raw):
        if isinstance(raw, Exception):
            return ("empty", type(raw).__name__)
        return ("E", float(raw.E), float(getattr(raw, "lam", math.nan)))

    def check(self, op: Op, digest) -> Outcome:
        req, kind = op.payload["req"], op.kind
        out = Outcome(solves=1)
        if digest[0] == "empty":
            if kind == "edge_out" or (kind == "high_nr" and digest[1] == "NoRootError"):
                return out
            out.problem = f"{kind} request ended in {digest[1]}"
            return out
        out.solved = 1
        if kind == "edge_out":
            out.problem = "a state was returned where none exists"
            return out
        _, E, lam = digest
        out.problem = check_solution(E, None if math.isnan(lam) else lam, req)
        if op.payload["ref"] is not None:
            err = abs(E - op.payload["ref"])
            out.ref_errors.append(err)
            if out.problem is None and err > 1e-6:
                out.problem = f"|E - E_ref| = {err:.3e} > 1e-6"
        return out


# ========================================================== oracle_thermo

class OracleThermo:
    """Operations: ``verify_radial``/``verify_angular`` on seeded inputs,
    ``radial_wavefunction`` for n_r = 0..3, ``angular_ground_state`` and
    ``thermo_point`` on a fixed temperature grid reaching hundreds of levels.

    Set-up solves the 78 reference states once; their (delta', Delta) feed
    half of the radial oracle calls and all the wavefunctions, and their
    errors against the reference energies give this workload's max_ref_dE.
    """

    name = "oracle_thermo"
    tail_pct = 95
    in_process = True
    COUNTS = {"verify_radial": 30, "verify_angular": 30, "wavefunction": 120,
              "ground_state": 40, "thermo": 80}

    def __init__(self, rspho):
        self.rspho = rspho
        self.states = []
        self.setup_outcome = Outcome()
        for r in reference_energies():
            req = request_dict(r["symmetry"], r["n_r"], r["m"], r["A"], r["B"], r["C"],
                               r["K"], r["M"])
            res = rspho.solve_energy(to_request(rspho, req))
            out = self.setup_outcome
            out.solves += 1
            out.solved += 1
            out.ref_errors.append(abs(res.E - r["E"]))
            problem = check_solution(float(res.E), float(res.lam), req)
            if problem is not None:
                out.problem = problem
            lam = checks.separation_constant(res.E, req)
            dp = req["s"] * 2.0 * req["A"] * (res.E + req["M"]) + lam
            self.states.append((dp, math.sqrt(req["s"] * req["K"] * (res.E + req["M"]))))

    def generate(self, rng: random.Random) -> list[Op]:
        rs = self.rspho
        ops = []
        for i in range(self.COUNTS["verify_radial"]):
            dp, bd = (rng.choice(self.states) if i % 2 else
                      (rng.uniform(0.0, 300.0), rng.uniform(0.5, 12.0)))
            ops.append(Op("verify_radial", {"dp": dp, "bd": bd}, ("verify_radial",)))
        for _ in range(self.COUNTS["verify_angular"]):
            ops.append(Op("verify_angular", {"v0": rng.uniform(0.0, 20.0)}, ("verify_angular",)))
        for i in range(self.COUNTS["wavefunction"]):
            dp, bd = rng.choice(self.states)
            n_r, conv = i % 4, ("table", "equation")[(i // 4) % 2]
            L = -0.5 + math.sqrt(0.25 + dp)
            c = 1.0 if conv == "table" else 2.0
            scale = 0.5 * c * bd               # r grid as long as the state's
            et = 2.0 * scale * (2.0 * n_r + 1.0 + math.sqrt(0.25 + dp))
            grid = (math.sqrt(et) / scale + 4.0 / math.sqrt(scale)) / 4000 * np.arange(1, 4001)
            ops.append(Op("wavefunction", {"n_r": n_r, "L": L, "bd": bd, "c": c, "grid": grid},
                          ("wavefunction", conv),
                          (n_r, L, bd, grid, rs.Convention(conv))))
        for _ in range(self.COUNTS["ground_state"]):
            grid = np.linspace(1e-9, math.pi - 1e-9, 2001)
            ops.append(Op("ground_state", {"q": rng.uniform(0.6, 12.0), "grid": grid},
                          ("ground_state",)))
        count = self.COUNTS["thermo"]
        for i in range(count):
            p = {"K": rng.uniform(2, 8), "A": rng.uniform(2, 8), "B": rng.uniform(-0.1, 0.0),
                 "C": rng.uniform(0, 0.01), "mu": rng.uniform(2, 8), "m": 0,
                 "c": 1.0 + (i % 2), "branch": 1.0}
            T = 0.1 * 300.0 ** (i / (count - 1))      # log grid 0.1 .. 30
            conv = "table" if p["c"] == 1.0 else "equation"
            params = rs.PotentialParams(K=p["K"], A=p["A"], B=p["B"], C=p["C"])
            ops.append(Op("thermo", {"p": p, "T": T}, ("thermo", conv),
                          (params, p["mu"], p["m"], rs.BranchSign.PLUS, rs.Convention(conv), T)))
        rng.shuffle(ops)
        return ops

    def calibration(self, op: Op) -> str:
        """LAPACK-bound oracle calls keep their speed when the interpreter-bound
        calibration kernel slows, so only the other operations are scaled."""
        return "none" if op.kind.startswith("verify") else "kernel"

    def run(self, op: Op):
        rs, p = self.rspho, op.payload
        if op.kind == "verify_radial":
            return rs.verify_radial(p["dp"], p["bd"])
        if op.kind == "verify_angular":
            return rs.verify_angular(p["v0"])
        if op.kind == "wavefunction":
            return rs.radial_wavefunction(*op.arg)
        if op.kind == "ground_state":
            return rs.angular_ground_state(p["q"], p["grid"])
        params, mu, m, branch, conv, T = op.arg
        return rs.thermo_point(rs.nonrelativistic_levels(params, mu, m, branch, conv), T)

    def digest(self, op: Op, raw):
        if op.kind.startswith("verify"):
            return tuple(float(x) for x in raw.computed), bool(raw.converged)
        if op.kind == "wavefunction":
            return raw.values.tobytes()
        if op.kind == "ground_state":
            return raw.tobytes()
        return tuple(float(getattr(raw, k)) for k in ("F", "U", "S", "C", "Z"))

    def check(self, op: Op, digest) -> Outcome:
        p = op.payload
        out = Outcome()
        if op.kind == "verify_radial":
            out.problem = checks.check_fd_levels(digest[0], checks.radial_ladder(p["dp"], p["bd"], 3))
        elif op.kind == "verify_angular":
            out.problem = checks.check_fd_levels(digest[0], checks.angular_ladder(p["v0"], 3))
        elif op.kind == "wavefunction":
            bare = checks.radial_bare(p["n_r"], p["L"], p["bd"], p["c"], p["grid"])
            out.problem = checks.check_profile(np.frombuffer(digest), bare, p["grid"],
                                               np.ones_like(p["grid"]), p["n_r"])
        elif op.kind == "ground_state":
            grid = p["grid"]
            bare = np.sin(grid) ** (p["q"] - 0.5)
            out.problem = checks.check_profile(np.frombuffer(digest), bare, grid,
                                               np.sin(grid), 0)
        else:
            point = dict(zip(("F", "U", "S", "C", "Z"), digest))
            out.problem = checks.check_thermo(point, p["p"], p["T"])
        if op.kind.startswith("verify") and out.problem is None and not digest[1]:
            out.problem = "the oracle reports no convergence"
        return out


def make(name: str):
    """The workload called ``name``, importing the program as it needs."""
    if name == "cli_cold":
        return CliCold()
    import rspho
    if name == "solve_batch":
        return SolveBatch(rspho)
    if name == "sweep_dense":
        import rspho.cli
        return SweepDense(rspho.cli)
    if name == "oracle_thermo":
        return OracleThermo(rspho)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cli_cold", "solve_batch", "sweep_dense", "oracle_thermo")
