"""Span tracing from the benchmark's side of the call boundary.

The program is not instrumented.  ``Tracer.install`` replaces module-level
names that callers resolve at call time (``rspho.spectrum.energy_residual``,
``rspho.cli.solve_energy``, ...) with wrappers that time each call, and
``Tracer.uninstall`` puts the originals back.  A name a later version of the
program no longer has is reported as absent instead of failing the run.

Every wrapped call pushes a frame on a stack.  When it returns, its
duration is added to the parent frame's child time, so a span's self time
is its duration minus the time its child spans cover (calls on one thread
nest and never overlap).  Calls of the "coarse" targets are kept in memory
as span records ``[name, start, end, parent, op, self]`` and written out at
the end; the per-point calls (residual, separation constant, validation,
level energies) are only summed, because a run makes millions of them.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name, keep span records)
TARGETS = [
    ("rspho", "solve_energy", "spectrum.solve", True),
    ("rspho.spectrum", "solve_energy", "spectrum.solve", True),
    ("rspho.cli", "solve_energy", "spectrum.solve", True),
    ("rspho.spectrum", "energy_residual", "spectrum.residual", False),
    ("rspho.spectrum", "validate", "model.validate", False),
    ("rspho.spectrum", "lambda_separation", "angular.lambda", False),
    ("rspho.spectrum", "radial_ansatz", "radial.ansatz", False),
    ("rspho", "verify_radial", "oracle.verify", True),
    ("rspho", "verify_angular", "oracle.verify", True),
    ("rspho.cli", "verify_radial", "oracle.verify", True),
    ("rspho.cli", "verify_angular", "oracle.verify", True),
    ("rspho.oracle", "eigh_tridiagonal", "oracle.lapack", True),
    ("rspho", "radial_wavefunction", "radial.wavefunction", True),
    ("rspho.cli", "radial_wavefunction", "radial.wavefunction", True),
    ("rspho.radial", "simpson", "radial.quadrature", True),
    ("rspho", "angular_ground_state", "angular.ground_state", True),
    ("rspho", "thermo_point", "thermo.point", True),
    ("rspho.cli", "thermo_point", "thermo.point", True),
    ("rspho.thermo", "nonrelativistic_energy", "thermo.level", False),
    ("rspho.cli", "evaluate_potential", "model.potential", True),
    ("rspho.cli", "main", "cli.main", True),
]


@dataclass
class SolveScan:
    """What one solve's residual calls did, split into scan and polish.

    The scan evaluates the residual on an ascending grid; the first call
    whose abscissa does not ascend starts the polish.  A call with an array
    of abscissae counts every element as a scan point.
    """

    last_e: float = -math.inf
    polish_start: float | None = None
    scan_points: int = 0
    finite_points: int = 0
    polish_calls: int = 0
    brackets: int = 0
    last_f: float | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stats: dict[str, list[float]] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []
        self.op = None
        self._stack: list[list] = []               # [name, start, child_s, span index]
        self._solves: list[SolveScan] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ wrapping
    def install(self, targets=TARGETS) -> None:
        # Import every module first: a module that copies a name from another
        # at import time must copy the original, not a wrapper.
        modules = {}
        for module_name in dict.fromkeys(t[0] for t in targets):
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, attr, name, keep in targets:
            original = getattr(modules.get(module_name), attr, None)
            if original is None or not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((modules[module_name], attr, original))
            setattr(modules[module_name], attr, self.wrap(original, name, keep))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def wrap(self, fn, name: str, keep: bool):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            start = self.clock()
            index = None
            if keep:
                index = len(self.spans)
                self.spans.append([name, start, None, self._kept_parent(), self.op, None])
            frame = [name, start, 0.0, index]
            self._stack.append(frame)
            if name == "spectrum.solve":
                self._solves.append(SolveScan())
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                end = self.clock()
                self._stack.pop()
                self.close(frame, end)
                if observe is not None:
                    observe(self, args, kwargs, outcome, start, end)

        traced.__wrapped__ = fn
        return traced

    def _kept_parent(self):
        for frame in reversed(self._stack):
            if frame[3] is not None:
                return frame[3]
        return None

    def close(self, frame: list, end: float) -> None:
        """Account a finished call: its self time is its duration minus the
        time of the calls nested in it, which never overlap on one thread."""
        name, start, child_s, index = frame
        duration = end - start
        self_s = duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += self_s
        if index is not None:
            self.spans[index][2] = end
            self.spans[index][5] = self_s

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------ ops
    def run_op(self, op_id, fn, *args):
        """Call ``fn`` as the root span of one benchmark operation."""
        self.op = op_id
        wrapped = self.wrap(fn, "op", True)
        try:
            return wrapped(*args)
        finally:
            self.op = None

    def summary(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "absent": self.absent}


def merge(into: dict, part: dict) -> dict:
    """Add one summary's sums into another (used across traced processes)."""
    for name, row in part["stats"].items():
        acc = into["stats"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += row[i]
    for key, value in part["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
    into["absent"] = sorted(set(into["absent"]) | set(part["absent"]))
    return into


def empty_summary() -> dict:
    return {"stats": {}, "counts": {}, "absent": []}


# ---------------------------------------------------------------- observers
# Counters recorded at the boundary where the work happens.

def _scalar(value):
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _observe_residual(tr: Tracer, args, kwargs, outcome, start, end) -> None:
    if not tr._solves:
        return
    scan = tr._solves[-1]
    e = args[0] if args else kwargs.get("E")
    e_scalar = _scalar(e)
    if e_scalar is None:                      # an array of abscissae
        try:
            values = np.asarray(outcome, dtype=float).ravel() if not isinstance(
                outcome, Exception) else np.full(np.size(e), np.nan)
        except (TypeError, ValueError):
            return
        finite = values[np.isfinite(values)]
        scan.scan_points += values.size
        scan.finite_points += finite.size
        scan.brackets += int(np.count_nonzero(finite[:-1] * finite[1:] < 0.0))
        scan.last_e = math.inf
        return
    if scan.polish_start is None and e_scalar > scan.last_e:
        scan.last_e = e_scalar
        scan.scan_points += 1
        f = None if isinstance(outcome, Exception) else _scalar(outcome)
        if f is not None and math.isfinite(f):
            scan.finite_points += 1
            if scan.last_f is not None and (scan.last_f == 0.0 or scan.last_f * f < 0.0):
                scan.brackets += 1
            scan.last_f = f
        else:
            scan.last_f = None
        return
    if scan.polish_start is None:
        scan.polish_start = start
    scan.polish_calls += 1


def _observe_solve(tr: Tracer, args, kwargs, outcome, start, end) -> None:
    scan = tr._solves.pop()
    tr.count("solves")
    kind = type(outcome).__name__ if isinstance(outcome, Exception) else "ok"
    tr.count({"ok": "solved", "DomainError": "domain_rejects",
              "NoRootError": "no_root"}.get(kind, "other_errors"))
    split = scan.polish_start if scan.polish_start is not None else end
    tr.count("scan_s", split - start)
    tr.count("polish_s", end - split)
    tr.count("scan_points", scan.scan_points)
    tr.count("finite_scan_points", scan.finite_points)
    tr.count("brackets", scan.brackets)
    if kind == "ok":
        tr.count("polish_calls_solved", scan.polish_calls)


def _observe_lapack(tr: Tracer, args, kwargs, outcome, start, end) -> None:
    tr.count("tridiag_bytes", sum(getattr(a, "nbytes", 0) for a in args[:2]))


_OBSERVERS = {
    "spectrum.residual": _observe_residual,
    "spectrum.solve": _observe_solve,
    "oracle.lapack": _observe_lapack,
}


# ---------------------------------------------------------------- metrics

def _per(total: float, n: float, scale: float = 1.0) -> float:
    return total / n * scale if n else 0.0


def layer_metrics(summary: dict, passes: int) -> dict[str, float]:
    """Per-layer metric values from a (merged) summary of ``passes`` passes.

    Times are means per call of the named span; counts are per pass or per
    solve, so they do not depend on how many passes fitted in the run.
    """
    st, ct = summary["stats"], summary["counts"]

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def mean(name, col=1, scale=1e3):
        row = st.get(name, [0, 0.0, 0.0])
        return _per(row[col], row[0], scale)

    solves = ct.get("solves", 0)
    solved = ct.get("solved", 0)
    return {
        "cli.self_ms": mean("cli.main", 2),
        "spectrum.solve_ms": mean("spectrum.solve"),
        "spectrum.solve_self_ms": mean("spectrum.solve", 2),
        "spectrum.residual_calls_per_solve": _per(calls("spectrum.residual"), solves),
        "spectrum.residual_us": mean("spectrum.residual", 1, 1e6),
        "spectrum.residual_self_us": mean("spectrum.residual", 2, 1e6),
        "spectrum.scan_ms": _per(ct.get("scan_s", 0.0), solves, 1e3),
        "spectrum.polish_ms": _per(ct.get("polish_s", 0.0), solves, 1e3),
        "spectrum.polish_iters": _per(ct.get("polish_calls_solved", 0), solved),
        "spectrum.brackets_per_solve": _per(ct.get("brackets", 0), solves),
        "spectrum.domain_rejects": _per(ct.get("domain_rejects", 0), passes),
        "spectrum.no_root": _per(ct.get("no_root", 0), passes),
        "spectrum.scan_useful_ratio": _per(ct.get("finite_scan_points", 0),
                                           ct.get("scan_points", 0)),
        "spectrum.solves": _per(solves, passes),
        "angular.lambda_calls": _per(calls("angular.lambda"), passes),
        "angular.lambda_us": mean("angular.lambda", 1, 1e6),
        "angular.ground_state_ms": mean("angular.ground_state"),
        "radial.ansatz_calls": _per(calls("radial.ansatz"), passes),
        "radial.wavefunction_ms": mean("radial.wavefunction"),
        "radial.wavefunction_self_ms": mean("radial.wavefunction", 2),
        "radial.quadrature_ms": mean("radial.quadrature"),
        "oracle.verify_ms": mean("oracle.verify"),
        "oracle.verify_self_ms": mean("oracle.verify", 2),
        "oracle.lapack_ms": mean("oracle.lapack"),
        "oracle.tridiag_bytes": _per(ct.get("tridiag_bytes", 0), calls("oracle.lapack")),
        "thermo.point_ms": mean("thermo.point"),
        "thermo.point_self_ms": mean("thermo.point", 2),
        "thermo.levels_per_point": _per(calls("thermo.level"), calls("thermo.point")),
        "thermo.level_us": mean("thermo.level", 1, 1e6),
        "model.validate_calls": _per(calls("model.validate"), passes),
        "model.potential_ms": mean("model.potential"),
    }
