"""Benchmark of the rspho package: one workload per run.

    python3 perfbench/run.py --workload solve_batch --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is taken from ``src/`` as it is in
the working tree.  The workload's inputs are made from ``--seed``.  Whole
passes over the workload's operation list repeat until ``--seconds`` of
measured time; every output is checked (see checks.py).  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones
(spans.py), including the tracing overhead.  A full record, with the
environment and the spans, goes to ``.bench_out/``.  ``--workload all`` runs
every workload in turn and prints a table.  The exit code is 1 when any
output check failed and 2 when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_PROBES = 3
# In-process timings are calibrated every CHUNK_S of measured time.
CHUNK_S = 0.25
# With at least this many operations per pass, an operation's latency is the
# median of its repeats, so a preemption that hits one repeat is not a tail.
MEDIAN_OPS_AT = 100
IMPORT_PROBES = 3
TRACE_MARK = "perfbench-trace "

END_TO_END = {
    "setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "solved_frac": "ratio", "max_ref_dE": "1/fm", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "import.modules": "count", "cli.bytes_out": "bytes", "oracle.tridiag_bytes": "bytes",
    "spectrum.scan_useful_ratio": "ratio", "trace.overhead_frac": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    return "count"


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


# ================================================================ environment

def environment() -> dict:
    """Where and on what the result was measured."""
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        with open(path, "rb") as fh:
            digest.update(path.encode() + b"\0" + fh.read())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit, "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "blas_threads": blas_threads(),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy and scipy load, if any."""
    import ctypes
    found = {}
    for dist in ("numpy", "scipy"):
        try:
            spec = importlib.util.find_spec(dist)
        except (ImportError, ValueError):
            continue
        if spec is None or spec.origin is None:
            continue
        libs = os.path.join(os.path.dirname(os.path.dirname(spec.origin)), dist + ".libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    found[dist] = int(fn())
                    break
    return found or None


# ================================================================ probes

def setup_seconds(name: str, seed: int) -> speed.Calibrated:
    """Fresh processes that import rspho.cli and make the inputs, timed
    from start to exit and calibrated against a fresh numpy import."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed)]
    cal = speed.Calibrated("spawn", 0.0)
    cal.start()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=program_env(), capture_output=True, text=True,
                              timeout=120)
        cal.add(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return cal


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(ms importing rspho, ms importing scipy) from ``-X importtime`` output.

    The output lists each import after the ones it caused, indented by depth;
    walking it backwards visits a parent before its children, so a line
    counts when no enclosing import has the same top-level package.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    totals = {"rspho": 0, "scipy": 0}
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and not any(n.split(".")[0] == top for _, n in stack):
            totals[top] += cumulative
        stack.append((depth, name))
    return totals["rspho"] / 1e3, totals["scipy"] / 1e3


def import_metrics() -> dict:
    cmd = [sys.executable, "-X", "importtime", "-c",
           "import sys, rspho.cli; print(len(sys.modules))"]
    rspho_ms, scipy_ms, modules = [], [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(cmd, env=program_env(), capture_output=True, text=True,
                              timeout=120)
        a, b = parse_importtime(proc.stderr)
        rspho_ms.append(a)
        scipy_ms.append(b)
        modules.append(int(proc.stdout.strip().splitlines()[-1]))
    return {"import.rspho_ms": statistics.median(rspho_ms),
            "import.scipy_ms": statistics.median(scipy_ms),
            "import.modules": statistics.median(modules)}


def anchor_counts() -> dict:
    """Counts on the paper's anchors: residual calls of the spin anchor solve
    and levels summed at T = 5 for the README thermo parameters."""
    import rspho
    tracer = spans.Tracer()
    tracer.install()
    try:
        params = rspho.PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
        rspho.solve_energy(rspho.SolveRequest(params=params, M=5.0,
                                              qn=rspho.QuantumNumbers(n_r=1, m=0),
                                              symmetry=rspho.Symmetry.SPIN))
        residuals = tracer.stats.get("spectrum.residual", [0])[0]
        rspho.thermo_point(rspho.nonrelativistic_levels(params, 5.0), 5.0)
        levels = tracer.stats.get("thermo.level", [0])[0]
    finally:
        tracer.uninstall()
    return {"spectrum.anchor_residual_calls": residuals, "thermo.anchor_levels": levels}


# ================================================================ measuring

class Run:
    """Passes over one workload's operations, their timings and checks."""

    def __init__(self, wl, ops):
        self.wl, self.ops = wl, ops
        self.cal: dict[str, speed.Calibrated] = {}   # calibration kind -> series
        self.wall = {False: 0.0, True: 0.0}
        self.passes = {False: 0, True: 0}
        self.attempted = self.failed = 0
        self.solves = self.solved = 0
        self.ref_errors: list[float] = []
        self.problems: list[str] = []
        self.bytes_out: list[int] = []
        self.verified: dict[int, tuple] = {}
        self.trace = spans.empty_summary()
        self.spans: list = []

    def calibrated(self, op) -> speed.Calibrated:
        kind = self.wl.calibration(op)
        if kind not in self.cal:
            self.cal[kind] = speed.Calibrated(kind, 0.0 if kind == "spawn" else CHUNK_S)
            self.cal[kind].start()
        return self.cal[kind]

    @property
    def latencies(self) -> list[float]:
        """Calibrated latencies of the untraced operations, in seconds: every
        timing, or with many operations per pass each operation's median."""
        if len(self.ops) < MEDIAN_OPS_AT:
            return [t for series in self.cal.values() for t in series.scaled]
        by_op: dict[int, list[float]] = {}
        for series in self.cal.values():
            for i, t in zip(series.tags, series.scaled):
                by_op.setdefault(i, []).append(t)
        return [statistics.median(times) for times in by_op.values()]

    def one_pass(self, traced: bool) -> None:
        """Run every operation once, timing each; then check the outputs.
        Untraced passes are calibrated; traced ones only give their wall time."""
        wl, raws = self.wl, []
        tracer = None
        if traced and wl.in_process:
            tracer = spans.Tracer()
            tracer.install()
        clock = time.perf_counter
        try:
            for i, op in enumerate(self.ops):
                series = None if traced else self.calibrated(op)
                start = clock()
                try:
                    if tracer is not None:
                        raw = tracer.run_op(i, wl.run, op)
                    elif traced:
                        raw = wl.run(op, traced=True)
                    else:
                        raw = wl.run(op)
                except Exception as exc:     # a crash is a failed operation
                    raw = ("crash", f"{type(exc).__name__}: {exc}")
                elapsed = clock() - start
                self.wall[traced] += elapsed
                raws.append(raw)
                if series is not None:
                    series.add(elapsed, i)
        finally:
            if tracer is not None:
                tracer.uninstall()
        for series in self.cal.values():
            series.flush()
        self.passes[traced] += 1
        if tracer is not None:
            self.spans.extend([s + [self.passes[True]] for s in tracer.spans])
            spans.merge(self.trace, tracer.summary())
        for i, raw in enumerate(raws):
            self.verify(i, raw, traced)

    def verify(self, i: int, raw, traced: bool) -> None:
        op = self.ops[i]
        self.attempted += 1
        if isinstance(raw, tuple) and raw and raw[0] == "crash":
            self.fail(i, raw[1])
            return
        if traced and not self.wl.in_process:
            raw = self.take_child_trace(i, raw)
        try:
            digest = self.wl.digest(op, raw)
            known = self.verified.get(i)
            outcome = known[1] if known is not None and known[0] == digest \
                else self.wl.check(op, digest)
        except Exception as exc:               # an output the checks cannot read
            self.fail(i, f"unreadable output: {type(exc).__name__}: {exc}")
            return
        if outcome.problem is not None:
            self.fail(i, outcome.problem)
            return
        self.verified[i] = (digest, outcome)
        self.solves += outcome.solves
        self.solved += outcome.solved
        self.ref_errors.extend(outcome.ref_errors)
        if hasattr(self.wl, "outputs"):
            self.bytes_out.append(len(digest[1].encode()))

    def take_child_trace(self, i: int, raw):
        code, out, err = raw
        lines = err.splitlines()
        marked = [ln for ln in lines if ln.startswith(TRACE_MARK)]
        if marked:
            part = json.loads(marked[-1][len(TRACE_MARK):])
            self.spans.extend([s[:4] + [i] + s[5:] + [self.passes[True]]
                               for s in part.pop("span_records")])
            spans.merge(self.trace, part)
        return code, out, "\n".join(ln for ln in lines if not ln.startswith(TRACE_MARK))

    def fail(self, i: int, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i} ({self.ops[i].kind}): {problem}")


def min_passes(wl, ops) -> int:
    """Passes needed for ten latency samples beyond the tail percentile
    (three repeats when the samples are medians of repeats)."""
    if len(ops) >= MEDIAN_OPS_AT:
        return 3
    return max(1, math.ceil(10.0 / ((1.0 - wl.tail_pct / 100.0) * len(ops)) - 1e-9))


def measure(wl, ops, seconds: float, trace: bool) -> Run:
    run = Run(wl, ops)
    need = min_passes(wl, ops)
    if not trace:
        while run.passes[False] < need or run.wall[False] < seconds:
            run.one_pass(False)
        return run
    while (run.passes[True] < 1 or run.wall[False] + run.wall[True] < seconds):
        run.one_pass(False)
        run.one_pass(True)
    return run


def shares(ops) -> dict:
    counts: dict[str, int] = {}
    for op in ops:
        for c in op.classes:
            counts[c] = counts.get(c, 0) + 1
    return {c: n / len(ops) for c, n in sorted(counts.items())}


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(run: Run, wl, setup: speed.Calibrated, rss: float) -> dict:
    import numpy as np
    lat = np.asarray(run.latencies) * 1e3
    solves, solved = run.solves, run.solved
    ref_errors = list(run.ref_errors)
    extra = getattr(wl, "setup_outcome", None)
    if extra is not None:
        solves, solved = solves + extra.solves, solved + extra.solved
        ref_errors += extra.ref_errors
    timings = [t for series in run.cal.values() for t in series.scaled]
    return {
        "setup_s": statistics.median(setup.scaled),
        "ops_per_s": len(timings) / sum(timings),
        "op_p50_ms": float(np.percentile(lat, 50)),
        "op_tail_ms": float(np.percentile(lat, wl.tail_pct)),
        "solved_frac": solved / solves if solves else 0.0,
        "max_ref_dE": max(ref_errors) if ref_errors else 0.0,
        "peak_rss_mb": rss,
    }


def per_layer(run: Run) -> dict:
    """Per-layer metrics of the traced passes (raw times); the tracing
    overhead compares their wall time with the untraced passes between them."""
    metrics = spans.layer_metrics(run.trace, run.passes[True])
    per_pass_plain = run.wall[False] / run.passes[False]
    per_pass_traced = run.wall[True] / run.passes[True]
    metrics["cli.bytes_out"] = statistics.mean(run.bytes_out) if run.bytes_out else 0.0
    metrics["trace.overhead_frac"] = per_pass_traced / per_pass_plain - 1.0
    metrics["trace.overhead_op_ms"] = (per_pass_traced - per_pass_plain) * 1e3 / len(run.ops)
    metrics["trace.spans_per_pass"] = len(run.spans) / run.passes[True]
    metrics.update(import_metrics())
    metrics.update(anchor_counts())
    return metrics


# ================================================================ entry points

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    wl = workloads.make(name)
    ops = wl.generate(random.Random(seed))
    run = measure(wl, ops, seconds, trace)
    if trace:
        setup, metrics = None, per_layer(run)
    else:
        rss = peak_rss_mb(wl)
        setup = setup_seconds(name, seed)
        metrics = end_to_end(run, wl, setup, rss)
    units = {k: END_TO_END[k] for k in metrics} if not trace else \
        {k: per_layer_unit(k) for k in metrics}
    setup_problem = getattr(getattr(wl, "setup_outcome", None), "problem", None)
    failed = run.failed + (1 if setup_problem else 0)
    if setup_problem:
        run.problems.append(f"set-up: {setup_problem}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "ops_per_pass": len(ops), "passes": run.passes[False], "traced_passes": run.passes[True],
        "samples": len(run.latencies), "tail_percentile": wl.tail_pct,
        "class_shares": shares(ops),
        "setup_probe_s": {"raw": setup.raw, "scaled": setup.scaled} if setup else None,
        "calibration_s": {k: {"samples": c.samples, "op_raw_median": statistics.median(c.raw)}
                          for k, c in run.cal.items()},
        "attempted": run.attempted, "failed": failed, "problems": run.problems,
        "metrics": metrics,
    }
    if trace:
        record["absent_spans"] = run.trace["absent"]
        record["layer_totals"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                                  for k, v in sorted(run.trace["stats"].items())}
        record["counts"] = run.trace["counts"]
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "self", "pass"],
                       "spans": run.spans}, fh)

    print(f"workload {name}  seed {seed}  passes {run.passes[False]}+{run.passes[True]} traced"
          f"  ops/pass {len(ops)}  samples {len(run.latencies)}"
          f"  tail = p{wl.tail_pct}")
    print("shares " + " ".join(f"{k}={v:.3f}" for k, v in record["class_shares"].items()))
    env = record["environment"]
    print(f"env commit={env['commit']} src={env['source_sha256'][:12]} nproc={env['nproc']} "
          f"cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas_threads={env['blas_threads']}")
    if trace and run.trace["absent"]:
        print("absent spans: " + ", ".join(run.trace["absent"]))
    for key, value in metrics.items():
        print(f"  {key:36s} {value:.6g} {units[key]}")
    for problem in run.problems:
        print("FAIL " + problem)
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; a table of their metrics."""
    worst = 0
    table = {}
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            table[name] = json.loads(lines[-1])
    for name, result in table.items():
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}"
                          for k, v in result["metrics"].items())
        print(f"{name:14s} correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {cells}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rspho", "__init__.py")):
        print("error: src/rspho not found; run from the root of an rspho checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
