"""Calibration against the speed of a shared machine.

On a machine shared with other tenants the same code runs up to twice as
fast or slow from one minute to the next.  A benchmark time alone then
spreads more than any useful bound.  So every timing is paired with a
calibration measured next to it, and reported scaled to a fixed nominal
calibration time:

    reported = measured * NOMINAL / calibration

Two calibrations, each matched to the work it scales:

* ``kernel`` - a fixed few-millisecond mix of scalar Python calls and small
  numpy array operations, like the solver's inner loops.  It scales
  operations that run inside the benchmark process.
* ``spawn``  - a fresh interpreter that imports numpy and exits.  It scales
  operations that start a process (the cli_cold commands, set-up probes).

Neither depends on the rspho code, so a change to the program moves the
reported times and leaves the calibrations alone.  The raw times and the
calibrations are kept in the run's record.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

import checks

KERNEL_NOMINAL_S = 0.002
SPAWN_NOMINAL_S = 0.25
SMOOTH = 4


_ANCHOR = {"s": 1.0, "n_r": 1, "n_theta": 1, "m": 0, "A": 6.0, "B": -0.05, "C": 0.005,
           "K": 5.0, "M": 5.0, "c": 1.0, "branch": 1.0}


def _kernel() -> float:
    """The benchmark's own energy relation on a 1000-point scan of the spin
    anchor, then small array operations: the mix of the solver loops."""
    total = 0.0
    for e in np.linspace(-4.9, 30.0, 1000):
        f = checks.energy_relation(float(e), _ANCHOR)
        total += 0.0 if f is None else f
    a = np.linspace(0.0, 1.0, 4000)
    for _ in range(8):
        a = np.sqrt(a * a + 1.0) - 0.5
    return total + float(a[0])


def kernel_seconds() -> float:
    """Median time of five runs of the calibration kernel."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn_seconds() -> float:
    """Wall time of a fresh interpreter importing numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=120)
    return time.perf_counter() - start


class Calibrated:
    """Scales a series of timings by calibrations taken between them.

    ``add`` collects raw timings; once they sum to ``chunk_s`` (or on
    ``flush``) a calibration is taken, and each timing of the chunk is scaled
    by the nominal time over the median of the last SMOOTH calibrations (the
    one just after the chunk and those before it), which damps the noise of
    single calibrations while following the machine's speed within seconds.
    """

    def __init__(self, kind: str, chunk_s: float):
        self.measure, self.nominal = {
            "kernel": (kernel_seconds, KERNEL_NOMINAL_S),
            "spawn": (spawn_seconds, SPAWN_NOMINAL_S),
            "none": (lambda: 1.0, 1.0)}[kind]
        self.chunk_s = chunk_s
        self.samples: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.tags: list = []
        self._chunk: list[float] = []
        self._tags: list = []

    def start(self) -> None:
        if not self.samples:
            self.samples.append(self.measure())

    def add(self, seconds: float, tag=None) -> None:
        self._chunk.append(seconds)
        self._tags.append(tag)
        if sum(self._chunk) >= self.chunk_s:
            self.flush()

    def flush(self) -> None:
        if not self._chunk:
            return
        self.samples.append(self.measure())
        factor = self.nominal / statistics.median(self.samples[-SMOOTH:])
        self.raw.extend(self._chunk)
        self.scaled.extend(t * factor for t in self._chunk)
        self.tags.extend(self._tags)
        self._chunk, self._tags = [], []
