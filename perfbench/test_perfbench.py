"""Tests of the benchmark itself: its checks and its span arithmetic.

    python3 -m pytest perfbench -q
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ANCHOR = workloads.request_dict("spin", 1, 0, 6.0, -0.05, 0.005, 5.0, 5.0)
ANCHOR_E = 14.38516214          # reference energy, 8 decimals


def test_energy_check_accepts_the_reference_energy():
    assert checks.check_energy(ANCHOR_E, ANCHOR, decimals=8) is None


@pytest.mark.parametrize("wrong", [ANCHOR_E + 1e-5, ANCHOR_E - 0.5, 23.19457326])
def test_energy_check_rejects_a_wrong_energy(wrong):
    assert "f(E)" in checks.check_energy(wrong, ANCHOR, decimals=8)


def test_energy_check_rejects_energies_outside_the_domain():
    assert "outside" in checks.check_energy(-6.0, ANCHOR)
    assert "finite" in checks.check_energy(float("nan"), ANCHOR)


def test_solution_check_rejects_a_wrong_separation_constant():
    lam = checks.separation_constant(ANCHOR_E, ANCHOR)
    assert workloads.check_solution(ANCHOR_E, lam + 1e-3, ANCHOR) is not None


SOLVE_CSV = ("n,m,n_theta,A,B,C,K,M,symmetry,branch,convention,E,lambda,residual,iterations\n"
             "1,0,1,6.0,-0.05,0.005,5.0,5.0,spin,plus,table,14.38516214,6.74466143,"
             "-1.38555833e-13,39\n")


def test_csv_compare_accepts_equal_output_and_a_new_polish():
    assert checks.compare_csv(SOLVE_CSV, SOLVE_CSV) == []
    repolished = SOLVE_CSV.replace("-1.38555833e-13,39", "2.0e-15,7")
    assert checks.compare_csv(repolished, SOLVE_CSV) == []


@pytest.mark.parametrize("old,new", [
    ("14.38516214", "14.38616214"),              # wrong energy
    (",39\n", ",x\n"),                           # iterations not an integer
    ("-1.38555833e-13", "1.0e-3"),               # residual over its bound
    ("spin,plus", "pseudospin,plus"),            # label changed
    ("convention,E", "convention,Energy"),       # header changed
    ("6.74466143", ""),                          # cell lost
])
def test_csv_compare_rejects_a_corrupted_output(old, new):
    assert checks.compare_csv(SOLVE_CSV.replace(old, new), SOLVE_CSV)


def test_csv_compare_rejects_missing_rows():
    assert checks.compare_csv(SOLVE_CSV.splitlines()[0] + "\n", SOLVE_CSV)


def test_cli_check_accepts_the_record_and_rejects_corruption():
    outputs = workloads.CliOutputs("sweep_dense")
    key = "no_bound_state-n1"
    code, text = outputs.expected(key)
    assert outputs.check(key, code, text).problem is None
    assert outputs.check(key, code + 1, text).problem is not None
    lines = text.splitlines()
    first = lines[1].split(",")
    first[1] = f"{float(first[1]) + 1e-6:.12f}"
    corrupted = "\n".join([lines[0], ",".join(first)] + lines[2:]) + "\n"
    assert outputs.check(key, code, corrupted).problem is not None


def test_a_cell_filled_since_the_record_needs_the_independent_check():
    outputs = workloads.CliOutputs("sweep_dense")
    argv = outputs.catalogue["spin_vs_A-k5"]["argv"]
    _, text = outputs.expected("spin_vs_A-k5")
    header, *rows = [ln.split(",") for ln in text.splitlines()]

    def csv(rows, first_column):
        return "\n".join(",".join(r) for r in [header] + [
            r[:1] + [first_column(r[1])] + r[2:] for r in rows]) + "\n"

    record = csv(rows, lambda cell: "")                 # empty at the record

    def filled(row, col, cell):
        return outputs._filled(argv, header, row, col, cell)

    assert checks.compare_csv(text, record, filled) == []
    wrong = csv(rows, lambda cell: f"{float(cell) + 0.01:.12f}")
    assert checks.compare_csv(wrong, record, filled)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    leaf_a = tracer.wrap(leaf, "leaf", True)
    leaf_b = tracer.wrap(leaf, "point", False)          # summed, not recorded

    def middle():
        clock.now += 1.0
        leaf_a(2.0)
        leaf_b(0.5)
        clock.now += 0.25

    middle_w = tracer.wrap(middle, "middle", True)

    def root():
        clock.now += 3.0
        middle_w()
        middle_w()
        clock.now += 1.0

    tracer.run_op(7, root)
    stats = tracer.stats
    assert stats["leaf"] == [2, 4.0, 4.0]
    assert stats["point"] == [2, 1.0, 1.0]
    assert stats["middle"] == [2, 7.5, 2.5]
    assert stats["op"] == [1, 11.5, 4.0]
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "middle", "leaf", "middle", "leaf"]
    op, mid, lf = tracer.spans[0], tracer.spans[1], tracer.spans[2]
    assert (op[3], mid[3], lf[3]) == (None, 0, 1)      # parents
    assert all(s[4] == 7 for s in tracer.spans)        # op id
    assert (mid[1], mid[2], mid[5]) == (3.0, 6.75, 1.25)


def test_residual_calls_split_into_scan_and_polish():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def residual(E, request):
        clock.now += 1.0
        if E < 0.0:
            raise ValueError("outside the domain")
        return E - 2.5

    wrapped = tracer.wrap(residual, "spectrum.residual", False)

    def solve():
        for e in (-1.0, 0.0, 1.0, 2.0, 3.0, 4.0):        # ascending scan
            try:
                wrapped(e, None)
            except ValueError:
                pass
        for e in (2.5, 2.25, 2.75):                      # bisection
            wrapped(e, None)

    tracer.run_op(0, tracer.wrap(solve, "spectrum.solve", True))
    c = tracer.counts
    assert (c["scan_points"], c["finite_scan_points"], c["brackets"]) == (6, 5, 1)
    assert c["polish_calls_solved"] == 3
    assert (c["scan_s"], c["polish_s"]) == (6.0, 3.0)


def test_missing_names_are_reported_absent():
    tracer = spans.Tracer()
    tracer.install([("json", "no_such_function", "x", True),
                    ("no_such_module_here", "f", "y", True)])
    tracer.uninstall()
    assert tracer.absent == ["json.no_such_function", "no_such_module_here.f"]


def test_importtime_totals_count_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy.integrate",
        "import time:        50 |         50 |     rspho.errors",
        "import time:       400 |        750 |   rspho",
        "import time:        10 |        760 | rspho.cli",
        "import time:       500 |        500 | scipy",
    ])
    assert run.parse_importtime(text) == (0.76, 0.8)


def test_tail_percentile_always_has_ten_samples_beyond_it():
    sizes = {workloads.SolveBatch: 78 + sum(workloads.SolveBatch.COUNTS.values()),
             workloads.OracleThermo: sum(workloads.OracleThermo.COUNTS.values()),
             workloads.CliCold: len(workloads.CliOutputs("cli_cold").catalogue),
             workloads.SweepDense: len(workloads.CliOutputs("sweep_dense").catalogue)}
    for cls, size in sizes.items():
        passes = run.min_passes(cls, [None] * size)
        samples = size if size >= run.MEDIAN_OPS_AT else passes * size
        assert (1.0 - cls.tail_pct / 100.0) * samples >= 10.0 - 1e-9, cls.name
