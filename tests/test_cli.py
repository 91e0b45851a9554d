"""End-to-end tests of the command-line interface.

These invoke main() in process and capture the streams directly, so they
exercise exactly what a shell user sees: CSV on stdout, diagnostics on
stderr, and the documented exit codes.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import rspho.cli
import rspho.thermo
from rspho.cli import SOLVE_HEADER, TABLE_HEADER, main
from rspho.errors import RsphoError
from rspho.model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                         SolveRequest, Symmetry)
from rspho.spectrum import solve_energy
from rspho.thermo import nonrelativistic_levels, thermo_point

SPIN_ARGS = ["--symmetry", "spin", "--n", "1", "--m", "0", "--A", "6",
             "--B", "-0.05", "--C", "0.005", "--K", "5", "--M", "5"]
PSEUDOSPIN_ARGS = ["--symmetry", "pseudospin", "--n", "1", "--m", "0",
                   "--A", "-5", "--B", "0.5", "--C", "0.005",
                   "--K", "-5", "--M", "3"]


# The README's potential and thermo commands.
POTENTIAL_ARGS = ["potential", "--A", "6", "--B", "-0.05", "--C", "0.005", "--K", "5",
                  "--r-min", "0.5", "--r-max", "3"]
THERMO_ARGS = ["thermo", "--A", "6", "--B", "-0.05", "--C", "0.005", "--K", "5",
               "--mu", "5", "--T-min", "0.1", "--T-max", "5"]
# The README's wavefunction command.
WAVEFUNCTION_ARGS = ["wavefunction", "--symmetry", "spin", "--n", "2", "--m", "0", "--A", "6",
                     "--B", "-0.05", "--C", "0.005", "--K", "5", "--M", "5"]
# The README's sweep command.
SWEEP_ARGS = ["sweep", "--vary", "A", "--from", "6", "--to", "7.5", "--steps", "16",
              "--series", "n", "--series-values", "1,2,3", "--symmetry", "spin",
              "--B", "-0.05", "--C", "0.005", "--K", "5", "--M", "5"]
# What the installed rspho console script runs.
ENTRY_CODE = "import sys; from rspho.cli import main_entry; sys.exit(main_entry())"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def lines_of(text):
    return text.splitlines()


def src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestSolve:
    def test_spin_reference_row(self):
        code, out, err = run_cli(["solve"] + SPIN_ARGS)
        assert code == 0
        assert err == ""
        rows = lines_of(out)
        assert rows[0] == SOLVE_HEADER
        fields = rows[1].split(",")
        assert fields[:11] == ["1", "0", "1", "6.0", "-0.05", "0.005", "5.0",
                               "5.0", "spin", "plus", "table"]
        assert fields[11] == "14.38516214"
        assert fields[12] == "6.74466143"
        assert abs(float(fields[13])) < 1e-10
        assert int(fields[14]) > 0

    def test_pseudospin_reference_row(self):
        code, out, _ = run_cli(["solve"] + PSEUDOSPIN_ARGS)
        assert code == 0
        assert lines_of(out)[1].split(",")[11] == "12.12523736"

    def test_precision_flag(self):
        code, out, _ = run_cli(["solve"] + SPIN_ARGS + ["--precision", "10"])
        assert code == 0
        energy = lines_of(out)[1].split(",")[11]
        whole, frac = energy.split(".")
        assert len(frac) == 10
        assert float(energy) == pytest.approx(14.38516214, abs=1e-7)

    def test_wrong_symmetry_sign_is_domain_error(self):
        argv = ["solve"] + SPIN_ARGS
        argv[argv.index("--K") + 1] = "-5"
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "K must be positive" in err

    def test_scan_ceiling_below_the_domain_is_named(self):
        argv = ["solve"] + SPIN_ARGS
        argv[argv.index("--m") + 1] = "5"
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: empty scan interval [267.2")
        assert "the scan ceiling M + 100.0*sqrt(|K|) its high end" in err

    def test_no_bracket_counts_the_grid_points_inside_the_domain(self):
        code, out, err = run_cli(["solve", "--symmetry", "spin", "--n", "0", "--ntheta", "3",
                                  "--m", "1", "--K", "16.97", "--A", "-2.887", "--B",
                                  "-0.3846", "--C", "0.0781", "--M", "0.3585"])
        assert (code, out) == (2, "")
        assert err.startswith("error: no sign change")
        assert err.endswith("(4 of 512 points inside the domain)\n")

    def test_missing_required_option(self):
        argv = ["solve"] + SPIN_ARGS
        idx = argv.index("--M")
        del argv[idx:idx + 2]
        code, _, err = run_cli(argv)
        assert code == 1
        assert "--M" in err

    def test_unknown_flag(self):
        code, _, err = run_cli(["solve"] + SPIN_ARGS + ["--frobnicate", "1"])
        assert code == 1
        assert "error" in err

    def test_bad_choice(self):
        argv = ["solve"] + SPIN_ARGS
        argv[argv.index("--symmetry") + 1] = "chiral"
        code, _, _ = run_cli(argv)
        assert code == 1

    def test_nonpositive_tolerance(self):
        code, _, err = run_cli(["solve"] + SPIN_ARGS + ["--tol", "0"])
        assert code == 1
        assert "--tol" in err

    @pytest.mark.parametrize("tol", ["inf", "-inf"])
    def test_infinite_tolerance(self, tol):
        # An infinite tolerance would print the unpolished bracket end.
        code, out, err = run_cli(["solve"] + SPIN_ARGS + ["--tol", tol])
        assert (code, out) == (1, "")
        assert "--tol" in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--M", "-inf", "M must be positive (got -inf)"),
        ("--A", "-nan", "A must be a finite real (got nan)"),
        ("--K", "-Inf", "K must be a finite real (got -inf)"),
    ])
    def test_nonfinite_value_after_a_space_is_validated(self, flag, value, message):
        code, out, err = run_cli(["solve"] + SPIN_ARGS + [flag, value])
        assert (code, out, err) == run_cli(["solve"] + SPIN_ARGS + [f"{flag}={value}"])
        assert (code, out) == (2, "") and message in err

    def test_unwritable_output_file(self, tmp_path):
        target = tmp_path / "missing" / "row.csv"
        code, out, err = run_cli(["solve"] + SPIN_ARGS + ["--output", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write output file {target}: ")

    def test_no_subcommand(self):
        code, _, err = run_cli([])
        assert code == 1
        assert "subcommand" in err

    def test_output_file(self, tmp_path):
        target = tmp_path / "row.csv"
        code, out, _ = run_cli(["solve"] + SPIN_ARGS + ["--output", str(target)])
        assert code == 0
        assert out == ""
        raw = target.read_bytes().decode()
        assert "\r" not in raw
        assert raw.endswith("\n")
        assert lines_of(raw)[0] == SOLVE_HEADER


class TestTable:
    def test_spin_set_shape_and_anchors(self):
        code, out, _ = run_cli(["table", "--which", "spin1"])
        assert code == 0
        rows = lines_of(out)
        assert len(rows) == 25
        assert rows[0] == TABLE_HEADER
        assert rows[1] == "1,0,1,6.0,-0.05,0.005,5.0,5.0,14.38516214"
        assert "3,1,3,7.5,-0.05,0.005,5.0,5.0,17.24804736" in rows

    def test_pseudospin_set_shape_and_anchors(self):
        code, out, _ = run_cli(["table", "--which", "pseudospin2"])
        assert code == 0
        rows = lines_of(out)
        assert len(rows) == 56
        assert rows[0].startswith("#")
        assert "m = 2" in rows[0]
        assert rows[1] == TABLE_HEADER
        assert "1,2,1,-5.0,0.5,0.005,-5.0,3.0,12.09120093" in rows
        assert "2,1,2,-3.0,0.5,0.005,-5.0,3.0,12.08478306" in rows

    def test_rows_round_trip_through_solve(self):
        _, table_out, _ = run_cli(["table", "--which", "spin1"])
        row = lines_of(table_out)[10].split(",")
        n, m, _, A, B, C, K, M, energy = row
        code, solve_out, _ = run_cli([
            "solve", "--symmetry", "spin", "--n", n, "--m", m, "--A", A,
            "--B", B, "--C", C, "--K", K, "--M", M])
        assert code == 0
        assert lines_of(solve_out)[1].split(",")[11] == energy

    def test_unknown_set(self):
        code, _, _ = run_cli(["table", "--which", "nonsense"])
        assert code == 1

    def test_first_failure_in_row_order_is_reported(self, monkeypatch):
        # A = -40 has no bound state, with a message that depends on m, and
        # n = -1 fails validation: row order (n, A, m) makes the m = 1 miss
        # at n = 1 the first failure.
        spec = dict(symmetry="spin", B=-0.05, K=5.0, C=0.005, M=5.0,
                    A_values=(6.0, -40.0), n_values=(1, -1), m_values=(1, 0))
        monkeypatch.setitem(rspho.cli._REFERENCE_SETS, "spin1", spec)
        failures = []
        for n in spec["n_values"]:
            for a in spec["A_values"]:
                for m in spec["m_values"]:
                    req = SolveRequest(
                        params=PotentialParams(K=spec["K"], A=a, B=spec["B"], C=spec["C"]),
                        M=spec["M"], qn=QuantumNumbers(n_r=n, m=m),
                        symmetry=Symmetry.SPIN)
                    try:
                        solve_energy(req)
                    except RsphoError as exc:
                        failures.append(f"error: {exc}\n")
        assert len(set(failures)) >= 3
        code, out, err = run_cli(["table", "--which", "spin1"])
        assert (code, out, err) == (2, "", failures[0])


class TestSweep:
    def test_columns_track_reference_energies(self):
        code, out, _ = run_cli([
            "sweep", "--vary", "A", "--from", "6", "--to", "7.5",
            "--steps", "4", "--series", "n", "--series-values", "1,2,3",
            "--symmetry", "spin", "--B", "-0.05", "--C", "0.005",
            "--K", "5", "--M", "5"])
        assert code == 0
        rows = lines_of(out)
        assert rows[0] == "x,n=1,n=2,n=3"
        assert len(rows) == 5
        assert rows[1].split(",")[1] == "14.38516214"
        # every column rises with A
        table = [row.split(",") for row in rows[1:]]
        for col in (1, 2, 3):
            values = [float(r[col]) for r in table]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_unsolvable_points_leave_empty_cells(self):
        code, out, _ = run_cli([
            "sweep", "--vary", "B", "--from", "-0.05", "--to", "0.7",
            "--steps", "4", "--series", "m", "--series-values", "1",
            "--n", "1", "--symmetry", "spin", "--A", "6", "--C", "0.005",
            "--K", "5", "--M", "5"])
        assert code == 0
        rows = lines_of(out)
        assert rows[1].split(",")[1] != ""
        assert rows[-1].endswith(",")

    # Varying B crosses into the region with no bound state (NoRootError);
    # K of the wrong sign fails validation (DomainError).
    @pytest.mark.parametrize("vary,start,stop", [("B", -0.1, 0.3), ("K", -2.0, 6.0)])
    def test_empty_cells_are_exactly_the_failed_solves(self, vary, start, stop):
        fixed = dict(A=6.0, B=-0.05, C=0.005, K=5.0)
        argv = ["sweep", "--vary", vary, "--from", str(start), "--to", str(stop),
                "--steps", "12", "--series", "m", "--series-values", "0,1,2",
                "--n", "1", "--symmetry", "spin", "--M", "5"]
        for name, value in fixed.items():
            if name != vary:
                argv += ["--" + name, str(value)]
        code, out, _ = run_cli(argv)
        assert code == 0
        rows = [row.split(",") for row in lines_of(out)[1:]]
        xs = np.linspace(start, stop, 12)
        assert len(rows) == len(xs)
        empty = 0
        for x, row in zip(xs, rows):
            for m, cell in zip((0, 1, 2), row[1:]):
                req = SolveRequest(params=PotentialParams(**{**fixed, vary: float(x)}),
                                   M=5.0, qn=QuantumNumbers(n_r=1, m=m),
                                   symmetry=Symmetry.SPIN)
                try:
                    expected = f"{solve_energy(req).E:.8f}"
                except RsphoError:
                    expected = ""
                    empty += 1
                assert cell == expected, (x, m)
        assert 0 < empty < 3 * len(xs)

    # Each swept coefficient with both series, both symmetries, both
    # branches and conventions, --ntheta, a loose tolerance and 12 decimals.
    @pytest.mark.parametrize("vary,start,stop,series,options", [
        ("A", 6.0, 7.5, "n", ["--symmetry", "spin"]),
        ("A", -6.0, -2.0, "m", ["--symmetry", "pseudospin", "--n", "1",
                                "--branch", "minus", "--precision", "12"]),
        ("B", -0.1, 0.3, "n", ["--symmetry", "spin", "--convention", "equation",
                               "--ntheta", "2"]),
        ("B", 0.0, 0.8, "m", ["--symmetry", "pseudospin", "--n", "0", "--tol", "1e-3"]),
        ("K", -2.0, 6.0, "n", ["--symmetry", "spin", "--tol", "1e-3", "--precision", "12"]),
        ("K", -6.0, 1.0, "m", ["--symmetry", "pseudospin", "--n", "2", "--ntheta", "1",
                               "--convention", "equation", "--branch", "minus"]),
    ])
    def test_cells_match_solve_energy(self, vary, start, stop, series, options):
        symmetry = options[1]
        fixed = (dict(A=6.0, B=-0.05, C=0.005, K=5.0, M=5.0) if symmetry == "spin"
                 else dict(A=-4.0, B=0.5, C=0.005, K=-5.0, M=3.0))
        values = [0, 1, 3] if series == "n" else [-1, 0, 2]
        argv = ["sweep", "--vary", vary, "--from", str(start), "--to", str(stop),
                "--steps", "9", "--series", series,
                "--series-values=" + ",".join(map(str, values))] + options
        for name, value in fixed.items():
            if name != vary:
                argv += ["--" + name, str(value)]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        flags = dict(zip(options[::2], options[1::2]))
        prec = int(flags.get("--precision", 8))
        tol = float(flags.get("--tol", 1e-12))
        rows = [row.split(",") for row in lines_of(out)[1:]]
        xs = np.linspace(start, stop, 9).tolist()
        assert len(rows) == len(xs)
        empty = 0
        for x, row in zip(xs, rows):
            assert row[0] == f"{x:.{prec}g}"
            for value, cell in zip(values, row[1:], strict=True):
                n_r = value if series == "n" else int(flags["--n"])
                qn = QuantumNumbers(n_r=n_r, n_theta=int(flags.get("--ntheta", n_r)),
                                    m=value if series == "m" else 0)
                params = {**fixed, vary: x}
                req = SolveRequest(
                    params=PotentialParams(**{k: params[k] for k in "KABC"}),
                    M=params["M"], qn=qn, symmetry=Symmetry(symmetry),
                    branch=BranchSign(flags.get("--branch", "plus")),
                    convention=Convention(flags.get("--convention", "table")))
                try:
                    expected = f"{solve_energy(req, tol).E:.{prec}f}"
                except RsphoError:
                    expected = ""
                    empty += 1
                assert cell == expected, (x, value)
        assert empty < len(rows) * len(values)

    def test_negative_first_series_value(self):
        # argparse reads "-1,0,2" after a flag as a flag of its own; it must
        # be the flag's value, as in the "=" form, with flags after it parsed.
        argv = ["sweep", "--vary", "A", "--from", "-6", "--to", "-2", "--steps", "3",
                "--series", "m", "--n", "1", "--B", "0.5", "--C", "0.005",
                "--K", "-5", "--M", "3"]
        joined = run_cli(argv + ["--series-values=-1,0,2", "--symmetry", "pseudospin"])
        spaced = run_cli(argv + ["--series-values", "-1,0,2", "--symmetry", "pseudospin"])
        assert joined[0] == 0 and joined[2] == ""
        assert lines_of(joined[1])[0] == "x,m=-1,m=0,m=2"
        assert spaced == joined

    def test_degenerate_range(self):
        code, _, err = run_cli([
            "sweep", "--vary", "A", "--from", "6", "--to", "6",
            "--symmetry", "spin", "--B", "-0.05", "--C", "0.005",
            "--K", "5", "--M", "5"])
        assert code == 1
        assert "degenerate" in err

    def test_too_few_steps(self):
        code, _, _ = run_cli([
            "sweep", "--vary", "A", "--from", "6", "--to", "7", "--steps", "1",
            "--symmetry", "spin", "--B", "-0.05", "--C", "0.005",
            "--K", "5", "--M", "5"])
        assert code == 1

    def test_missing_fixed_coefficient(self):
        code, _, err = run_cli([
            "sweep", "--vary", "A", "--from", "6", "--to", "7",
            "--symmetry", "spin", "--B", "-0.05", "--C", "0.005", "--M", "5"])
        assert code == 1
        assert "--K" in err

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_bound_is_usage_error(self, flag, value):
        # Before np.linspace runs, which would warn and give NaN rows.
        code, out, err = run_cli(SWEEP_ARGS + [f"{flag}={value}"])
        assert (code, out, err) == (
            1, "", f"error: argument {flag}: must be finite (got {value})\n")

    @pytest.mark.parametrize("flag", ["--from", "--to"])
    @pytest.mark.parametrize("value", ["-inf", "-NaN", "-Infinity"])
    def test_nonfinite_bound_after_a_space_is_usage_error(self, flag, value):
        code, out, err = run_cli(SWEEP_ARGS + [flag, value])
        assert (code, out, err) == run_cli(SWEEP_ARGS + [f"{flag}={value}"])
        assert (code, out) == (1, "") and flag in err


class TestWavefunction:
    def test_row_count_and_finiteness(self):
        code, out, _ = run_cli(["wavefunction"] + SPIN_ARGS + ["--points", "200"])
        assert code == 0
        rows = lines_of(out)
        assert rows[0] == "r,R"
        assert len(rows) == 201
        radii = []
        for row in rows[1:]:
            r_str, val_str = row.split(",")
            radii.append(float(r_str))
            assert math.isfinite(float(val_str))
        assert all(a < b for a, b in zip(radii, radii[1:]))

    @pytest.mark.parametrize("n", [20, 25, 30, 40, 300])
    def test_high_level_has_n_nodes(self, n):
        # Sign changes among the samples above 1e-9 of the peak, as
        # WavefunctionSamples.node_count counts them.  Here the forward power
        # series for 1F1 cancels catastrophically, and at n = 300 r^(L+1)
        # alone overflows.
        code, out, err = run_cli(["wavefunction"] + SPIN_ARGS + ["--n", str(n)])
        values = np.array([float(row.split(",")[1]) for row in lines_of(out)[1:]])
        signs = np.sign(values[np.abs(values) > 1e-9 * np.max(np.abs(values))])
        assert (code, err, int(np.sum(signs[1:] != signs[:-1]))) == (0, "", n)

    def test_level_where_1f1_passes_the_float_range(self):
        # At n = 500, n_theta = 0 1F1 passes 1e308 on the grid, which the
        # Kummer recurrence's rescaling carries; 500 nodes, as node_count
        # counts them on the list grid the command samples.
        code, out, err = run_cli(["wavefunction"] + SPIN_ARGS + ["--n", "500", "--ntheta", "0"])
        values = np.array([float(row.split(",")[1]) for row in lines_of(out)[1:]])
        signs = np.sign(values[np.abs(values) > 1e-9 * np.max(np.abs(values))])
        assert (code, err, int(np.sum(signs[1:] != signs[:-1]))) == (0, "", 500)

    def test_pseudospin_eminus_factor_is_domain_error(self):
        code, _, err = run_cli(["wavefunction"] + PSEUDOSPIN_ARGS
                               + ["--mass-factor", "eminus"])
        assert code == 2
        assert "eminus" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_r_max_is_usage_error(self, value):
        # Before the solve: the grid would hold inf or nan.
        code, out, err = run_cli(["wavefunction"] + SPIN_ARGS + [f"--r-max={value}"])
        assert (code, out, err) == (
            1, "", f"error: argument --r-max: must be finite (got {value})\n")

    @pytest.mark.parametrize("n", ["1", "2"])
    @pytest.mark.parametrize("r_max", ["1e120", "1e200"])
    def test_r_max_that_overflows_is_domain_error(self, n, r_max):
        # Finite, but from 1e200 r^2 overflows.  At 1e120 the polynomial
        # passes the float range, which the Kummer recurrence rescales, and
        # every sample underflows to 0: the grid misses the state.  Exit 2
        # with no numpy warning (an error in this suite) and the cause on
        # stderr.
        code, out, err = run_cli(["wavefunction"] + SPIN_ARGS + ["--n", n, "--r-max", r_max])
        assert (code, out) == (2, "")
        if r_max == "1e120":
            assert err.startswith("error: wavefunction is zero at every grid point: the grid "
                                  f"misses the state (n_r = {n}, L = ")
        else:
            assert err.startswith("error: wavefunction overflows on the grid: a sample is not "
                                  f"finite (n_r = {n}, L = ")
        assert err.endswith(f" to {float(r_max)!r})\n")


class TestPotential:
    def test_small_grid_values(self):
        code, out, _ = run_cli([
            "potential", "--A", "0.01", "--B", "0.01", "--C", "0.01",
            "--K", "0.001", "--r-min", "1", "--r-max", "2",
            "--r-steps", "2", "--theta-steps", "1"])
        assert code == 0
        rows = lines_of(out)
        assert rows[0] == "r,theta,V"
        assert len(rows) == 3
        r, theta, value = rows[1].split(",")
        assert float(r) == 1.0
        assert float(theta) == pytest.approx(math.pi / 2, abs=1e-7)
        assert float(value) == pytest.approx(0.0205, abs=1e-9)
        assert float(rows[2].split(",")[2]) == pytest.approx(0.007, abs=1e-9)

    def test_rejects_empty_grid(self):
        code, _, _ = run_cli([
            "potential", "--A", "0.01", "--B", "0.01", "--C", "0.01",
            "--K", "0.001", "--r-steps", "0"])
        assert code == 1

    @pytest.mark.parametrize("extra", [
        [], ["--precision", "17"], ["--r-steps", "4097", "--theta-steps", "1", "--precision", "17"],
    ], ids=["readme", "readme-17-digits", "4097-rows-17-digits"])
    def test_output_has_the_bytes_of_a_numpy_grid(self, extra):
        # The grid and V as numpy computes them over arrays; at 17 digits
        # equal bytes mean equal bits.
        argv = POTENTIAL_ARGS + extra
        flags = dict(zip(argv[1::2], argv[2::2]))
        prec = int(flags.get("--precision", 8))
        K, A, B, C = (float(flags[name]) for name in ("--K", "--A", "--B", "--C"))
        steps = int(flags.get("--theta-steps", 64))
        theta = math.pi * np.arange(1, steps + 1) / (steps + 1)
        r = np.linspace(float(flags["--r-min"]), float(flags["--r-max"]),
                        int(flags.get("--r-steps", 64)))[:, None]
        r2, sin2, cos2 = r**2, np.sin(theta)**2, np.cos(theta)**2
        V = 0.5 * K * r2 + A / r2 + B / (r2 * sin2) + C * cos2 / (r2 * sin2)
        expected = ["r,theta,V"] + [
            f"{x:.{prec}g},{t:.{prec}g},{v:.{prec}g}"
            for x, row in zip(r[:, 0].tolist(), V.tolist())
            for t, v in zip(theta.tolist(), row)]
        assert run_cli(argv) == (0, "\n".join(expected) + "\n", "")

    @pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_radius_is_usage_error(self, flag, value):
        code, out, err = run_cli(POTENTIAL_ARGS + [f"{flag}={value}"])
        assert (code, out, err) == (
            1, "", f"error: argument {flag}: must be finite (got {value})\n")


    @pytest.mark.parametrize("flag", ["--r-min", "--r-max"])
    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NaN"])
    def test_nonfinite_radius_after_a_space_is_usage_error(self, flag, value):
        # "-inf" as a token of its own is the flag's value, as in --flag=-inf.
        code, out, err = run_cli(POTENTIAL_ARGS + [flag, value])
        assert (code, out, err) == run_cli(POTENTIAL_ARGS + [f"{flag}={value}"])
        assert (code, out) == (1, "") and flag in err

    @pytest.mark.parametrize("r_min, r_max, r", [("1e-200", "1", "1e-200"),
                                                 ("1e200", "1e201", "1e+200")])
    def test_potential_that_is_not_finite_is_domain_error(self, r_min, r_max, r):
        # r^2 underflows to 0 or overflows; the float path divided by 0 or
        # printed inf.
        code, out, err = run_cli(POTENTIAL_ARGS + ["--r-min", r_min, "--r-max", r_max,
                                                   "--r-steps", "2", "--theta-steps", "1"])
        assert (code, out) == (2, "")
        assert err == f"error: V(r, theta) is not finite at r = {r}, theta = {math.pi / 2!r}\n"

    def test_nonfinite_coefficient_after_a_space(self):
        argv = POTENTIAL_ARGS + ["--r-steps", "2", "--theta-steps", "1"]
        assert run_cli(argv + ["--K", "-inf"]) == run_cli(argv + ["--K=-inf"])


@pytest.mark.parametrize("argv, first, last", [
    (SWEEP_ARGS, "--from", "--to"),
    (POTENTIAL_ARGS, "--r-min", "--r-max"),
    (THERMO_ARGS, "--T-min", "--T-max"),
], ids=["sweep", "potential", "thermo"])
@pytest.mark.parametrize("big", [1e308, -1.7e308])
def test_grid_bounds_whose_span_overflows_are_usage_error(argv, first, last, big):
    # Finite bounds whose difference is not: the grid would be NaN and inf.
    code, out, err = run_cli(argv + [f"{first}={-big!r}", f"{last}={big!r}"])
    span = "inf" if big > 0 else "-inf"
    assert (code, out, err) == (
        1, "", f"error: the span from {first} to {last} must be finite (got {span})\n")


@pytest.mark.parametrize("first, last, n", [
    (0.1, 5.0, 1), (0.1, 5.0, 2), (0.1, 5.0, 50), (0.5, 3.0, 4097),
    (2.5, 2.5, 1), (2.5, 2.5, 2), (2.5, 2.5, 50), (-0.0, -0.0, 1), (-0.0, -0.0, 3), (0.0, -0.0, 3),
    (5.0, 0.1, 50), (3.0, -7.25, 4097), (0.0, 5e-324, 4097), (1e300, -1e300, 50),
])
def test_float_grid_has_the_bits_of_linspace(first, last, n):
    assert (np.array(rspho.cli._linspace(first, last, n)).tobytes()
            == np.linspace(first, last, n).tobytes())


@settings(derandomize=True, deadline=None, max_examples=300)
@given(first=st.floats(-1e6, 1e6), last=st.floats(-1e6, 1e6), n=st.integers(1, 300))
def test_float_grid_has_the_bits_of_linspace_everywhere(first, last, n):
    assert (np.array(rspho.cli._linspace(first, last, n)).tobytes()
            == np.linspace(first, last, n).tobytes())


class TestThermo:
    def test_monotone_entropy_and_positive_capacity(self):
        code, out, _ = run_cli([
            "thermo", "--A", "6", "--B", "-0.05", "--C", "0.005", "--K", "5",
            "--mu", "5", "--T-min", "0.2", "--T-max", "2", "--steps", "10"])
        assert code == 0
        rows = lines_of(out)
        assert rows[0] == "T,Z,F,U,S,C"
        assert len(rows) == 11
        parsed = [list(map(float, row.split(","))) for row in rows[1:]]
        entropies = [p[4] for p in parsed]
        assert all(a <= b + 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert all(p[5] >= 0.0 for p in parsed)
        assert parsed[0][0] == pytest.approx(0.2)
        assert parsed[-1][0] == pytest.approx(2.0)

    def test_each_temperature_sums_a_fresh_ladder(self, record_levels):
        argv = ["thermo", "--A", "6", "--B", "-0.05", "--C", "0.005", "--K", "5",
                "--mu", "5", "--T-min", "0.1", "--T-max", "5"]
        params = PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
        expected = ["T,Z,F,U,S,C"]
        for t in np.linspace(0.1, 5.0, 50):       # a fresh ladder per temperature
            pt = thermo_point(nonrelativistic_levels(params, 5.0), float(t))
            expected.append(",".join(rspho.cli._compact(val, 8)
                                     for val in (pt.T, pt.Z, pt.F, pt.U, pt.S, pt.C)))
        taken = record_levels()
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out == "\n".join(expected) + "\n"
        # One ladder per temperature, each from level 0.
        lengths = [n_r + 1 for n_r, nxt in zip(taken, taken[1:] + [0]) if nxt == 0]
        assert taken == [n_r for length in lengths for n_r in range(length)]
        assert len(lengths) == 50
        assert lengths[-1] == 77              # the T = 5 sum needs 77 levels

    @pytest.mark.parametrize("flag", ["--T-min", "--T-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_nonfinite_temperature_is_usage_error(self, flag, value):
        code, out, err = run_cli(THERMO_ARGS + [f"{flag}={value}"])
        assert (code, out, err) == (
            1, "", f"error: argument {flag}: must be finite (got {value})\n")

    @pytest.mark.parametrize("flag", ["--T-min", "--T-max"])
    @pytest.mark.parametrize("value", ["-inf", "-nan", "-INFINITY"])
    def test_nonfinite_temperature_after_a_space_is_usage_error(self, flag, value):
        code, out, err = run_cli(THERMO_ARGS + [flag, value])
        assert (code, out, err) == run_cli(THERMO_ARGS + [f"{flag}={value}"])
        assert (code, out) == (1, "") and flag in err

    def test_nonfinite_coefficient_after_a_space(self):
        code, out, err = run_cli(THERMO_ARGS + ["--K", "-inf"])
        assert (code, out, err) == run_cli(THERMO_ARGS + ["--K=-inf"])
        assert (code, out, err) == (2, "", "error: non-relativistic limit requires K > 0 "
                                           "(got -inf)\n")

    @pytest.mark.parametrize("flag, message", [
        ("--kB", "k_B must be positive and finite (got inf)"),
        ("--tail-tol", "rel_tail_tol must be positive and finite (got inf)"),
    ])
    def test_infinite_constant_fails_before_any_level(self, flag, message, monkeypatch):
        for name in ("_ladder_terms", "_level"):
            monkeypatch.setattr(rspho.thermo, name,
                                lambda *args: pytest.fail("a level was taken"))
        code, out, err = run_cli(THERMO_ARGS + [flag, "inf"])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flag, value", [
        ("--K", "nan"), ("--K", "inf"), ("--A", "nan"), ("--A", "-inf"),
        ("--B", "inf"), ("--C", "nan"), ("--mu", "nan"), ("--mu", "inf"),
    ])
    def test_nonfinite_coefficient_fails_at_the_first_level(self, flag, value, record_levels):
        taken = record_levels()
        code, out, err = run_cli(THERMO_ARGS + [f"{flag}={value}"])
        assert (code, out, err) == (2, "", f"error: {flag[2:]} must be finite (got {value})\n")
        assert taken == []      # the first next() checks the inputs, before level 0

    @pytest.mark.parametrize("coefficients, terms", [
        (["--K", "1e308", "--A", "1e308"],
         "(c/2)*sqrt(2K/mu) = inf, 1/4 + 4*A*mu + lambda = inf"),
        (["--mu", "1e-310"], "(c/2)*sqrt(2K/mu) = inf, 1/4 + 4*A*mu + lambda = 1.2"),
    ], ids=["K-and-A", "mu"])
    def test_overflowing_ladder_fails_at_the_first_level(self, coefficients, terms,
                                                         record_levels):
        # Every coefficient is finite, but level 0 overflows.
        taken = record_levels()
        code, out, err = run_cli(THERMO_ARGS + coefficients)
        assert (code, out) == (2, "")
        assert err.startswith("error: oscillator-limit energy overflows at n_r = 0, "
                              f"n_theta = 0: {terms}")
        assert taken == [0]

    def test_swamped_level_spacing_is_named(self):
        # 4*A*mu = 2.4e301 swamps 2n + 1, so every level rounds to one value;
        # the error names the first two equal levels, not a descent.
        code, out, err = run_cli(["thermo", "--A", "6", "--B", "-0.05", "--C", "0.005",
                                  "--K", "5", "--mu", "1e300", "--steps", "2"])
        assert (code, out) == (2, "")
        assert err == ("error: levels 0 and 1 are both 7.745966692414835: a degenerate "
                       "spectrum, or a level spacing lost to rounding\n")

    def test_missing_reduced_mass(self):
        code, _, err = run_cli([
            "thermo", "--A", "6", "--B", "-0.05", "--C", "0.005", "--K", "5"])
        assert code == 1
        assert "--mu" in err


class TestVerify:
    def test_default_suites_converge(self):
        code, out, _ = run_cli(["verify"])
        assert code == 0
        rows = lines_of(out)
        assert rows[0] == "suite,case,level,computed,predicted,rel_error,converged"
        assert len(rows) == 22
        assert all(row.endswith(",true") for row in rows[1:])

    def test_angular_suite_alone(self):
        code, out, _ = run_cli(["verify", "--suite", "angular"])
        assert code == 0
        rows = lines_of(out)
        assert len(rows) == 10
        assert all(row.startswith("angular,") for row in rows[1:])

    @pytest.mark.parametrize("points", ["2", "15"])
    def test_too_few_points_is_usage_error(self, points):
        code, out, err = run_cli(["verify", "--suite", "radial", "--points", points])
        assert (code, out) == (1, "")
        assert err == f"error: argument --points: must be >= 16 (got {points})\n"

    def test_coarse_grid_fails_verification(self):
        code, out, _ = run_cli(["verify", "--suite", "radial", "--points", "16"])
        assert code == 3
        assert any(row.endswith(",false") for row in lines_of(out)[1:])


class TestImports:
    def test_scipy_is_loaded_only_by_the_oracle(self):
        """The wavefunction and the angular ground state, normalized in
        closed form, run without SciPy; the finite-difference oracle imports
        it on first use."""
        script = """
import contextlib, io, json, math, sys
import numpy as np
import rspho.cli
from rspho import angular_ground_state
with contextlib.redirect_stdout(io.StringIO()):
    codes = [rspho.cli.main(sys.argv[1:])]
    angular_ground_state(2.0, np.linspace(1e-9, math.pi - 1e-9, 2001))
    loaded = ["scipy" in sys.modules]
    codes.append(rspho.cli.main(["verify", "--suite", "angular"]))
    loaded.append("scipy" in sys.modules)
print(json.dumps([codes, loaded]))
"""
        done = subprocess.run([sys.executable, "-c", script] + WAVEFUNCTION_ARGS, env=src_env(),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [[0, 0], [False, True]]

    @pytest.mark.parametrize("launch", [["-m", "rspho"], ["-c", ENTRY_CODE]],
                             ids=["python-m", "console-script"])
    @pytest.mark.parametrize("argv", [
        POTENTIAL_ARGS, THERMO_ARGS, ["solve"] + SPIN_ARGS, ["table", "--which", "spin1"],
        ["table", "--which", "pseudospin2"], SWEEP_ARGS, WAVEFUNCTION_ARGS,
        # On 400 points the float and array oracles print the same bytes.
        ["verify", "--points", "400"],
    ], ids=["potential", "thermo", "solve", "table-spin1", "table-pseudospin2", "sweep",
            "wavefunction", "verify"])
    def test_loads_neither_numpy_nor_scipy(self, launch, argv):
        # -X importtime lists every module the process imports.
        done = subprocess.run([sys.executable, "-X", "importtime"] + launch + argv,
                              env=src_env(), capture_output=True, text=True)
        imported = {line.rsplit("|", 1)[-1].strip().split(".")[0]
                    for line in done.stderr.splitlines() if line.startswith("import time:")}
        assert (done.returncode, done.stdout) == (0, run_cli(argv)[1])
        assert "rspho" in imported
        assert not imported & {"numpy", "scipy"}

    @pytest.mark.parametrize("argv", [
        ["solve"] + SPIN_ARGS,
        ["table", "--which", "spin1"],
        ["table", "--which", "pseudospin2"],
        # B crosses into the region with no bound state: empty cells.
        ["sweep", "--steps", "24", "--precision", "12", "--vary", "B", "--from", "-0.15",
         "--to", "0.25", "--series", "m", "--series-values", "0,1,2", "--n", "0",
         "--symmetry", "spin", "--C", "0.005", "--M", "5", "--A", "6", "--K", "5"],
        ["sweep", "--vary", "A", "--from", "-6", "--to", "-2", "--steps", "3", "--series", "m",
         "--n", "1", "--series-values", "-1,0,2", "--symmetry", "pseudospin", "--B", "0.5",
         "--C", "0.005", "--K", "-5", "--M", "3"],
        # The scan ceiling empties the scan interval.
        ["solve", "--symmetry", "spin", "--n", "1", "--m", "5", "--A", "6", "--B", "-0.05",
         "--C", "0.005", "--K", "5", "--M", "5"],
        # Four grid points inside the domain, no sign change.
        ["solve", "--symmetry", "spin", "--n", "0", "--ntheta", "3", "--m", "1", "--K", "16.97",
         "--A", "-2.887", "--B", "-0.3846", "--C", "0.0781", "--M", "0.3585"],
    ], ids=["solve", "table-spin1", "table-pseudospin2", "sweep-no-bound-state",
            "sweep-negative-series", "solve-ceiling", "solve-no-sign-change"])
    def test_fresh_process_prints_what_main_prints_with_numpy_loaded(self, argv):
        # A fresh process has not loaded numpy, so it scans on floats and
        # solves a table's or a sweep's cells one by one; main in this
        # process, which has, scans and solves them with arrays.  Both give
        # the same bytes and exit code.
        assert "numpy" in sys.modules
        done = subprocess.run([sys.executable, "-m", "rspho"] + argv, env=src_env(),
                              capture_output=True)
        code, out, err = run_cli(argv)
        assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())

    def test_fresh_verify_matches_main_with_numpy_loaded(self):
        # A fresh process finds the levels with Sturm counts on floats, main
        # in this process with Lanczos on arrays: each within eps*|T| of the
        # same matrix's levels.  So every cell agrees but the last digits of
        # rel_error, and computed agrees within 2e-7 relative.
        assert "numpy" in sys.modules
        done = subprocess.run([sys.executable, "-m", "rspho", "verify"], env=src_env(),
                              capture_output=True, text=True)
        code, out, err = run_cli(["verify"])
        assert (done.returncode, done.stderr) == (code, err) == (0, "")
        fresh, loaded = ([line.split(",") for line in text.splitlines()]
                         for text in (done.stdout, out))
        assert len(fresh) == len(loaded) == 22
        assert fresh[0] == loaded[0]
        column = fresh[0].index("computed")
        rel_error = fresh[0].index("rel_error")
        for a, b in zip(fresh[1:], loaded[1:]):
            assert [a[i] for i in range(len(a)) if i not in (column, rel_error)] == \
                   [b[i] for i in range(len(b)) if i not in (column, rel_error)]
            assert float(a[column]) == pytest.approx(float(b[column]), rel=2e-7)
            assert re.fullmatch(r"\d\.\d{3}e-\d\d", a[rel_error])

    def test_import_rspho_loads_no_submodule(self):
        # dir() lists the public names without importing their modules.
        script = """
import json, sys, rspho
print(json.dumps([sorted(set(rspho.__all__) - set(dir(rspho))),
                  sorted(m for m in sys.modules if m.split(".")[0] == "rspho")]))
"""
        done = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, check=True)
        assert json.loads(done.stdout) == [[], ["rspho"]]

    @staticmethod
    def imported_by(launch, argv):
        """The rspho modules a fresh ``rspho <argv>`` process imports; the
        command must exit 0 and print what it prints in process."""
        # -X importtime lists every module the process imports.
        done = subprocess.run([sys.executable, "-X", "importtime"] + launch + argv,
                              env=src_env(), capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, run_cli(argv)[1])
        return {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")
                and line.rsplit("|", 1)[-1].strip().split(".")[0] == "rspho"}

    @pytest.mark.parametrize("launch", [["-m", "rspho"], ["-c", ENTRY_CODE]],
                             ids=["python-m", "console-script"])
    def test_potential_loads_only_cli_model_and_errors(self, launch):
        assert self.imported_by(launch, POTENTIAL_ARGS) == {
            "rspho", "rspho.cli", "rspho.model", "rspho.errors"}

    @pytest.mark.parametrize("launch", [["-m", "rspho"], ["-c", ENTRY_CODE]],
                             ids=["python-m", "console-script"])
    @pytest.mark.parametrize("argv, unused", [
        (THERMO_ARGS, {"spectrum", "radial", "oracle"}),
        (["verify", "--suite", "angular", "--points", "400"],
         {"spectrum", "thermo"}),
        (["solve"] + SPIN_ARGS, {"oracle", "thermo"}),
        (["table", "--which", "spin1"], {"oracle", "thermo"}),
        (SWEEP_ARGS, {"oracle", "thermo"}),
        (["wavefunction"] + SPIN_ARGS + ["--points", "50"], {"oracle", "thermo"}),
    ], ids=lambda v: v[0] if isinstance(v, list) else None)
    def test_each_command_loads_only_the_modules_it_runs(self, launch, argv, unused):
        imported = self.imported_by(launch, argv)
        assert "rspho.cli" in imported
        assert not imported & {"rspho." + name for name in unused}

    def test_package_names_are_their_modules_objects(self):
        import rspho
        for name in rspho.__all__:
            obj = getattr(rspho, name)
            assert obj.__module__.startswith("rspho.")
            assert getattr(sys.modules[obj.__module__], name) is obj
        namespace = {}
        exec("from rspho import *", namespace)
        assert all(namespace[name] is getattr(rspho, name) for name in rspho.__all__)
        assert set(rspho.__all__) <= set(dir(rspho))
        with pytest.raises(AttributeError, match="no_such_name"):
            rspho.no_such_name


@pytest.mark.parametrize("module, argv, code", [
    ("rspho.cli", ["solve", "--symmetry", "spin"], 1),
    ("rspho.cli", ["table", "--which", "spin1"], 0),
    ("rspho", ["solve", "--symmetry", "spin"], 1),
    ("rspho", ["table", "--which", "spin1"], 0),
], ids=["usage-error", "table", "package-usage-error", "package-table"])
def test_python_m_rspho_cli_runs_main(module, argv, code):
    # Run as a module, rspho.cli or the package, the CLI prints what main()
    # prints and exits with its code; a RuntimeWarning (a module imported
    # twice) is an error.
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", module]
                          + argv, env=src_env(), capture_output=True)
    _, out, err = run_cli(argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), err.encode())


COEFFS = ["--A", "6", "--B", "-0.05", "--C", "0.005", "--K", "5"]


@pytest.mark.parametrize("argv", [
    ["solve"] + SPIN_ARGS,
    ["table", "--which", "spin1"],
    ["sweep", "--vary", "A", "--from", "6", "--to", "7", "--steps", "3",
     "--symmetry", "spin", "--B", "-0.05", "--C", "0.005", "--K", "5", "--M", "5"],
    ["wavefunction"] + SPIN_ARGS + ["--points", "50"],
    ["potential"] + COEFFS,
    ["thermo"] + COEFFS + ["--mu", "5"],
    ["verify", "--suite", "angular"],
], ids=lambda argv: argv[0])
def test_negative_precision_is_usage_error(argv):
    code, out, err = run_cli(argv + ["--precision", "-2"])
    assert (code, out) == (1, "")
    assert err == "error: argument --precision: must be >= 0 (got -2)\n"
    code, _, _ = run_cli(argv + ["--precision", "0"])
    assert code == 0


WAVEFUNCTION_ARGS = ["wavefunction"] + SPIN_ARGS + ["--points", "50"]


RANGE_CHECKED = [
    (["solve"] + SPIN_ARGS, "tol", "0", "must be positive and finite (got 0.0)"),
    (["solve"] + SPIN_ARGS, "tol", "inf", "must be positive and finite (got inf)"),
    (["solve"] + SPIN_ARGS, "precision", "-1", "must be >= 0 (got -1)"),
    (SWEEP_ARGS, "steps", "1", "must be >= 2 (got 1)"),
    (SWEEP_ARGS, "from", "nan", "must be finite (got nan)"),
    (SWEEP_ARGS, "to", "-inf", "must be finite (got -inf)"),
    (SWEEP_ARGS, "series-values", "1,x", "must be comma-separated integers (got '1,x')"),
    (SWEEP_ARGS, "tol", "-1e-12", "must be positive and finite (got -1e-12)"),
    (WAVEFUNCTION_ARGS, "points", "2", "must be >= 3 (got 2)"),
    (WAVEFUNCTION_ARGS, "r-max", "inf", "must be finite (got inf)"),
    (WAVEFUNCTION_ARGS, "tol", "nan", "must be positive and finite (got nan)"),
    (POTENTIAL_ARGS, "r-min", "-inf", "must be finite (got -inf)"),
    (POTENTIAL_ARGS, "r-max", "nan", "must be finite (got nan)"),
    (POTENTIAL_ARGS, "r-steps", "0", "must be >= 1 (got 0)"),
    (POTENTIAL_ARGS, "theta-steps", "-2", "must be >= 1 (got -2)"),
    (THERMO_ARGS, "T-min", "-Infinity", "must be finite (got -inf)"),
    (THERMO_ARGS, "T-max", "inf", "must be finite (got inf)"),
    (THERMO_ARGS, "steps", "0", "must be >= 1 (got 0)"),
    (["verify", "--suite", "angular"], "points", "15", "must be >= 16 (got 15)"),
]


@pytest.mark.parametrize("argv, key, value, message", RANGE_CHECKED,
                         ids=[f"{argv[0]}-{key}={value}" for argv, key, value, _ in RANGE_CHECKED])
def test_range_checked_flag_is_usage_error_as_flag_and_as_config(tmp_path, argv, key, value,
                                                                 message):
    """Each flag whose argparse type checks a range rejects a value outside
    it, given as a flag or as a config entry, before the command runs.  A
    config entry is checked even where a flag of argv overrides it."""
    expected = (1, "", f"error: argument --{key}: {message}\n")
    assert run_cli(argv + [f"--{key}", value]) == expected
    path = tmp_path / "bad.conf"
    path.write_text(f"{key} = {value}\n")
    assert run_cli(argv + ["--config", str(path)]) == expected


class TestParserReuse:
    def test_calls_in_sequence_match_each_call_alone(self, tmp_path):
        path = tmp_path / "case.conf"
        path.write_text(TestConfigFile.CONFIG)
        no_mass = ["solve"] + SPIN_ARGS[:SPIN_ARGS.index("--M")]
        calls = [
            ["solve", "--config", str(path), "--n", "2"],
            no_mass,                                  # the config's M must not linger
            ["solve"] + SPIN_ARGS + ["--A", "7"],
            ["table", "--which", "nonsense"],
            ["sweep", "--vary", "A", "--from", "6", "--to", "7", "--steps", "3",
             "--symmetry", "spin", "--B", "-0.05", "--C", "0.005", "--K", "5",
             "--M", "5"],
        ]
        alone = []
        for argv in calls:
            rspho.cli._build_parser.cache_clear()
            alone.append(run_cli(argv))
        rspho.cli._build_parser.cache_clear()
        in_sequence = [run_cli(argv) for argv in calls]
        assert in_sequence == alone
        assert [code for code, _, _ in alone] == [0, 1, 0, 1, 0]
        assert rspho.cli._build_parser() is rspho.cli._build_parser()


class TestConfigFile:
    CONFIG = """\
# reference bound-state request
symmetry = spin
n = 1
m = 0
A = 6.0
B = -0.05
C = 0.005
K = 5.0
M = 5.0
"""

    def test_config_supplies_options(self, tmp_path):
        path = tmp_path / "case.conf"
        path.write_text(self.CONFIG)
        code, out, _ = run_cli(["solve", "--config", str(path)])
        assert code == 0
        assert lines_of(out)[1].split(",")[11] == "14.38516214"

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "case.conf"
        path.write_text(self.CONFIG)
        code, out, _ = run_cli(["solve", "--config", str(path), "--A", "6.5"])
        assert code == 0
        assert lines_of(out)[1].split(",")[11] == "14.68410842"

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "case.conf"
        path.write_text(self.CONFIG + "frobnicate = 1\n")
        code, _, err = run_cli(["solve", "--config", str(path)])
        assert code == 1
        assert "frobnicate" in err

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "case.conf"
        path.write_text("symmetry spin\n")
        code, _, err = run_cli(["solve", "--config", str(path)])
        assert code == 1
        assert "key = value" in err

    def test_missing_file(self, tmp_path):
        code, _, err = run_cli(["solve", "--config", str(tmp_path / "absent.conf")])
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("entry,key", [
        ("n = one", "--n"),                        # not an int
        ("symmetry = sideways", "--symmetry"),     # not a choice
        ("sym = spin", "'sym'"),                   # abbreviated flag
        ("help = 1", "'help'"),
        ("which = spin1", "'which'"),              # a flag of another subcommand
    ])
    def test_bad_entry_is_usage_error(self, tmp_path, entry, key):
        path = tmp_path / "case.conf"
        path.write_text(self.CONFIG + entry + "\n")
        code, out, err = run_cli(["solve", "--config", str(path)])
        assert (code, out) == (1, "")
        assert key in err

    def test_keys_are_long_flag_names(self, tmp_path):
        path = tmp_path / "sweep.conf"
        path.write_text("vary = A\nfrom = 6\nto = 7\nsteps = 3\nseries-values = 1,2\n"
                        "symmetry = spin\nB = -0.05\nC = 0.005\nK = 5\nM = 5\n")
        flags = ["sweep", "--vary", "A", "--from", "6", "--to", "7.5", "--steps", "3",
                 "--series-values", "1,2", "--symmetry", "spin", "--B", "-0.05",
                 "--C", "0.005", "--K", "5", "--M", "5"]
        as_config = run_cli(["sweep", "--config", str(path), "--to", "7.5"])
        assert as_config == run_cli(flags)
        assert as_config[0] == 0

    def test_values_are_checked_like_flags(self, tmp_path):
        path = tmp_path / "case.conf"
        path.write_text(self.CONFIG + "n = one\n")
        as_config = run_cli(["solve", "--config", str(path)])
        as_flag = run_cli(["solve"] + SPIN_ARGS + ["--n", "one"])
        assert as_config == as_flag

    def test_negative_exponent_value(self, tmp_path):
        # A value like -1e-3 would read as a flag if it stood alone in argv.
        path = tmp_path / "case.conf"
        path.write_text(self.CONFIG.replace("A = 6.0", "A = -1e-3"))
        assert run_cli(["solve", "--config", str(path)]) == run_cli(
            ["solve"] + SPIN_ARGS + ["--A=-1e-3"])

    @pytest.mark.parametrize("form", [["--config", "PATH"], ["--config=PATH"], ["--conf", "PATH"]],
                             ids=" ".join)
    def test_config_flag_forms(self, tmp_path, form):
        # An abbreviation that argparse accepts finds the file too.
        path = tmp_path / "case.conf"
        path.write_text(self.CONFIG)
        code, out, err = run_cli(["solve"] + [token.replace("PATH", str(path)) for token in form])
        assert (code, out, err) == run_cli(["solve"] + SPIN_ARGS)
        assert code == 0

    def test_no_config_parse_without_a_dash_dash_c_token(self, monkeypatch):
        # --C, capital, cannot abbreviate --config.
        monkeypatch.setattr(rspho.cli, "_config_flag_parser",
                            lambda: pytest.fail("argv was parsed for --config"))
        assert run_cli(["solve"] + SPIN_ARGS)[0] == 0

    def test_config_without_a_path(self):
        code, out, err = run_cli(["solve", "--config"])
        assert (code, out) == (1, "")
        assert "--config" in err


# One file per example, rewritten each time, so the function-scoped
# tmp_path serves every example.
@settings(derandomize=True, deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(A=st.floats(4.0, 8.0), B=st.floats(-0.1, 0.0), C=st.floats(0.0, 0.01),
       K=st.floats(2.0, 8.0), M=st.floats(2.0, 8.0), n_r=st.integers(0, 2),
       n_theta=st.integers(0, 2), m=st.integers(0, 1), branch=st.sampled_from(BranchSign),
       convention=st.sampled_from(Convention))
def test_solve_round_trips(tmp_path, A, B, C, K, M, n_r, n_theta, m, branch, convention):
    """A solve row at --precision 17 parses back to solve_energy's E, and
    the same options read from a --config file print the same bytes."""
    req = SolveRequest(params=PotentialParams(K=K, A=A, B=B, C=C), M=M,
                       qn=QuantumNumbers(n_r=n_r, n_theta=n_theta, m=m),
                       symmetry=Symmetry.SPIN, branch=branch, convention=convention)
    try:
        E = solve_energy(req).E
    except RsphoError:
        assume(False)
    options = {"symmetry": "spin", "n": n_r, "ntheta": n_theta, "m": m, "A": A, "B": B,
               "C": C, "K": K, "M": M, "branch": branch.value,
               "convention": convention.value, "precision": 17}
    flags = [token for key, value in options.items() for token in ("--" + key, str(value))]
    code, out, err = run_cli(["solve"] + flags)
    assert (code, err) == (0, "")
    assert float(lines_of(out)[1].split(",")[11]) == E
    path = tmp_path / "solve.conf"
    path.write_text("".join(f"{key} = {value}\n" for key, value in options.items()))
    assert run_cli(["solve", "--config", str(path)]) == (code, out, err)
