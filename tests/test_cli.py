"""End-to-end tests of the command-line interface.

These invoke main() in process and capture the streams directly, so they
exercise exactly what a shell user sees: CSV on stdout, diagnostics on
stderr, and the documented exit codes.
"""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import rspho.cli
from rspho.cli import SOLVE_HEADER, TABLE_HEADER, main
from rspho.errors import RsphoError
from rspho.model import PotentialParams, QuantumNumbers, SolveRequest, Symmetry
from rspho.spectrum import solve_energy

SPIN_ARGS = ["--symmetry", "spin", "--n", "1", "--m", "0", "--A", "6",
             "--B", "-0.05", "--C", "0.005", "--K", "5", "--M", "5"]
PSEUDOSPIN_ARGS = ["--symmetry", "pseudospin", "--n", "1", "--m", "0",
                   "--A", "-5", "--B", "0.5", "--C", "0.005",
                   "--K", "-5", "--M", "3"]


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def lines_of(text):
    return text.splitlines()


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

    def test_pseudospin_eminus_factor_is_domain_error(self):
        code, _, err = run_cli(["wavefunction"] + PSEUDOSPIN_ARGS
                               + ["--mass-factor", "eminus"])
        assert code == 2
        assert "eminus" in err


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

    def test_coarse_grid_fails_verification(self):
        code, out, _ = run_cli(["verify", "--suite", "radial", "--points", "16"])
        assert code == 3
        assert any(row.endswith(",false") for row in lines_of(out)[1:])


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
