"""Tests for the finite-difference verification oracle."""

import io
import math
import re
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rspho.oracle as oracle
from rspho.cli import main
from rspho.errors import DomainError
from rspho.oracle import (GridSpec, default_angular_grid, default_radial_grid,
                          fd_eigenvalues, verify_angular, verify_radial)
from rspho.radial import radial_spectrum


def box_grid(points):
    return GridSpec(lower=0.0, upper=math.pi, points=points)


def tridiagonal(potential, grid):
    """The finite-difference matrix of -u'' + V u, built as fd_eigenvalues
    documents it: diagonal 2/h^2 + V(x_i), off-diagonal -1/h^2."""
    h2 = grid.h**2
    return (2.0 / h2 + potential(grid.interior()),
            np.full(grid.points - 1, -1.0 / h2))


def bisection(diag, off, count):
    return scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True,
                                         select="i", select_range=(0, count - 1))


def gershgorin_norm(diag, off):
    """The larger Gershgorin bound of the matrix in size: LAPACK's |T|."""
    radius = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    return max(abs(float(np.min(diag - radius))), abs(float(np.max(diag + radius))))


def double_well(x):
    return 4.0 * (x**2 - 2.5**2) ** 2


class TestGridSpec:
    def test_h_and_interior(self):
        g = GridSpec(lower=0.0, upper=1.0, points=99)
        assert g.h == pytest.approx(0.01)
        x = g.interior()
        assert x.shape == (99,)
        assert x[0] == pytest.approx(0.01)
        assert x[-1] == pytest.approx(0.99)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            GridSpec(lower=2.0, upper=1.0, points=100)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            GridSpec(lower=0.0, upper=1.0, points=15)

    @pytest.mark.parametrize("points", [100.5, 100.0])
    def test_rejects_points_that_are_not_integers(self, points):
        with pytest.raises(ValueError, match=re.escape(f"points must be an integer (got {points})")):
            GridSpec(lower=0.0, upper=1.0, points=points)

    def test_accepts_a_numpy_integer(self):
        assert GridSpec(lower=0.0, upper=1.0, points=np.int64(100)).interior().shape == (100,)

    def test_rejects_a_bool(self):
        with pytest.raises(ValueError, match=re.escape("points must be >= 16 (got True)")):
            GridSpec(lower=0.0, upper=1.0, points=True)


class TestFdEigenvalues:
    def test_particle_in_a_box(self):
        # -u'' = E u on (0, pi) has eigenvalues 1, 4, 9, ...
        vals = fd_eigenvalues(lambda x: 0.0 * x, box_grid(2000), 3)
        for computed, exact in zip(vals, (1.0, 4.0, 9.0)):
            assert abs(computed - exact) / exact < 1e-3

    def test_second_order_convergence(self):
        # doubling the interior point count quarters the eigenvalue error
        coarse = fd_eigenvalues(lambda x: 0.0 * x, box_grid(2000), 3)[2]
        fine = fd_eigenvalues(lambda x: 0.0 * x, box_grid(4000), 3)[2]
        ratio = abs(coarse - 9.0) / abs(fine - 9.0)
        assert 3.0 < ratio < 5.0

    def test_radial_oscillator_ladder(self):
        # V = 2/r^2 + r^2 has levels 4n + 5 (scale 1, strength 2)
        grid = GridSpec(lower=1e-6, upper=12.0, points=4000)
        vals = fd_eigenvalues(lambda r: 2.0 / r**2 + r**2, grid, 3)
        for computed, exact in zip(vals, (5.0, 9.0, 13.0)):
            assert abs(computed - exact) / exact < 1e-3

    def test_eigenvalues_strictly_ascending(self):
        vals = fd_eigenvalues(lambda x: 0.0 * x, box_grid(2000), 6)
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_count_too_small(self):
        with pytest.raises(ValueError):
            fd_eigenvalues(lambda x: 0.0 * x, box_grid(2000), 0)

    def test_count_exceeds_grid_budget(self):
        with pytest.raises(ValueError, match="too large"):
            fd_eigenvalues(lambda x: 0.0 * x, box_grid(100), 26)

    @pytest.mark.parametrize("potential, shape", [
        (lambda x: 0.0, "()"), (lambda x: np.zeros(3), "(3,)"),
        (lambda x: np.zeros((100, 1)), "(100, 1)")], ids=["scalar", "short", "column"])
    def test_potential_of_another_shape_rejected(self, potential, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"potential must return one value per grid point: got shape {shape} "
                "for grid points of shape (100,)")):
            fd_eigenvalues(potential, GridSpec(0.0, 3.14159, 100), 3)

    def test_nonfinite_potential_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            fd_eigenvalues(lambda x: np.where(x < 1.0, np.inf, 0.0),
                           GridSpec(0.5, 2.0, 64), 3)

    @pytest.mark.parametrize("grid", [
        GridSpec(0.0, 1e-160, 100),     # h^2 underflows to 0
        GridSpec(0.0, 1e-152, 100),     # h^2 is subnormal and 2/h^2 overflows
        GridSpec(0.0, 1e160, 100),      # h^2 overflows
    ], ids=["h2-zero", "h2-subnormal", "h2-overflow"])
    def test_grid_step_outside_the_float_range_rejected(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(
                    f"grid step h = {grid.h!r} makes h^2 or 2/h^2 overflow")):
                fd_eigenvalues(lambda x: 0.0 * x, grid, 3)

    def test_overflowing_diagonal_rejected(self):
        grid = GridSpec(0.0, 1.5e-152, 100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"diagonal 2/h\^2 \+ V overflows at x = "):
                fd_eigenvalues(lambda x: 0.0 * x + 1.7e308, grid, 3)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(points=st.integers(16, 4000), lower=st.floats(-10.0, 10.0),
       width=st.floats(0.5, 20.0), symmetric=st.booleans(),
       coefficients=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5),
       count=st.integers(1, 3))
# A coarse grid whose three levels spread over much of its spectrum: the
# Lanczos values would miss bisection's by up to 5 eps*|T|.
@example(points=16, lower=0.0, width=8.0, symmetric=False,
         coefficients=[0.0, 0.0, 0.0, -788.5], count=3)
# A check at which a Ritz value is not yet above its residual bound, so
# no bound holds: the steps go on.
@example(points=245, lower=0.0, width=9.0, symmetric=True,
         coefficients=[0.0, -286.0, 281.0], count=3)
def test_fd_eigenvalues_agree_with_bisection(points, lower, width, symmetric,
                                             coefficients, count):
    """Smooth potentials of either sign: a polynomial in the grid's own
    coordinate y in (-1, 1), even in y where ``symmetric`` (so half the
    eigenvectors are odd).  count <= 3 <= points/4."""
    grid = GridSpec(lower=lower, upper=lower + width, points=points)
    middle = lower + 0.5 * width

    def potential(x):
        y = (x - middle) / (0.5 * width)
        return sum(c * y ** (2 * j if symmetric else j)
                   for j, c in enumerate(coefficients))

    diag, off = tridiagonal(potential, grid)
    expected = bisection(diag, off, count)
    computed = fd_eigenvalues(potential, grid, count)
    tolerance = 4.0 * 2.0**-52 * gershgorin_norm(diag, off)
    assert np.all(np.abs(np.array(computed) - expected) <= tolerance)


class TestEighTridiagonal:
    @pytest.mark.parametrize("potential, grid", [
        (lambda r: 239.36660968 / r**2 + 9.845090690288231**2 * r**2,
         default_radial_grid(239.36660968, 9.845090690288231, 3)),
        (lambda t: 12.0 / np.tan(t) ** 2, default_angular_grid()),
        # the levels certify only once the steps span all 16 dimensions
        (lambda r: 2.0 / r**2 + 9.0 * r**2, default_radial_grid(2.0, 3.0, 3, points=16)),
        # five points a period: one orthogonalization pass a step loses
        # orthogonality here, and never certifies
        (lambda x: 1000.0 * np.cos(40.0 * x), GridSpec(-1.0, 1.0, 64)),
    ], ids=["radial", "angular", "whole-space", "rough"])
    def test_certified_without_bisection(self, potential, grid, monkeypatch):
        diag, off = tridiagonal(potential, grid)
        expected = bisection(diag, off, 3)
        monkeypatch.setattr(oracle, "_bisection",
                            lambda *args: pytest.fail("bisection was called"))
        computed = oracle.eigh_tridiagonal(diag, off, 3)
        tolerance = 4.0 * 2.0**-52 * gershgorin_norm(diag, off)
        assert np.all(np.abs(computed - expected) <= tolerance)

    @pytest.mark.parametrize("potential, grid", [
        (lambda r: 239.36660968 / r**2 + 9.845090690288231**2 * r**2,
         default_radial_grid(239.36660968, 9.845090690288231, 3)),
        (lambda t: 12.0 / np.tan(t) ** 2, default_angular_grid()),
    ], ids=["radial", "angular"])
    def test_default_grids_certify_in_few_steps(self, potential, grid, monkeypatch):
        calls = {"dpttrs": 0, "dstev": 0}
        for name in calls:
            kernel = getattr(scipy.linalg.lapack, name)

            def counted(*args, name=name, kernel=kernel, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            monkeypatch.setattr(scipy.linalg.lapack, name, counted)
        monkeypatch.setattr(oracle, "_bisection",
                            lambda *args: pytest.fail("bisection was called"))
        oracle.eigh_tridiagonal(*tridiagonal(potential, grid), 3)
        assert calls["dpttrs"] <= 13
        assert calls["dstev"] <= 3

    def test_a_sturm_count_above_the_levels_falls_back_to_bisection(self, monkeypatch):
        diag, off = tridiagonal(lambda r: 2.0 / r**2 + 9.0 * r**2,
                                default_radial_grid(2.0, 3.0, 3))
        dstebz = scipy.linalg.lapack.dstebz

        def one_more(*args):
            found, *rest = dstebz(*args)
            return (found + 1, *rest)
        monkeypatch.setattr(scipy.linalg.lapack, "dstebz", one_more)
        calls = []
        fallback = oracle._bisection
        monkeypatch.setattr(oracle, "_bisection",
                            lambda *args: calls.append(args) or fallback(*args))
        computed = oracle.eigh_tridiagonal(diag, off, 3)
        assert len(calls) == 1
        assert computed.tobytes() == bisection(diag, off, 3).tobytes()

    @pytest.mark.parametrize("picked, certified", [
        ([0, 1, 2], True),
        ([0, 0, 2], False),     # two intervals on one level: not disjoint
        ([0, 2], False),        # a level skipped: the Sturm count finds 3
        ([0, 1, 3], False),     # the top interval reaches past xi
    ], ids=["lowest", "repeated", "skipped", "beyond-xi"])
    def test_certificate(self, picked, certified):
        diag, off = tridiagonal(lambda r: 2.0 / r**2 + 9.0 * r**2,
                                default_radial_grid(2.0, 3.0, 3))
        levels = bisection(diag, off, 4)
        values = levels[picked]
        radius = np.full(len(picked), 1e-6)
        result = oracle._certified(diag, off, len(picked), levels[0] - 1.0,
                                   0.5 * (levels[2] + levels[3]), values, radius)
        assert (result is values) == certified

    def test_near_degenerate_pair_falls_back_to_bisection(self, monkeypatch):
        # The two lowest levels of a symmetric double well differ by less
        # than eps*|T|: Lanczos cannot tell them apart, bisection gives
        # the same value twice.
        grid = GridSpec(lower=-6.0, upper=6.0, points=4000)
        diag, off = tridiagonal(double_well, grid)
        calls = []
        fallback = oracle._bisection
        monkeypatch.setattr(oracle, "_bisection",
                            lambda *args: calls.append(args) or fallback(*args))
        computed = fd_eigenvalues(double_well, grid, 3)
        assert len(calls) == 1
        assert computed == [float(e) for e in bisection(diag, off, 3)]
        assert computed[0] == computed[1] == pytest.approx(9.91844473, abs=1e-8)

    @pytest.mark.parametrize("exponent", [-1000, -60, 60, 1000])
    def test_scaling_by_a_power_of_two_scales_the_values_exactly(self, exponent):
        grid = default_radial_grid(2.0, 3.0, 3)
        diag, off = tridiagonal(lambda r: 2.0 / r**2 + 9.0 * r**2, grid)
        base = oracle.eigh_tridiagonal(diag, off, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = oracle.eigh_tridiagonal(np.ldexp(diag, exponent),
                                             np.ldexp(off, exponent), 3)
        assert scaled.tobytes() == np.ldexp(base, exponent).tobytes()


class TestDefaultGrids:
    def test_radial_grid_clears_turning_point(self):
        grid = default_radial_grid(2.0, 1.0, 3)
        assert grid.lower == pytest.approx(1e-6)
        # top level 13 turns at r = sqrt(13); the wall sits 6 lengths beyond
        assert grid.upper == pytest.approx(math.sqrt(13.0) + 6.0)
        assert grid.points == 4000

    @pytest.mark.parametrize("big_delta, lower", [
        # 1e-6 up to big_delta = 1e4, so those grids are as they were
        (0.5, 1e-6), (12.0, 1e-6), (1e4, 1e-6),
        # then 1e-4 oscillator lengths 1/sqrt(big_delta)
        (1e8, 1e-8), (1e12, 1e-10), (1e100, 1e-54)])
    def test_radial_grid_lower_end(self, big_delta, lower):
        assert default_radial_grid(2.0, big_delta, 3).lower == lower

    @pytest.mark.parametrize("delta_prime, big_delta, r_max, lower", [
        (0.0, 1e308, "inf", "1e-158"),                      # Et_max overflows by big_delta
        (1e300, 1e200, "inf", "1.0000000000000001e-104"),   # and by delta_prime
    ])
    def test_radial_grid_end_must_be_finite_and_above_the_lower_end(
            self, delta_prime, big_delta, r_max, lower):
        with pytest.raises(DomainError, match=re.escape(
                f"radial grid end r_max = {r_max} must be finite and above the "
                f"lower end {lower} (delta_prime = {delta_prime}, "
                f"big_delta = {big_delta})")):
            default_radial_grid(delta_prime, big_delta, 3)

    def test_angular_grid_straddles_the_open_interval(self):
        grid = default_angular_grid(points=1000)
        assert 0.0 < grid.lower < grid.upper < math.pi
        assert grid.points == 1000


class TestVerifyRadial:
    def test_simple_case_converges(self):
        report = verify_radial(2.0, 3.0)
        assert report.converged
        assert report.max_rel_error < 1e-3
        assert report.predicted == pytest.approx([15.0, 27.0, 39.0])
        assert report.predicted_printed is None

    def test_zero_strength_case(self):
        report = verify_radial(0.0, 1.0)
        assert report.converged
        assert report.predicted == pytest.approx([3.0, 7.0, 11.0])

    def test_reference_scale_case(self):
        # the self-consistent point of the lowest spin-side bound state
        report = verify_radial(239.36660968, 9.845090690288231, count=2)
        assert report.converged

    @pytest.mark.parametrize("points", [16, 100, 4000])
    def test_grid_is_the_default_radial_grid(self, points):
        report = verify_radial(2.0, 3.0, points=points)
        assert report.grid == default_radial_grid(2.0, 3.0, 3, points=points)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected_before_any_grid(self, count, monkeypatch):
        monkeypatch.setattr(oracle, "default_radial_grid",
                            lambda *a, **k: pytest.fail("a grid was built"))
        with pytest.raises(ValueError, match=re.escape(f"count must be >= 1 (got {count})")):
            verify_radial(2.0, 1.0, count=count)

    def test_negative_strength_rejected(self):
        with pytest.raises(DomainError):
            verify_radial(-1.0, 1.0)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            verify_radial(2.0, 0.0)

    @pytest.mark.parametrize("name, args", [
        ("big_delta", (2.0, math.nan)), ("big_delta", (2.0, math.inf)),
        ("delta_prime", (math.inf, 2.0)), ("delta_prime", (math.nan, 2.0)),
        ("delta_prime", (-math.inf, 2.0)),
    ])
    def test_nonfinite_input_rejected_before_any_grid(self, name, args, monkeypatch):
        monkeypatch.setattr(oracle, "default_radial_grid",
                            lambda *a, **k: pytest.fail("a grid was built"))
        value = args[0] if name == "delta_prime" else args[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} must be finite "
                                                  rf"\(got {value}\)$"):
                verify_radial(*args)

    @pytest.mark.parametrize("big_delta", [1e8, 1e12, 1e150])
    def test_stiff_oscillator_converges(self, big_delta):
        report = verify_radial(0.0, big_delta)
        assert report.converged
        assert report.max_rel_error < 1e-4

    @pytest.mark.parametrize("big_delta, message", [
        # big_delta^2 overflows before any grid is built
        (1e200, "big_delta^2 overflows (big_delta = 1e+200)"),
        # big_delta^2 underflows to 0 and r^2 overflows: 0*inf is NaN
        (5e-324, "potential evaluates non-finite at x = "),
    ])
    def test_extreme_finite_scale_is_a_domain_error(self, big_delta, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(message)):
                verify_radial(0.0, big_delta)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(delta_prime=st.floats(0.0, 300.0), big_delta=st.floats(0.5, 12.0))
def test_radial_ladder_matches_the_oracle(delta_prime, big_delta):
    report = verify_radial(delta_prime, big_delta)
    assert report.converged, report


@settings(derandomize=True, deadline=None, max_examples=40)
@given(delta_prime=st.floats(0.0, 300.0), big_delta=st.floats(0.5, 12.0),
       n=st.integers(0, 2))
def test_radial_spectrum_is_the_oracle_ladder(delta_prime, big_delta, n):
    """The shape-invariance ladder at delta = -1/2 - sqrt(1/4 + delta'), the
    root of delta^2 + delta = delta' that radial_spectrum takes, is the
    closed form to a few ulps and the FD level to the oracle's gate."""
    root = math.sqrt(0.25 + delta_prime)
    ladder = radial_spectrum(big_delta, -0.5 - root, n)
    closed_form = 2.0 * big_delta * (2.0 * n + 1.0 + root)
    assert abs(ladder - closed_form) <= 4.0 * math.ulp(closed_form)
    computed = verify_radial(delta_prime, big_delta).computed[n]
    assert abs(computed - ladder) <= 1e-3 * ladder


class TestVerifyAngular:
    def test_integer_case_converges(self):
        report = verify_angular(2.0)
        assert report.converged
        assert report.predicted == pytest.approx([2.0, 7.0, 14.0])
        assert report.predicted_printed == pytest.approx([4.0, 9.0, 16.0])

    def test_operator_rejects_perfect_square_form(self):
        report = verify_angular(2.0)
        closest = min(abs(c - p) / p for c, p in
                      zip(report.computed, report.predicted_printed))
        assert closest > 0.10

    @pytest.mark.parametrize("points", [16, 100, 4000])
    def test_grid_is_the_default_angular_grid(self, points):
        assert verify_angular(2.0, points=points).grid == default_angular_grid(points)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        with pytest.raises(ValueError, match=re.escape(f"count must be >= 1 (got {count})")):
            verify_angular(2.0, count=count)

    def test_negative_strength_rejected(self):
        with pytest.raises(DomainError):
            verify_angular(-0.5)

    @pytest.mark.parametrize("v0", [math.nan, math.inf, -math.inf])
    def test_nonfinite_strength_rejected_before_any_grid(self, v0, monkeypatch):
        monkeypatch.setattr(oracle, "default_angular_grid",
                            lambda *a, **k: pytest.fail("a grid was built"))
        with pytest.raises(DomainError, match=rf"^v0 must be finite \(got {v0}\)$"):
            verify_angular(v0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(v0=st.floats(0.0, 20.0))
def test_angular_sum_form_matches_the_oracle(v0):
    report = verify_angular(v0)
    assert report.converged, report


class TestVerifyChecksTheLibrary:
    """verify predicts with the library's closed forms, so a fault in them
    is a fault that verify reports: with a level 1% off, every case fails."""

    @staticmethod
    def verify_rows(suite):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["verify", "--suite", suite, "--points", "400"])
        return code, [row.rsplit(",", 1)[-1] for row in out.getvalue().splitlines()[1:]]

    def test_a_wrong_radial_ladder_fails_verify(self, monkeypatch):
        true_spectrum = oracle.radial_spectrum
        monkeypatch.setattr(oracle, "radial_spectrum",
                            lambda *args: 1.01 * true_spectrum(*args))
        assert not verify_radial(2.0, 3.0).converged
        assert self.verify_rows("radial") == (3, ["false"] * 12)

    def test_a_wrong_angular_form_fails_verify(self, monkeypatch):
        true_spectrum = oracle.angular_spectrum
        monkeypatch.setattr(oracle, "angular_spectrum",
                            lambda *args: tuple(1.01 * e for e in true_spectrum(*args)))
        assert not verify_angular(2.0).converged
        assert self.verify_rows("angular") == (3, ["false"] * 9)


def certify_in_few_steps(verify):
    """Run ``verify`` and check its one eigh_tridiagonal call: certified
    without bisection, within 4 eps*|T| of bisection, in at most 14 solves
    (dpttrs) and 3 Ritz checks (dstev).  Radial levels take 14 solves
    where delta' is below about 2.35 and 13 above it, angular ones 10-11."""
    calls = {"dpttrs": 0, "dstev": 0}
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            kernel = getattr(scipy.linalg.lapack, name)

            def counted(*args, name=name, kernel=kernel, **kwargs):
                calls[name] += 1
                return kernel(*args, **kwargs)
            mp.setattr(scipy.linalg.lapack, name, counted)
        mp.setattr(oracle, "_bisection", lambda *args: pytest.fail("bisection was called"))
        seam = oracle.eigh_tridiagonal

        def recorded(diag, off, count):
            values = seam(diag, off, count)
            seen.append((diag, off, values))
            return values
        mp.setattr(oracle, "eigh_tridiagonal", recorded)
        report = verify()
    [(diag, off, values)] = seen
    tolerance = 4.0 * 2.0**-52 * gershgorin_norm(diag, off)
    assert np.all(np.abs(values - bisection(diag, off, 3)) <= tolerance)
    assert report.computed == values.tolist()
    assert calls["dpttrs"] <= 14
    assert calls["dstev"] <= 3


# The ranges of the benchmark's verify inputs on the default grids.
@settings(derandomize=True, deadline=None, max_examples=25)
@given(delta_prime=st.floats(0.0, 300.0), big_delta=st.floats(0.5, 12.0))
def test_radial_verify_inputs_certify_in_few_steps(delta_prime, big_delta):
    certify_in_few_steps(lambda: verify_radial(delta_prime, big_delta))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(v0=st.floats(0.0, 20.0))
def test_angular_verify_inputs_certify_in_few_steps(v0):
    certify_in_few_steps(lambda: verify_angular(v0))
