"""Tests for the finite-difference verification oracle."""

import math
import re
import warnings

import numpy as np
import pytest

import rspho.oracle as oracle
from rspho.errors import DomainError
from rspho.oracle import (GridSpec, default_angular_grid, default_radial_grid,
                          fd_eigenvalues, verify_angular, verify_radial)


def box_grid(points):
    return GridSpec(lower=0.0, upper=math.pi, points=points)


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


class TestDefaultGrids:
    def test_radial_grid_clears_turning_point(self):
        grid = default_radial_grid(2.0, 1.0, 3)
        assert grid.lower == pytest.approx(1e-6)
        # top level 13 turns at r = sqrt(13); the wall sits 6 lengths beyond
        assert grid.upper == pytest.approx(math.sqrt(13.0) + 6.0)
        assert grid.points == 4000

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

    def test_negative_strength_rejected(self):
        with pytest.raises(DomainError):
            verify_angular(-0.5)

    @pytest.mark.parametrize("v0", [math.nan, math.inf, -math.inf])
    def test_nonfinite_strength_rejected_before_any_grid(self, v0, monkeypatch):
        monkeypatch.setattr(oracle, "default_angular_grid",
                            lambda *a, **k: pytest.fail("a grid was built"))
        with pytest.raises(DomainError, match=rf"^v0 must be finite \(got {v0}\)$"):
            verify_angular(v0)
