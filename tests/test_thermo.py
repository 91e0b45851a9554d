"""Tests for the partition function and derived thermodynamic quantities."""

import math
import re
from dataclasses import replace
from itertools import islice

import pytest

import rspho.thermo as thermo
from rspho.errors import ConvergenceError, DomainError
from rspho.model import PotentialParams, QuantumNumbers
from rspho.thermo import (nonrelativistic_energy, nonrelativistic_levels,
                          partition_function, thermo_point)

REFERENCE_PARAMS = PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
REFERENCE_MU = 5.0


def reference_levels():
    return nonrelativistic_levels(REFERENCE_PARAMS, REFERENCE_MU)


class TestPartitionFunction:
    def test_two_level_value(self):
        z, used = partition_function([0.0, 1.0], beta=1.0)
        assert z == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)
        assert used == 2

    def test_truncation_matches_direct_sum(self):
        levels = [0.3 * n**1.5 for n in range(10_000)]
        direct = sum(math.exp(-level) for level in levels)
        z, used = partition_function(levels, beta=1.0)
        assert z == pytest.approx(direct, rel=1e-13)
        assert used < 100

    def test_generator_input_truncates_early(self):
        z, used = partition_function(reference_levels(), beta=1.0)
        assert z > 0.0
        assert used < 100

    def test_decreasing_in_beta(self):
        z_hot, _ = partition_function(reference_levels(), beta=0.5)
        z_mid, _ = partition_function(reference_levels(), beta=1.0)
        z_cold, _ = partition_function(reference_levels(), beta=2.0)
        assert z_hot > z_mid > z_cold

    def test_rejects_nonpositive_beta(self):
        # At beta = inf every term is exp(-inf*0) = NaN, which never passes
        # the tail test.
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="beta must be positive"):
                partition_function(untouchable_levels(), beta=beta)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(DomainError, match="ascending"):
            partition_function([0.0, 2.0, 1.0], beta=1.0)

    def test_rejects_empty_levels(self):
        with pytest.raises(DomainError, match="empty"):
            partition_function([], beta=1.0)

    def test_slowly_growing_spectrum_fails_tail_test(self):
        levels = (1.0 - 1.0 / (n + 1) for n in range(10**7))
        with pytest.raises(ConvergenceError, match="tail test"):
            thermo._moments(levels, 1.0, 1e-14, max_levels=2000)


def untouchable_levels():
    """A level sequence that fails the test if anything takes a level."""
    raise AssertionError("a level was taken")
    yield


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_tail_tolerance_rejected_before_any_level(tol):
    with pytest.raises(DomainError, match="rel_tail_tol must be positive"):
        partition_function(untouchable_levels(), beta=1.0, rel_tail_tol=tol)
    with pytest.raises(DomainError, match="rel_tail_tol must be positive"):
        thermo_point(untouchable_levels(), T=1.0, rel_tail_tol=tol)


@pytest.mark.parametrize("name", ["T", "k_B"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
def test_nonfinite_temperature_rejected_before_any_level(name, value):
    # An infinite T or k_B makes beta 0, where no truncation of the sum
    # passes the tail test.
    kwargs = dict(T=1.0, k_B=1.0)
    kwargs[name] = value
    with pytest.raises(DomainError, match=f"^{name} must be positive and finite"):
        thermo_point(untouchable_levels(), **kwargs)


@pytest.mark.parametrize("T, k_B, message", [
    (1e200, 1e200, "k_B*T must be positive and finite (got inf)"),
    (1e-200, 1e-200, "k_B*T must be positive and finite (got 0.0)"),
    (1e-160, 1e-150, "beta must be positive and finite (got inf)"),   # 1/subnormal
])
def test_overflowing_temperature_rejected_before_any_level(T, k_B, message):
    with pytest.raises(DomainError) as info:
        thermo_point(untouchable_levels(), T=T, k_B=k_B)
    assert str(info.value) == message


class TestThermoPoint:
    def test_two_level_closed_form(self):
        # beta*eps = ln 3 puts 1/4 of the population in the upper level
        point = thermo_point([0.0, 1.0], T=1.0 / math.log(3.0))
        assert point.U == pytest.approx(0.25, rel=1e-12)
        assert point.C == pytest.approx(3.0 / 16.0 * math.log(3.0) ** 2, rel=1e-12)
        assert point.Z == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert point.levels_used == 2

    def test_low_temperature_limit(self):
        point = thermo_point([0.0, 0.5], T=0.01)
        assert point.S == pytest.approx(0.0, abs=1e-6)
        assert point.U == pytest.approx(0.0, abs=1e-6)
        assert point.C == pytest.approx(0.0, abs=1e-6)

    def test_free_energy_identity(self):
        for T in (0.5, 1.0, 2.5):
            point = thermo_point(reference_levels(), T=T)
            assert abs(point.F - (point.U - T * point.S)) <= 1e-10

    def test_internal_energy_matches_log_derivative(self):
        for T in (0.5, 1.0, 2.5):
            point = thermo_point(reference_levels(), T=T)
            beta = point.beta
            h = 1e-4 * beta
            z_plus, _ = partition_function(reference_levels(), beta + h)
            z_minus, _ = partition_function(reference_levels(), beta - h)
            u_fd = -(math.log(z_plus) - math.log(z_minus)) / (2.0 * h)
            assert abs(point.U - u_fd) <= 1e-6 * max(1.0, abs(point.U))

    def test_heat_capacity_matches_energy_derivative(self):
        for T in (0.5, 1.0, 2.5):
            point = thermo_point(reference_levels(), T=T)
            h = 1e-4 * T
            u_plus = thermo_point(reference_levels(), T + h).U
            u_minus = thermo_point(reference_levels(), T - h).U
            c_fd = (u_plus - u_minus) / (2.0 * h)
            assert abs(point.C - c_fd) <= 1e-6 * max(1.0, abs(point.C))

    def test_entropy_and_capacity_signs(self):
        temps = [0.1 + 0.2 * i for i in range(15)]
        points = [thermo_point(reference_levels(), T=t) for t in temps]
        for a, b in zip(points, points[1:]):
            assert b.S >= a.S - 1e-12
        assert all(p.C >= 0.0 for p in points)

    def test_particle_count_scales_extensives(self):
        single = thermo_point(reference_levels(), T=1.0, N=1)
        triple = thermo_point(reference_levels(), T=1.0, N=3)
        assert triple.F == pytest.approx(3.0 * single.F, rel=1e-12)
        assert triple.S == pytest.approx(3.0 * single.S, rel=1e-12)
        assert triple.U == single.U

    def test_boltzmann_constant_rescales_beta(self):
        point = thermo_point([0.0, 1.0], T=2.0, k_B=0.5)
        assert point.beta == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            thermo_point([0.0, 1.0], T=0.0)
        with pytest.raises(DomainError):
            thermo_point([0.0, 1.0], T=1.0, k_B=0.0)
        with pytest.raises(DomainError):
            thermo_point([0.0, 1.0], T=1.0, N=0)


class TestNonrelativisticLevels:
    def test_matches_single_level_evaluations(self):
        ladder = list(islice(reference_levels(), 6))
        for n, energy in enumerate(ladder):
            expected = nonrelativistic_energy(REFERENCE_PARAMS, REFERENCE_MU,
                                              QuantumNumbers(n_r=n))
            assert energy == expected

    def test_strictly_ascending(self):
        ladder = list(islice(reference_levels(), 40))
        assert all(a < b for a, b in zip(ladder, ladder[1:]))

    def test_azimuthal_number_shifts_ladder(self):
        base = list(islice(nonrelativistic_levels(REFERENCE_PARAMS,
                                                  REFERENCE_MU, m=0), 4))
        shifted = list(islice(nonrelativistic_levels(REFERENCE_PARAMS,
                                                     REFERENCE_MU, m=1), 4))
        assert all(s != b for s, b in zip(shifted, base))

    @pytest.mark.parametrize("name, value", [
        ("K", math.nan), ("K", math.inf), ("A", math.nan), ("A", -math.inf),
        ("B", math.inf), ("C", math.nan), ("mu", math.nan), ("mu", math.inf),
    ])
    def test_nonfinite_input_fails_at_the_first_level(self, name, value, monkeypatch):
        # A NaN or infinite level would make the sum run to its level cap.
        mu = value if name == "mu" else REFERENCE_MU
        params = (REFERENCE_PARAMS if name == "mu"
                  else replace(REFERENCE_PARAMS, **{name: value}))
        message = f"{name} must be finite (got {value})"
        with pytest.raises(DomainError, match=re.escape(message)):
            nonrelativistic_energy(params, mu, QuantumNumbers(n_r=0))
        taken = []
        level = thermo.nonrelativistic_energy
        monkeypatch.setattr(thermo, "nonrelativistic_energy",
                            lambda *args: taken.append(args[2].n_r) or level(*args))
        with pytest.raises(DomainError, match=re.escape(message)):
            thermo_point(nonrelativistic_levels(params, mu), T=1.0)
        assert taken == [0]


class TestCachedLevels:
    def test_replays_and_computes_each_level_once(self):
        calls = []
        ladder = thermo.CachedLevels(lambda n: calls.append(n) or 0.5 * n)
        assert list(islice(ladder, 3)) == [0.0, 0.5, 1.0]
        assert list(islice(ladder, 5)) == [0.0, 0.5, 1.0, 1.5, 2.0]
        assert list(islice(ladder, 2)) == [0.0, 0.5]
        assert calls == [0, 1, 2, 3, 4]

    def test_failing_level_raises_on_every_pass(self):
        def level(n):
            if n == 2:
                raise DomainError("level 2 is undefined")
            return float(n)
        ladder = thermo.CachedLevels(level)
        for _ in range(2):
            with pytest.raises(DomainError, match="level 2"):
                list(islice(ladder, 3))
        assert list(islice(ladder, 2)) == [0.0, 1.0]

    def test_sums_over_a_shared_ladder_match_fresh_ladders(self):
        ladder = thermo.nonrelativistic_ladder(REFERENCE_PARAMS, REFERENCE_MU)
        for T in (5.0, 0.1, 2.0, 30.0):
            assert thermo_point(ladder, T) == thermo_point(reference_levels(), T)
