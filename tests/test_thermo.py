"""Tests for the partition function and derived thermodynamic quantities."""

import math
import re
import sys
from decimal import Decimal, localcontext
from itertools import islice

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rspho.thermo as thermo
from rspho.angular import angular_level, q_of_vtilde
from rspho.errors import ConvergenceError, DomainError
from rspho.model import BranchSign, Convention, PotentialParams, QuantumNumbers
from rspho.thermo import nonrelativistic_energy, nonrelativistic_levels, thermo_point

REFERENCE_PARAMS = PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
REFERENCE_MU = 5.0


def reference_levels():
    return nonrelativistic_levels(REFERENCE_PARAMS, REFERENCE_MU)


class TestPartitionFunction:
    """Z and the level count of thermo_point, the truncated sum at T = 1/beta
    (k_B = 1), and the guards of the moment sums under it."""

    def test_two_level_value(self):
        point = thermo_point([0.0, 1.0], T=1.0)
        assert point.Z == pytest.approx(1.0 + math.exp(-1.0), rel=1e-15)
        assert point.levels_used == 2

    def test_truncation_matches_direct_sum(self):
        levels = [0.3 * n**1.5 for n in range(10_000)]
        direct = sum(math.exp(-level) for level in levels)
        point = thermo_point(levels, T=1.0)
        assert point.Z == pytest.approx(direct, rel=1e-13)
        assert point.levels_used < 100

    def test_generator_input_truncates_early(self):
        point = thermo_point(reference_levels(), T=1.0)
        assert point.Z > 0.0
        assert point.levels_used < 100

    def test_decreasing_in_beta(self):
        z_hot = thermo_point(reference_levels(), T=2.0).Z
        z_mid = thermo_point(reference_levels(), T=1.0).Z
        z_cold = thermo_point(reference_levels(), T=0.5).Z
        assert z_hot > z_mid > z_cold

    def test_rejects_nonpositive_beta(self):
        # At beta = inf every term is exp(-inf*0) = NaN, which never passes
        # the tail test.  thermo_point reaches this guard only at a
        # subnormal k_B*T (test_overflowing_temperature_rejected_before_any_level).
        for beta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="beta must be positive"):
                thermo._moments(untouchable_levels(), beta, 1e-14)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(DomainError, match=re.escape(
                "levels must be strictly ascending (got 1.0 after 2.0)")):
            thermo_point([0.0, 2.0, 1.0], T=1.0)

    def test_rejects_equal_neighbouring_levels(self):
        with pytest.raises(DomainError, match=re.escape(
                "levels 1 and 2 are both 1.0: a degenerate spectrum, or a level "
                "spacing lost to rounding")):
            thermo_point([0.0, 1.0, 1.0], T=1.0)

    def test_rejects_empty_levels(self):
        with pytest.raises(DomainError, match="empty"):
            thermo_point([], T=1.0)

    def test_slowly_growing_spectrum_fails_tail_test(self, monkeypatch):
        monkeypatch.setattr(thermo, "_MAX_LEVELS", 2000)
        levels = (1.0 - 1.0 / (n + 1) for n in range(10**7))
        with pytest.raises(ConvergenceError, match="tail test after 2000 levels"):
            thermo._moments(levels, 1.0, 1e-14)


def untouchable_levels():
    """A level sequence that fails the test if anything takes a level."""
    raise AssertionError("a level was taken")
    yield


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_nonpositive_tail_tolerance_rejected_before_any_level(tol):
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


@pytest.mark.parametrize("T, k_B", [(1e-160, 1.0), (1.0, 1e-300)])
def test_point_where_beta_squared_overflows_is_the_ground_level(T, k_B):
    # beta**2 overflows below k_B*T of about 7.5e-155, and every excited
    # Boltzmann term underflows, as it already does at T = 1e-3.
    e0 = next(reference_levels())
    point = thermo_point(reference_levels(), T=T, k_B=k_B)
    assert (point.Z, point.F, point.U, point.S, point.C) == (0.0, e0, e0, 0.0, 0.0)


def test_capacity_where_beta_squared_overflows():
    # Two levels 1e-160 apart at beta*eps = 1: C = e/(1 + e)^2.  beta^2
    # overflows and eps^2 is subnormal, but (beta*eps)^2 = 1 is neither.
    point = thermo_point([0.0, 1e-160], T=1e-160)
    assert point.C == pytest.approx(math.e / (1.0 + math.e) ** 2, rel=1e-12)


def test_partition_function_beyond_the_float_range():
    # beta*E0 = -1000: Z = exp(1000) is inf, and every other field is the
    # ground level's, the excited weight exp(-1000) being 0.
    point = thermo_point([-1.0, 0.0], T=1e-3)
    assert (point.Z, point.F, point.U, point.S, point.C) == (math.inf, -1.0, -1.0, 0.0, 0.0)


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
            z_plus = thermo_point(reference_levels(), T=1.0 / (beta + h)).Z
            z_minus = thermo_point(reference_levels(), T=1.0 / (beta - h)).Z
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


class TestNonrelativisticEnergy:
    def test_zero_coupling_closed_form(self):
        # bracket = 2n + 1 + sqrt(1/4 + lambda_NR) = 1 + sqrt(1.20710678...)
        params = PotentialParams(K=2.0, A=0.0, B=0.0, C=0.0)
        e = nonrelativistic_energy(params, 4.0, QuantumNumbers(n_r=0),
                                   convention=Convention.EQUATION_CONSISTENT)
        # sqrt(2K/mu) = 1 here, so the value is the bracket itself
        assert e == pytest.approx(2.0986841134678098, abs=1e-12)

    def test_table_convention_halves(self):
        params = PotentialParams(K=2.0, A=0.0, B=0.0, C=0.0)
        e1 = nonrelativistic_energy(params, 4.0, QuantumNumbers(n_r=0),
                                    convention=Convention.TABLE_CONSISTENT)
        e2 = nonrelativistic_energy(params, 4.0, QuantumNumbers(n_r=0),
                                    convention=Convention.EQUATION_CONSISTENT)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-14)

    def test_reference_set_is_finite_positive(self):
        params = PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
        e = nonrelativistic_energy(params, 5.0, QuantumNumbers(n_r=1))
        assert math.isfinite(e) and e > 0.0

    def test_radicand_failure(self):
        params = PotentialParams(K=2.0, A=0.0, B=1.0, C=0.0)
        with pytest.raises(DomainError):
            nonrelativistic_energy(params, 1.0, QuantumNumbers(n_r=0))

    def test_nonpositive_mass_rejected(self):
        params = PotentialParams(K=2.0, A=0.0, B=0.0, C=0.0)
        with pytest.raises(DomainError):
            nonrelativistic_energy(params, 0.0, QuantumNumbers(n_r=0))

    def test_negative_k_rejected(self):
        params = PotentialParams(K=-2.0, A=0.0, B=0.0, C=0.0)
        with pytest.raises(DomainError, match="K > 0"):
            nonrelativistic_energy(params, 1.0, QuantumNumbers(n_r=0))


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
    def test_nonfinite_input_fails_at_the_first_level(self, name, value, record_levels):
        # A NaN or infinite level would make the sum run to its level cap.
        mu = value if name == "mu" else REFERENCE_MU
        params = (REFERENCE_PARAMS if name == "mu"
                  else PotentialParams(**{"K": 5.0, "A": 6.0, "B": -0.05, "C": 0.005, name: value}))
        message = f"{name} must be finite (got {value})"
        with pytest.raises(DomainError, match=re.escape(message)):
            nonrelativistic_energy(params, mu, QuantumNumbers(n_r=0))
        taken = record_levels()
        with pytest.raises(DomainError, match=re.escape(message)):
            thermo_point(nonrelativistic_levels(params, mu), T=1.0)
        assert taken == []      # the first next() checks the inputs, before level 0

    def test_terms_are_computed_once_per_ladder(self, monkeypatch):
        expected = list(islice(reference_levels(), 12))
        prepared = []
        terms = thermo._ladder_terms
        monkeypatch.setattr(thermo, "_ladder_terms",
                            lambda *args: prepared.append(args) or terms(*args))
        assert list(islice(reference_levels(), 12)) == expected
        assert len(prepared) == 1
        for T in (5.0, 0.1, 2.0):
            thermo_point(reference_levels(), T)
        assert len(prepared) == 4

    @pytest.mark.parametrize("params, mu, message", [
        (PotentialParams(K=1e308, A=1e308, B=-0.05, C=0.005), 5.0,
         "(c/2)*sqrt(2K/mu) = inf, 1/4 + 4*A*mu + lambda = inf"),
        (REFERENCE_PARAMS, 1e-310, "(c/2)*sqrt(2K/mu) = inf"),
        (PotentialParams(K=5.0, A=1e308, B=-0.05, C=0.005), 5.0,
         "1/4 + 4*A*mu + lambda = inf"),
    ])
    def test_overflowing_ladder_fails_at_the_first_level(self, params, mu, message,
                                                         record_levels):
        # Each input is finite, but a term of level 0 overflows.
        expected = "oscillator-limit energy overflows at n_r = 0, n_theta = 0: "
        with pytest.raises(DomainError, match=re.escape(expected)) as info:
            nonrelativistic_energy(params, mu, QuantumNumbers(n_r=0))
        assert message in str(info.value)
        taken = record_levels()
        with pytest.raises(DomainError, match=re.escape(str(info.value))):
            thermo_point(nonrelativistic_levels(params, mu), T=1.0)
        assert taken == [0]

    @pytest.mark.parametrize("b_plus_c", [1e308, -1e308])
    def test_overflowing_ring_coupling_is_named(self, b_plus_c):
        params = PotentialParams(K=5.0, A=6.0, B=b_plus_c, C=b_plus_c)
        w = math.copysign(math.inf, b_plus_c)
        message = f"ring coupling overflows: w = 4*mu*(B+C) = {w}"
        with pytest.raises(DomainError, match=re.escape(message)):
            nonrelativistic_energy(params, REFERENCE_MU, QuantumNumbers(n_r=0))
        with pytest.raises(DomainError, match=re.escape(message)):
            thermo_point(nonrelativistic_levels(params, REFERENCE_MU), T=1.0)

    def test_separation_root_that_swamps_n_theta_is_named(self, record_levels):
        # w = 4*mu*(B+C) = -1.8e299 and 4*A*mu = 2.4e301: beside them
        # 2n + 1 is lost, and every level rounds to the same value.
        level = nonrelativistic_energy(REFERENCE_PARAMS, 1e300, QuantumNumbers(n_r=0))
        assert level == 7.745966692414835
        taken = record_levels()
        with pytest.raises(DomainError, match=re.escape(
                "levels 0 and 1 are both 7.745966692414835: a degenerate spectrum, "
                "or a level spacing lost to rounding")):
            thermo_point(nonrelativistic_levels(REFERENCE_PARAMS, 1e300), T=1.0)
        assert taken == [0, 1]

    def test_separation_root_above_2_to_the_26_keeps_its_precision(self):
        # With mu = 1 and C = 0, w = 4B: 1/2 - w = 2^52 + 2^30 gives a root
        # just above 2^26, where the sum form of lambda keeps its bits.
        params = PotentialParams(K=5.0, A=6.0, B=(0.5 - 2.0**52 - 2.0**30) / 4.0, C=0.0)
        assert math.sqrt(0.5 - 4.0 * params.B) > 2.0**26
        levels = list(islice(nonrelativistic_levels(params, 1.0), 40))
        assert all(a < b for a, b in zip(levels, levels[1:]))
        with localcontext() as ctx:
            ctx.prec = 50
            A, B, K = (Decimal(v) for v in (params.A, params.B, params.K))
            q = Decimal(0.5) + (Decimal(0.5) - 4 * B).sqrt()
            for n, level in enumerate(levels):
                lam = n * n + 2 * n * q + q - Decimal(0.25)
                exact = (2 * K).sqrt() / 2 * (2 * n + 1 + (Decimal(0.25) + 4 * A + lam).sqrt())
                assert abs(Decimal(level) - exact) <= Decimal(4.0 * math.ulp(level))

    def test_energy_overflows_at_the_level_that_overflows(self):
        # (c/2)*sqrt(2K/mu) = 1e150: finite up to n_r near 1e158.
        params = PotentialParams(K=2e300, A=6.0, B=-0.05, C=0.005)
        assert math.isfinite(nonrelativistic_energy(params, 1.0,
                                                    QuantumNumbers(n_r=10**157, n_theta=0)))
        with pytest.raises(DomainError, match=re.escape(
                f"oscillator-limit energy overflows at n_r = {10**159}, n_theta = 0")):
            nonrelativistic_energy(params, 1.0, QuantumNumbers(n_r=10**159, n_theta=0))


extreme_values = st.floats(-1e308, 1e308) | st.sampled_from(
    [1e308, -1e308, 1e-310, 5e-324, 0.0, math.inf, -math.inf, math.nan])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(K=st.floats(0.1, 20.0), A=st.floats(-2.0, 10.0), B=st.floats(-3.0, 0.0),
       C=st.floats(-0.1, 0.0), mu=st.floats(0.5, 10.0), m=st.integers(0, 2),
       branch=st.sampled_from(BranchSign), convention=st.sampled_from(Convention),
       extreme=st.none() | st.tuples(st.sampled_from(["K", "A", "B", "C", "mu"]),
                                     extreme_values))
# The minus branch fails the radial radicand at level 1 here.
@example(K=5.0, A=0.5, B=-0.95, C=-0.05, mu=5.0, m=0, branch=BranchSign.MINUS,
         convention=Convention.TABLE_CONSISTENT, extreme=None)
def test_ladder_levels_have_the_bits_of_nonrelativistic_energy(K, A, B, C, mu, m, branch,
                                                               convention, extreme):
    """Level n of a ladder is nonrelativistic_energy at n_r = n_theta = n,
    and a ladder fails at the level, with the error, that the closed form
    fails at.  ``extreme`` replaces one input with a value far outside the
    physical range, or one that is not finite."""
    inputs = {"K": K, "A": A, "B": B, "C": C, "mu": mu}
    if extreme is not None:
        inputs[extreme[0]] = extreme[1]
    mu = inputs.pop("mu")
    params = PotentialParams(**inputs)

    def outcome(level):
        try:
            return level().hex()
        except Exception as exc:
            return type(exc), str(exc)

    ladder = nonrelativistic_levels(params, mu, m, branch, convention)
    for n in range(40):
        got = outcome(lambda: next(ladder))
        assert got == outcome(lambda: nonrelativistic_energy(
            params, mu, QuantumNumbers(n_r=n, m=m), branch, convention))
        if type(got) is tuple:
            break
        assert got == reference_energy(params, mu, n, m, branch, convention).hex()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(K=st.floats(2.0, 8.0), A=st.floats(2.0, 8.0), B=st.floats(-0.1, 0.0),
       C=st.floats(0.0, 0.01), mu=st.floats(2.0, 8.0), m=st.integers(0, 2),
       convention=st.sampled_from(Convention),
       log_T=st.floats(math.log(0.1), math.log(30.0)))
def test_thermodynamic_identities(K, A, B, C, mu, m, convention, log_T):
    """F = U - T*S, S >= 0, Z > 0, and C is dU/dT (a central difference;
    thermo_point clamps C at 0, so C >= 0 alone proves nothing).  Where
    1/2 - w - m^2 < 0 there is no ladder to sum (m = 2 always, here), and
    the separation root is what fails."""
    params = PotentialParams(K=K, A=A, B=B, C=C)
    T = math.exp(log_T)

    def ladder():
        return nonrelativistic_levels(params, mu, m, BranchSign.PLUS, convention)

    if 0.5 - 4.0 * mu * (B + C) - m * m < 0.0:
        with pytest.raises(DomainError, match="^separation-constant radicand negative"):
            thermo_point(ladder(), T)
        return
    point = thermo_point(ladder(), T)
    assert point.Z > 0.0
    assert point.S >= 0.0
    assert abs(point.F - (point.U - T * point.S)) <= 1e-12 * max(
        abs(point.F), abs(point.U), T * point.S)
    h = 1e-4 * T
    slope = (thermo_point(ladder(), T + h).U - thermo_point(ladder(), T - h).U) / (2.0 * h)
    # Truncation error relative to C, and the rounding of U divided by h.
    assert abs(point.C - slope) <= 1e-6 * point.C + 16.0 * math.ulp(point.U) / h


def reference_energy(params, mu, n, m, branch, convention):
    """E_NR at n_r = n_theta = n through angular.q_of_vtilde and the sum
    form angular_level, in the order of operations that the ladder's
    prepared terms must keep."""
    q = q_of_vtilde(0.25 - m * m - 4.0 * mu * (params.B + params.C), branch.sign)
    lam = angular_level(q, n) - 0.25
    return (0.5 * convention.coefficient * math.sqrt(2.0 * params.K / mu)
            * (2.0 * n + 1.0 + math.sqrt(0.25 + 4.0 * params.A * mu + lam)))


class TestLadderGenerator:
    """Each nonrelativistic_levels(...) is a fresh generator: it does no
    work until its first next(), and then fails, or yields the closed
    form's bits, the same way as every other generator on its inputs."""

    def test_no_work_before_the_first_next(self, monkeypatch):
        for name in ("_ladder_terms", "_level"):
            monkeypatch.setattr(thermo, name, lambda *args: pytest.fail("work was done"))
        invalid = nonrelativistic_levels(PotentialParams(K=math.nan, A=6.0, B=-0.05, C=0.005),
                                         REFERENCE_MU)
        ladder = nonrelativistic_levels(REFERENCE_PARAMS, REFERENCE_MU, 1, BranchSign.MINUS,
                                        Convention.EQUATION_CONSISTENT)
        monkeypatch.undo()
        with pytest.raises(DomainError, match=re.escape("K must be finite (got nan)")):
            next(invalid)
        for n, energy in enumerate(islice(ladder, 80)):
            assert energy.hex() == nonrelativistic_energy(
                REFERENCE_PARAMS, REFERENCE_MU, QuantumNumbers(n_r=n, m=1),
                BranchSign.MINUS, Convention.EQUATION_CONSISTENT).hex()

    @pytest.mark.parametrize("params, mu, branch, failing, message", [
        (PotentialParams(K=math.nan, A=6.0, B=-0.05, C=0.005), REFERENCE_MU, BranchSign.PLUS, 0,
         "K must be finite (got nan)"),
        (PotentialParams(K=1e308, A=1e308, B=-0.05, C=0.005), 5.0, BranchSign.PLUS, 0,
         "oscillator-limit energy overflows at n_r = 0, n_theta = 0: "),
        (REFERENCE_PARAMS, 1e300, BranchSign.PLUS, 2,
         "levels 0 and 1 are both 7.745966692414835: a degenerate spectrum, "),
        (PotentialParams(K=5.0, A=0.5, B=-0.95, C=-0.05), 5.0, BranchSign.MINUS, 1,
         "radial radicand negative: "),
    ], ids=["non-finite", "overflow", "swamped-root", "radicand-at-level-1"])
    def test_failing_ladder_raises_at_the_same_level_on_every_generator(
            self, params, mu, branch, failing, message):
        # ``failing`` levels are yielded, with the closed form's bits,
        # before the ladder or the sum over it raises.
        errors = set()
        for _ in range(3):
            yielded = []
            ladder = (yielded.append(e) or e
                      for e in nonrelativistic_levels(params, mu, 0, branch))
            with pytest.raises(DomainError, match=f"^{re.escape(message)}") as info:
                thermo_point(ladder, T=1.0)
            assert [e.hex() for e in yielded] == [
                nonrelativistic_energy(params, mu, QuantumNumbers(n_r=n), branch).hex()
                for n in range(failing)]
            errors.add(str(info.value))
        assert len(errors) == 1


def test_free_energy_where_kT_ln_s0_overflows():
    """k_B*T*ln s0 passes the float range here and F does not: F is
    60-digit mpmath's -1.3755e308, not -inf."""
    levels, T = [1e308, 1.2e308, 1.4e308, 1.6e308, 1.7e308], 1.7e308
    with mpmath.workdps(60):
        energies, kT = [mpmath.mpf(e) for e in levels], mpmath.mpf(T)
        s0 = sum(mpmath.exp(-(e - energies[0]) / kT) for e in energies)
        expected = float(energies[0] - kT * mpmath.log(s0))
    assert expected == pytest.approx(-1.3755e308, rel=1e-4)
    assert thermo_point(levels, T).F == pytest.approx(expected, rel=1e-14)


def two_level_reference(e0: float, e1: float, T: float) -> dict:
    """Z, F, U, S and C of the levels e0 < e1 at temperature T (k_B = N = 1),
    from the two-level closed forms in 60-digit mpmath."""
    with mpmath.workdps(60):
        e0, e1, T = mpmath.mpf(e0), mpmath.mpf(e1), mpmath.mpf(T)
        y = (e1 - e0) / T
        w = mpmath.exp(-y)
        s0 = 1 + w
        return {"Z": mpmath.exp(-e0 / T) * s0, "F": e0 - T * mpmath.log(s0),
                "U": e0 + (e1 - e0) * w / s0, "S": mpmath.log(s0) + y * w / s0,
                "C": y * y * w / (s0 * s0)}


log_magnitudes = st.floats(math.log(1e-300), math.log(1e300))


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(sign=st.sampled_from([-1.0, 0.0, 1.0]), log_e0=log_magnitudes, log_d=log_magnitudes,
       log_T=log_magnitudes)
@example(sign=0.0, log_e0=0.0, log_d=math.log(1e-160), log_T=math.log(1e-160))
@example(sign=-1.0, log_e0=0.0, log_d=0.0, log_T=math.log(1e-3))
def test_two_level_system_matches_its_closed_form(sign, log_e0, log_d, log_T):
    """Levels [E0, E0 + d] at T, with |E0|, d and T log-uniform over
    1e-300..1e300: thermo_point fails only with DomainError (E0 + d rounds
    to E0) or ConvergenceError, gives no NaN, and each field is within
    1e-12 relative (plus 1e-300) of the closed form, or is +/-inf exactly
    where the closed form is out of the float range.  F may also be
    k_B*T*eps off and S k_B*eps, where ln(1 + w) rounds away a weight w
    below eps."""
    e0 = sign * math.exp(log_e0)
    e1 = e0 + math.exp(log_d)
    T = math.exp(log_T)
    try:
        point = thermo_point([e0, e1], T)
    except (DomainError, ConvergenceError):
        return
    eps = sys.float_info.epsilon
    slack = {"Z": 0.0, "F": T * eps, "U": 0.0, "S": eps, "C": 0.0}
    for name, ref in two_level_reference(e0, e1, T).items():
        got = getattr(point, name)
        assert not math.isnan(got), name
        if abs(ref) > sys.float_info.max:
            assert got == math.copysign(math.inf, ref), name
        else:
            assert abs(got - ref) <= 1e-12 * abs(ref) + 1e-300 + slack[name], (name, got, ref)
