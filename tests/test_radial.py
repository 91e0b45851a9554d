"""Tests for the radial sector: ansatz, ladder, Kummer polynomial, wavefunction."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.special import hyp1f1

import rspho.spectrum
from rspho.angular import angular_level, q_of_vtilde
from rspho.errors import DomainError
from rspho.model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                         SolveRequest, Symmetry)
from rspho.radial import (_kummer_scaled, effective_scale, partner_potentials_radial,
                          r_grid_step, radial_spectrum, radial_terms_from_terms,
                          radial_wavefunction, wavefunction_scales)
from rspho.spectrum import solve_energy
from rspho.thermo import nonrelativistic_energy


def r_grid(n_r: int, L: float, delta_eff: float, points: int = 4000,
           r_max: float | None = None) -> np.ndarray:
    """The wavefunction command's grid h*i, i = 1..points, with h from
    r_grid_step, as an array."""
    return r_grid_step(n_r, L, delta_eff, points, r_max) * np.arange(1, points + 1)


class TestRadialAnsatz:
    """The ansatz delta = -1/2 - sqrt(1/4 + delta'), big_delta = sqrt(s*K*(E+M))
    from radial_terms_from_terms(E + M, s*K, s*2*A, lambda)."""

    def test_negative_root_chosen(self):
        # delta^2 + delta = 2 has roots {1, -2}; the normalizable one is -2
        delta_prime, root, _ = radial_terms_from_terms(2.0, 1.0, 0.0, 2.0)
        assert -0.5 - root == pytest.approx(-2.0, abs=1e-14)
        assert delta_prime == pytest.approx(2.0)

    def test_zero_strength(self):
        _, root, stiff = radial_terms_from_terms(2.0, 0.5, 0.0, 0.0)
        big_delta = math.sqrt(stiff)
        assert -0.5 - root == pytest.approx(-1.0, abs=1e-14)
        assert radial_spectrum(big_delta, -0.5 - root, 0) == pytest.approx(3.0 * big_delta,
                                                                          rel=1e-14)

    def test_reference_scales(self):
        delta_prime, _, stiff = radial_terms_from_terms(14.38516214 + 5.0, 5.0, 12.0, 6.744664)
        assert math.sqrt(stiff) == pytest.approx(9.845090690288231, abs=1e-9)
        assert delta_prime == pytest.approx(239.36660968, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.0, 2.0, 6.744661425891834, 100.0])
    def test_quadratic_and_ground_identities(self, lam):
        delta_prime, root, stiff = radial_terms_from_terms(14.4 + 5.0, 5.0, 12.0, lam)
        delta, big_delta = -0.5 - root, math.sqrt(stiff)
        e0_tilde = radial_spectrum(big_delta, delta, 0)
        assert delta * (delta + 1.0) == pytest.approx(delta_prime, rel=1e-12)
        assert delta <= -0.5
        assert e0_tilde == pytest.approx(big_delta * (1.0 - 2.0 * delta), rel=1e-14)
        assert e0_tilde > 0.0

    def test_pseudospin_uses_mirrored_signs(self):
        request = SolveRequest(params=PotentialParams(K=-5.0, A=-5.0, B=0.5, C=0.005), M=3.0,
                               qn=QuantumNumbers(n_r=0), symmetry=Symmetry.PSEUDOSPIN)
        L, big_delta = wavefunction_scales(request, 12.13, 14.0)
        # s = -1: stiffness -K(E+M) > 0 and delta' = -2A(E+M) + lambda
        assert big_delta == pytest.approx(math.sqrt(5.0 * 15.13), rel=1e-14)
        assert L * (L + 1.0) == pytest.approx(10.0 * 15.13 + 14.0, rel=1e-14)

    def test_wrong_stiffness_sign_rejected(self):
        with pytest.raises(DomainError, match="stiffness"):
            radial_terms_from_terms(2.0, -1.0, 0.0, 0.0)

    def test_negative_discriminant_rejected(self):
        with pytest.raises(DomainError, match="radial radicand"):
            radial_terms_from_terms(2.0, 1.0, 0.0, -10.0)


class TestRadialSpectrum:
    def test_ladder_values(self):
        assert radial_spectrum(1.0, -2.0, 0) == pytest.approx(5.0)
        assert radial_spectrum(1.0, -2.0, 1) == pytest.approx(9.0)
        assert radial_spectrum(1.0, -1.0, 2) == pytest.approx(11.0)

    @pytest.mark.parametrize("delta_prime", [0.0, 2.0, 239.3666])
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_equivalent_closed_form(self, delta_prime, n):
        big_delta = 3.3
        delta = -0.5 * (1.0 + math.sqrt(1.0 + 4.0 * delta_prime))
        ladder = radial_spectrum(big_delta, delta, n)
        direct = 2.0 * big_delta * (2.0 * n + 1.0 + math.sqrt(0.25 + delta_prime))
        assert ladder == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_level_rejected(self, n):
        with pytest.raises(DomainError, match=rf"^n_r must be >= 0 \(got {n}\)$"):
            radial_spectrum(1.0, -1.0, n)


class TestPartnerPotentialsRadial:
    def test_point_values(self):
        v_plus, v_minus = partner_potentials_radial(-2.0, 1.0, 1.0)
        assert v_plus == pytest.approx(4.0)
        assert v_minus == pytest.approx(-2.0)

    def test_vanishing_inverse_square_branch(self):
        # delta(delta+1) = 0 at delta = -1 kills the centrifugal part of v_minus
        _, v_minus = partner_potentials_radial(-1.0, 2.0, 0.5)
        assert v_minus == pytest.approx(-5.0)

    @pytest.mark.parametrize("delta,big_delta", [(-2.0, 1.0), (-1.3, 2.5)])
    def test_shape_invariance_remainder(self, delta, big_delta):
        for r in (0.3, 1.0, 2.7):
            v_plus, _ = partner_potentials_radial(delta, big_delta, r)
            _, v_minus_next = partner_potentials_radial(delta - 1.0, big_delta, r)
            assert v_plus - v_minus_next == pytest.approx(4.0 * big_delta, rel=1e-11)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(DomainError):
            partner_potentials_radial(-2.0, 1.0, 0.0)

    def test_nan_radius_rejected(self):
        with pytest.raises(DomainError, match=r"^r must be positive \(got nan\)$"):
            partner_potentials_radial(-2.0, 1.0, math.nan)

    @pytest.mark.parametrize("name, delta, big_delta", [
        ("delta", math.nan, 1.0), ("delta", -math.inf, 1.0),
        ("big_delta", -2.0, math.nan), ("big_delta", -2.0, math.inf),
    ])
    def test_scale_that_is_not_finite_rejected(self, name, delta, big_delta):
        value = delta if name == "delta" else big_delta
        with pytest.raises(DomainError, match=rf"^{name} must be finite \(got {value}\)$"):
            partner_potentials_radial(delta, big_delta, 1.0)

    @pytest.mark.parametrize("delta, big_delta, r", [
        (-1e200, 1.0, 1.0),     # delta^2 overflows
        (1.0, 1e200, 1.0),      # big_delta^2 overflows
        (1.0, 1.0, 1e200),      # r^2 overflows
        (1.0, 1.0, 1e-200),     # r^2 is 0, so 1/r^2 overflows
    ])
    def test_overflowing_potentials_are_named(self, delta, big_delta, r):
        with pytest.raises(DomainError) as info:
            partner_potentials_radial(delta, big_delta, r)
        assert str(info.value) == (f"partner potentials overflow at delta = {delta}, "
                                   f"big_delta = {big_delta}, r = {r}")


@settings(derandomize=True, max_examples=200)
@given(delta=st.integers(-30 * 2**40, 0).map(lambda k: k / 2**40),
       big_delta=st.floats(0.1, 30.0), r=st.floats(0.05, 10.0))
def test_radial_partners_are_shape_invariant(delta, big_delta, r):
    """V+(delta) - V-(delta - 1) = 4*big_delta at every r, to a few ulps of
    the largest term of the two potentials.  delta is a multiple of 2^-40,
    so delta - 1 is exact: the partner is the one shifted exactly by 1."""
    v_plus, _ = partner_potentials_radial(delta, big_delta, r)
    _, v_minus_next = partner_potentials_radial(delta - 1.0, big_delta, r)
    largest = max(abs(delta * (delta - 1.0)) / r**2, big_delta**2 * r**2,
                  abs(2.0 * (delta - 1.0) * big_delta))
    assert abs(v_plus - v_minus_next - 4.0 * big_delta) <= 8.0 * math.ulp(largest)


@settings(derandomize=True, max_examples=200)
@given(delta_prime=st.floats(0.0, 300.0), big_delta=st.floats(0.1, 30.0),
       n=st.integers(0, 50))
def test_radial_levels_are_spaced_by_four_big_delta(delta_prime, big_delta, n):
    delta = -0.5 - math.sqrt(0.25 + delta_prime)
    upper = radial_spectrum(big_delta, delta, n + 1)
    assert abs(upper - radial_spectrum(big_delta, delta, n) - 4.0 * big_delta) <= (
        4.0 * math.ulp(upper))


# The solver's residual and the oscillator-limit ladder each write the
# radial ladder in their own order of operations, which keeps today's
# bits; these properties pin both to radial_spectrum.
LADDER_INPUTS = dict(
    K=st.floats(0.5, 20.0), A=st.floats(0.0, 10.0), B=st.floats(-1.0, 0.0),
    C=st.floats(-0.1, 0.1), n_r=st.integers(0, 30), n_theta=st.integers(0, 5),
    m=st.integers(0, 2), branch=st.sampled_from(BranchSign),
    convention=st.sampled_from(Convention))


@settings(derandomize=True, max_examples=300)
@given(**LADDER_INPUTS, symmetry=st.sampled_from(Symmetry), M=st.floats(0.1, 10.0),
       fac=st.floats(0.01, 50.0))
def test_residual_right_side_is_the_radial_ladder(K, A, B, C, n_r, n_theta, m, branch,
                                                  convention, symmetry, M, fac):
    """f(E) = (E - M) - (c/2)*radial_spectrum(big_delta, delta, n_r)/(E + M),
    with delta = -1/2 - sqrt(1/4 + delta'), to a few ulps of the larger side.
    Pseudo-spin flips the signs of K, A, B and C, so that s*K and the ring
    coupling have the spin case's signs."""
    s = symmetry.coupling_sign
    request = SolveRequest(params=PotentialParams(K=s * K, A=s * A, B=s * B, C=s * C),
                           M=M, qn=QuantumNumbers(n_r=n_r, n_theta=n_theta, m=m),
                           symmetry=symmetry, branch=branch, convention=convention)
    E = fac - M
    try:
        f, fac, _, root, stiff = rspho.spectrum._residual(
            E, rspho.spectrum._request_terms(request))
    except DomainError:
        assume(False)
    rhs = 0.5 * convention.coefficient * radial_spectrum(
        math.sqrt(stiff), -0.5 - root, n_r) / fac
    assert abs(f - ((E - M) - rhs)) <= 4.0 * math.ulp(max(abs(E - M), rhs))


@settings(derandomize=True, max_examples=300)
@given(**LADDER_INPUTS, mu=st.floats(0.1, 10.0))
def test_oscillator_limit_level_is_the_radial_ladder(K, A, B, C, n_r, n_theta, m,
                                                     branch, convention, mu):
    """E_NR = (c/2)*radial_spectrum(big_delta, delta, n_r)/(E + M) with
    E + M = 2*mu, big_delta = sqrt(2*K*mu) and lambda the solver's at the
    static coupling 4*mu*(B+C), as the solver's residual composes it, to a
    few ulps."""
    params = PotentialParams(K=K, A=A, B=B, C=C)
    try:
        level = nonrelativistic_energy(params, mu, QuantumNumbers(n_r=n_r, n_theta=n_theta,
                                                                  m=m), branch, convention)
    except DomainError:
        assume(False)
    lam = angular_level(q_of_vtilde(0.25 - m * m - 2.0 * (2.0 * mu) * (B + C), branch),
                        n_theta) - 0.25
    expected = 0.5 * convention.coefficient * radial_spectrum(
        math.sqrt(2.0 * K * mu), -0.5 - math.sqrt(0.25 + 4.0 * A * mu + lam), n_r) / (2.0 * mu)
    assert abs(level - expected) <= 4.0 * math.ulp(expected)


def kummer_in_range(n: int, b: float, z):
    """1F1(-n, b, z) from _kummer_scaled, checked to be unscaled (e = 0),
    as it is wherever 1F1 fits in a float."""
    z_max = float(np.max(np.abs(z))) if isinstance(z, np.ndarray) else abs(z)
    f, e = _kummer_scaled(n, b, z, z_max)
    assert np.all(e == 0)
    return f


class TestKummer:
    def test_degree_zero_is_one(self):
        for b, z in [(1.5, 0.3), (-0.4, 10.0), (2.0, -5.0)]:
            assert _kummer_scaled(0, b, z, abs(z)) == (1.0, 0)

    def test_two_term_series(self):
        assert kummer_in_range(1, 1.5, 1.0) == pytest.approx(1.0 - 1.0 / 1.5, rel=1e-14)

    def test_three_term_series(self):
        # 1 - 4/3 + 4/15 = -1/15
        assert kummer_in_range(2, 1.5, 1.0) == pytest.approx(-1.0 / 15.0, abs=1e-15)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_at_origin(self, n):
        assert kummer_in_range(n, 2.3, 0.0) == pytest.approx(1.0)

    def test_vanishing_denominator_rejected(self):
        with pytest.raises(DomainError, match="Pochhammer"):
            _kummer_scaled(1, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="Pochhammer"):
            _kummer_scaled(3, -2.0, 0.5, 0.5)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            _kummer_scaled(-1, 1.5, 1.0, 1.0)

    def test_vectorized_matches_scalar(self):
        z = np.array([0.0, 0.7, 2.4, 9.1])
        vec = kummer_in_range(3, 1.5, z)
        for i, zi in enumerate(z):
            assert vec[i] == pytest.approx(kummer_in_range(3, 1.5, float(zi)), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("z", [0.3, 1.7, 4.2])
    def test_against_scipy_hypergeometric(self, n, z):
        ours = kummer_in_range(n, 2.5, z)
        reference = float(hyp1f1(-n, 2.5, z))
        assert ours == pytest.approx(reference, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("z", [1500.0, np.array([1.0, 1500.0, 3000.0])], ids=["float", "array"])
    def test_past_the_float_range_is_scaled_by_a_power_of_two(self, z):
        # At n = 500 1F1 passes 1e308 far out: f * 2^e is mpmath's value,
        # with e > 0 only there, and f within the recurrence's bound.
        f, e = _kummer_scaled(500, 1.5, z, float(np.max(z)))
        with mpmath.workdps(40):
            for fi, ei, zi in zip(np.atleast_1d(f), np.atleast_1d(e), np.atleast_1d(z)):
                reference = mpmath.hyp1f1(-500, 1.5, float(zi))
                assert (ei > 0) == (abs(reference) > 2.0 ** 1023)
                assert abs(fi) < 2.0 ** 1023
                got = mpmath.ldexp(mpmath.mpf(float(fi)), int(ei))
                assert abs(got / reference - 1) <= 1e-11


class TestEffectiveScale:
    def test_table_convention_halves(self):
        assert effective_scale(9.8, Convention.TABLE_CONSISTENT) == pytest.approx(4.9)

    def test_equation_convention_identity(self):
        assert effective_scale(9.8, Convention.EQUATION_CONSISTENT) == pytest.approx(9.8)


class TestRadialWavefunction:
    def test_peak_at_turning_balance(self):
        # ground state with L = 1, delta_eff = 1: log-derivative zero at r = sqrt(2)
        grid = r_grid(0, 1.0, 1.0, points=8000)
        wf = radial_wavefunction(0, 1.0, 2.0, grid, Convention.TABLE_CONSISTENT)
        r_peak = wf.r[np.argmax(wf.values)]
        assert r_peak == pytest.approx(math.sqrt(2.0), abs=2.0 * (grid[1] - grid[0]))

    def test_first_excited_node_location(self):
        # 1F1(-1, L+3/2, x) vanishes at x = L + 3/2, i.e. r = sqrt(2.5)
        grid = r_grid(1, 1.0, 1.0, points=8000)
        wf = radial_wavefunction(1, 1.0, 2.0, grid, Convention.TABLE_CONSISTENT)
        sign_flip = np.nonzero(np.diff(np.sign(wf.values)))[0]
        assert len(sign_flip) == 1
        r_node = wf.r[sign_flip[0]]
        assert r_node == pytest.approx(math.sqrt(2.5), abs=2.0 * (grid[1] - grid[0]))

    def test_unit_quadrature(self):
        grid = r_grid(2, 2.0, 1.0, points=4000)
        wf = radial_wavefunction(2, 2.0, 1.0, grid, Convention.EQUATION_CONSISTENT)
        assert simpson(wf.values**2, x=wf.r) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_r", [0, 1, 2, 3])
    def test_node_counts(self, n_r):
        L = -0.5 + math.sqrt(0.25 + 2.0)
        grid = r_grid(n_r, L, 1.0, points=4000)
        wf = radial_wavefunction(n_r, L, 1.0, grid, Convention.EQUATION_CONSISTENT)
        listed = radial_wavefunction(n_r, L, 1.0, grid.tolist(), Convention.EQUATION_CONSISTENT)
        assert wf.node_count() == listed.node_count() == n_r

    def test_eta_scale_follows_convention(self):
        grid = r_grid(0, 1.0, 1.0, points=100)
        wf_table = radial_wavefunction(0, 1.0, 2.0, grid, Convention.TABLE_CONSISTENT)
        wf_equation = radial_wavefunction(0, 1.0, 2.0, grid, Convention.EQUATION_CONSISTENT)
        assert wf_table.eta_scale == pytest.approx(1.0)
        assert wf_equation.eta_scale == pytest.approx(math.sqrt(2.0))

    def test_norm_is_the_laguerre_closed_form(self):
        # N^-2 = (1/2) a^-(alpha+1) n! Gamma(alpha+1)^2 / Gamma(n+alpha+1),
        # a = delta_eff = 2, alpha = L + 1/2 = 2, n = 2: N^2 = 2 * 8 * 24 / (2 * 4) = 48.
        grid = r_grid(2, 1.5, 2.0, points=4001)
        wf = radial_wavefunction(2, 1.5, 4.0, grid)
        assert wf.norm_constant == pytest.approx(math.sqrt(48.0), rel=1e-14)
        eta2 = 2.0 * grid**2
        bare = np.exp(-0.5 * eta2) * grid**2.5 * kummer_in_range(2, 3.0, eta2)
        assert np.max(np.abs(wf.values - wf.norm_constant * bare)) <= 1e-14 * np.max(bare)

    @pytest.mark.parametrize("r_max", [1e10, 1e120, 1e200, 1e300])
    def test_grid_far_beyond_the_state_collapses(self, r_max):
        # At 1e10 the grid steps over the state and every sample underflows
        # to 0, and so does it at 1e120, where the Kummer recurrence
        # rescales a polynomial past the float range; from 1e200 on r^2
        # overflows.  Either way one DomainError naming the cause, and no
        # numpy warning, on an array grid and on a list.
        grid = r_grid(2, 1.5, 2.0, points=4000, r_max=r_max)
        cause = ("^wavefunction is zero at every grid point" if r_max < 1e200 else
                 "^wavefunction overflows on the grid: a sample is not finite")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (grid, grid.tolist()):
                with pytest.raises(DomainError, match=cause):
                    radial_wavefunction(2, 1.5, 4.0, r)

    def test_list_grid_gives_the_array_values_as_floats(self):
        grid = r_grid(3, 2.0, 1.0, points=500)
        array = radial_wavefunction(3, 2.0, 2.0, grid)
        floats = radial_wavefunction(3, 2.0, 2.0, grid.tolist())
        assert type(floats.r) is list and type(floats.values[0]) is float
        assert floats.r == grid.tolist() and floats.norm_constant == array.norm_constant
        peak = np.max(np.abs(array.values))
        assert np.max(np.abs(np.array(floats.values) - array.values)) <= 1e-14 * peak

    def test_shallow_l_rejected(self):
        with pytest.raises(DomainError, match="-3/2"):
            radial_wavefunction(0, -1.6, 1.0, np.linspace(0.1, 5, 100))

    def test_bad_grid_rejected(self):
        for grid in ([1.0, 0.5, 2.0], [-1.0, 0.5, 2.0], [0.5, math.nan, 2.0], [0.5, 1.0]):
            for form in (list, np.array):
                with pytest.raises(DomainError, match="^r grid must be strictly positive"):
                    radial_wavefunction(0, 1.0, 1.0, form(grid))


def mp_radial(n_r: int, L: float, a: float, r):
    """mpmath's normalized closed form at r: N exp(-a r^2/2) r^(L+1)
    1F1(-n_r; L + 3/2; a r^2), N from mpmath's gamma.  mpmath's 1F1 raises
    its working precision where the power series cancels."""
    alpha = mpmath.mpf(L) + 0.5
    norm = mpmath.sqrt(2 * mpmath.mpf(a) ** (alpha + 1) * mpmath.gamma(n_r + alpha + 1)
                       / (mpmath.factorial(n_r) * mpmath.gamma(alpha + 1) ** 2))
    z = mpmath.mpf(a) * mpmath.mpf(r) ** 2
    return norm * mpmath.exp(-z / 2) * mpmath.mpf(r) ** (L + 1) * mpmath.hyp1f1(-n_r, alpha + 1, z)


@pytest.mark.parametrize("n_r", [0, 1, 5, 20, 25, 30, 40, 60])
def test_high_levels_match_mpmath(n_r):
    """Within 1e-10 of the peak at L = 15, big_delta = 2 (delta_eff = 1),
    on every tenth point of the default grid, where the forward power
    series for 1F1 errs by more than the peak from n_r = 30."""
    grid = r_grid(n_r, 15.0, 1.0)
    wf = radial_wavefunction(n_r, 15.0, 2.0, grid)
    with mpmath.workdps(30):
        reference = np.array([float(mp_radial(n_r, 15.0, 1.0, r)) for r in grid[::10]])
    peak = np.max(np.abs(wf.values))
    assert np.max(np.abs(wf.values[::10] - reference)) <= 1e-10 * peak
    assert wf.node_count() == n_r


def test_level_where_1f1_passes_the_float_range():
    """At n_r = 500 1F1 passes 1e308 on the default grid, where the Kummer
    recurrence rescales it by powers of two: the list and array grids give
    the same samples, 500 nodes and a unit sum of R^2 h, and a few points
    match mpmath within 1e-10 of the peak."""
    grid = r_grid(500, 0.5, 1.0)
    wf = radial_wavefunction(500, 0.5, 2.0, grid)
    listed = radial_wavefunction(500, 0.5, 2.0, grid.tolist())
    peak = np.max(np.abs(wf.values))
    assert np.max(np.abs(np.array(listed.values) - wf.values)) <= 1e-14 * peak
    assert wf.node_count() == listed.node_count() == 500
    assert np.sum(wf.values**2) * grid[0] == pytest.approx(1.0, abs=1e-5)
    points = [0, 1000, 2000, 3000, 3500]
    with mpmath.workdps(30):
        reference = np.array([float(mp_radial(500, 0.5, 1.0, grid[i])) for i in points])
    assert np.max(np.abs(wf.values[points] - reference)) <= 1e-10 * peak


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n_r=st.integers(0, 6),
       L=st.floats(-1.5, 40.0, exclude_min=True),
       a=st.floats(1e-2, 1e2))
def test_norm_is_unit_by_mpmath_quadrature(n_r, L, a):
    """N^2 times the integral of the bare form squared over (0, inf) is 1
    within 1e-12.  mpmath.quad integrates after t = a r^2, which makes the
    integral (1/2) a^-(alpha+1) int t^alpha h(t) dt with alpha = L + 1/2 and
    h = e^-t 1F1(-n_r; alpha + 1; t)^2.  On (0, 1) it integrates t^alpha
    (h(t) - 1), which vanishes at 0 like t^(alpha+1), and adds the exact
    integral of t^alpha, 1/(alpha + 1): t^alpha alone is nearly 1/t as L
    approaches -3/2, where quadrature loses digits."""
    grid = r_grid(n_r, L, a, points=50)
    wf = radial_wavefunction(n_r, L, a, grid, Convention.EQUATION_CONSISTENT)
    with mpmath.workdps(20):
        alpha = mpmath.mpf(L) + 0.5
        # The coefficients of 1F1(-n_r; alpha + 1; t), highest power first.
        series = [mpmath.rf(-n_r, k) / (mpmath.rf(alpha + 1, k) * mpmath.factorial(k))
                  for k in range(n_r, -1, -1)]

        def h(t):
            return mpmath.exp(-t) * mpmath.polyval(series, t) ** 2

        integral = (1 / (alpha + 1)
                    + mpmath.quad(lambda t: t ** alpha * (h(t) - 1), [0, 1])
                    + mpmath.quad(lambda t: t ** alpha * h(t), [1, mpmath.inf]))
        norm_sq = integral / (2 * mpmath.mpf(a) ** (alpha + 1))
        assert abs(float(wf.norm_constant ** 2 * norm_sq) - 1.0) <= 1e-12


class TestWavefunctionScales:
    def _solved_spin(self):
        req = SolveRequest(params=PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005),
                           M=5.0, qn=QuantumNumbers(n_r=1, m=0),
                           symmetry=Symmetry.SPIN)
        return req, solve_energy(req)

    def test_consistent_with_ansatz(self):
        req, res = self._solved_spin()
        L, big_delta = wavefunction_scales(req, res.E, res.lam)
        assert big_delta == pytest.approx(res.big_delta, rel=1e-12)
        # L(L+1) must reproduce the inverse-square strength delta'
        delta_prime = res.delta * (res.delta + 1.0)
        assert L * (L + 1.0) == pytest.approx(delta_prime, rel=1e-10)

    def test_eminus_variant_has_the_bits_of_its_closed_forms(self):
        # E - M > 0 and K > 0: L and big_delta from the couplings times E - M.
        req, res = self._solved_spin()
        p, fac = req.params, res.E - req.M
        assert wavefunction_scales(req, res.E, res.lam, mass_factor="eminus") == (
            -0.5 + math.sqrt(0.25 + (2.0 * p.A * fac + res.lam)), math.sqrt(p.K * fac))

    def test_eminus_variant_rejected_in_pseudospin_regime(self):
        req = SolveRequest(params=PotentialParams(K=-5.0, A=-5.0, B=0.5, C=0.005),
                           M=3.0, qn=QuantumNumbers(n_r=1, m=0),
                           symmetry=Symmetry.PSEUDOSPIN)
        res = solve_energy(req)
        with pytest.raises(DomainError, match="eminus"):
            wavefunction_scales(req, res.E, res.lam, mass_factor="eminus")

    def test_unknown_mass_factor_rejected(self):
        req, res = self._solved_spin()
        with pytest.raises(ValueError):
            wavefunction_scales(req, res.E, res.lam, mass_factor="both")


class TestDefaultRGrid:
    """The default grid of the wavefunction command, h*i with h from
    r_grid_step (r_grid above)."""

    def test_structure(self):
        grid = r_grid(0, 1.0, 1.0, points=4000)
        assert len(grid) == 4000
        assert grid[0] > 0.0
        assert np.all(np.diff(grid) > 0.0)

    def test_override_r_max(self):
        grid = r_grid(0, 1.0, 1.0, points=10, r_max=5.0)
        assert grid[-1] == pytest.approx(5.0)

    def test_reaches_past_turning_point(self):
        # highest level turning radius sqrt(Et)/delta_eff must sit inside the grid
        n_r, L, deff = 3, 2.0, 4.0
        grid = r_grid(n_r, L, deff)
        et = 2.0 * deff * (2.0 * n_r + 1.0 + math.sqrt(0.25 + L * (L + 1.0)))
        assert grid[-1] > math.sqrt(et) / deff
