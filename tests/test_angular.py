"""Tests for the angular sector: barrier mapping, shape invariance, lambda,
ground-state profile.

Frozen numeric expectations were computed by independent arithmetic on the
reference energies before this module was written.
"""

import io
import math
from contextlib import redirect_stdout
from decimal import Decimal, localcontext

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rspho.angular
import rspho.oracle
import rspho.spectrum
import rspho.thermo
from rspho.angular import (angular_ground_state, angular_level, angular_spectrum,
                           partner_potentials_angular, q_of_vtilde,
                           shape_invariance_chain)
from rspho.cli import main
from rspho.errors import DomainError
from rspho.model import (BranchSign, PotentialParams, QuantumNumbers, SolveRequest,
                         Symmetry)
from rspho.spectrum import solve_energy
from rspho.thermo import nonrelativistic_energy

SPIN_PARAMS = PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
PSEUDO_PARAMS = PotentialParams(K=-5.0, A=-5.0, B=0.5, C=0.005)


def solver_lambda(E, M, params, m, n_theta, branch=BranchSign.PLUS,
                  symmetry=Symmetry.SPIN):
    """lambda at E as the solver's residual assembles it, the one place
    the program does (spectrum._residual)."""
    request = SolveRequest(params=params, M=M,
                           qn=QuantumNumbers(n_r=0, n_theta=n_theta, m=m),
                           symmetry=symmetry, branch=branch)
    return rspho.spectrum._residual(E, rspho.spectrum._request_terms(request))[2]


def solver_vtilde(E, M, params, m, symmetry):
    """The barrier Vt = 1/4 - m^2 - w that the solver's residual passes to
    q_of_vtilde at E, read back from its lambda: at n_theta = 0 on the PLUS
    branch, q = lambda + 1/4 and Vt = q^2 - q."""
    q = solver_lambda(E, M, params, m, 0, symmetry=symmetry) + 0.25
    return q * q - q


class TestVTilde:
    def test_vanishing_ring_coupling(self):
        p = PotentialParams(K=1.0, A=0.0, B=0.3, C=-0.3)
        assert solver_vtilde(10.0, 1.0, p, 0, Symmetry.SPIN) == pytest.approx(0.25, abs=1e-15)

    def test_spin_reference_value(self):
        vt = solver_vtilde(14.38516214, 5.0, SPIN_PARAMS, 0, Symmetry.SPIN)
        assert vt == pytest.approx(1.9946645926000002, abs=1e-12)

    def test_pseudospin_reference_value(self):
        vt = solver_vtilde(12.12523736, 3.0, PSEUDO_PARAMS, 0, Symmetry.PSEUDOSPIN)
        assert vt == pytest.approx(15.5264897336, abs=1e-10)

    def test_m_enters_quadratically(self):
        # At E = 40 rather than 14, where 1/4 + Vt < 0 for m = 2 and no q is
        # real.
        p = SPIN_PARAMS
        assert (solver_vtilde(40.0, 5.0, p, 2, Symmetry.SPIN)
                == solver_vtilde(40.0, 5.0, p, -2, Symmetry.SPIN))


class TestQOfVtilde:
    def test_trivial_values(self):
        assert q_of_vtilde(0.0, BranchSign.PLUS) == pytest.approx(1.0)
        assert q_of_vtilde(0.0, BranchSign.MINUS) == pytest.approx(0.0)
        assert q_of_vtilde(2.0, BranchSign.PLUS) == pytest.approx(2.0)

    @pytest.mark.parametrize("vt", [-0.25, 0.0, 0.5, 1.994664, 15.526490, 40.0])
    @pytest.mark.parametrize("branch", [BranchSign.PLUS, BranchSign.MINUS])
    def test_defining_quadratic(self, vt, branch):
        q = q_of_vtilde(vt, branch)
        assert q * q - q == pytest.approx(vt, abs=1e-12)

    def test_complex_q_rejected(self):
        with pytest.raises(DomainError, match="radicand negative"):
            q_of_vtilde(-0.26, BranchSign.PLUS)

    def test_nan_barrier_rejected(self):
        with pytest.raises(DomainError, match=r"^separation-constant radicand negative: "
                                              r"1/4 \+ v_tilde = 1/2 - w - m\^2 = nan$"):
            q_of_vtilde(math.nan, BranchSign.PLUS)

    def test_numeric_sign_is_the_branch(self):
        for branch in BranchSign:
            assert q_of_vtilde(1.994664, branch.sign) == q_of_vtilde(1.994664, branch)


class TestAngularSpectrum:
    @pytest.mark.parametrize("q,n,expected", [
        (2.0, 0, (2.0, 4.0)),
        (2.0, 1, (7.0, 9.0)),
        (1.0, 3, (16.0, 16.0)),
        (1e200, 0, (1e200, math.inf)),      # the squared form is past the float range
    ])
    def test_both_forms(self, q, n, expected):
        e_sum, e_printed = angular_spectrum(q, n)
        assert e_sum == pytest.approx(expected[0])
        assert e_printed == pytest.approx(expected[1])

    def test_forms_agree_only_for_idempotent_q(self):
        for q in (0.0, 1.0):
            e_sum, e_printed = angular_spectrum(q, 2)
            assert e_sum == pytest.approx(e_printed)
        e_sum, e_printed = angular_spectrum(2.5, 2)
        assert abs(e_sum - e_printed) > 1.0

    def test_ground_level_is_q(self):
        for q in (0.3, 1.7, 4.2):
            assert angular_spectrum(q, 0)[0] == pytest.approx(q)


class TestShapeInvarianceChain:
    def test_single_step(self):
        chain = shape_invariance_chain(2.0, 1)
        assert chain.a == [2.0, 3.0]
        assert chain.remainders == [5.0]

    def test_two_steps(self):
        chain = shape_invariance_chain(2.0, 2)
        assert chain.remainders == [5.0, 7.0]
        assert sum(chain.remainders) == pytest.approx(12.0)

    def test_odd_numbers_at_zero(self):
        chain = shape_invariance_chain(0.0, 3)
        assert chain.remainders == [1.0, 3.0, 5.0]
        assert sum(chain.remainders) == pytest.approx(9.0)

    @pytest.mark.parametrize("q", [0.37, 1.9946645926, 4.2])
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_telescoping(self, q, n):
        chain = shape_invariance_chain(q, n)
        assert chain.a == pytest.approx([q + k for k in range(n + 1)])
        assert sum(chain.remainders) == pytest.approx(n * n + 2 * n * q, rel=1e-12)

    def test_zero_length(self):
        chain = shape_invariance_chain(1.5, 0)
        assert chain.a == [1.5]
        assert chain.remainders == []

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            shape_invariance_chain(1.0, -1)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_q_that_is_not_finite_rejected(self, q):
        with pytest.raises(DomainError, match=rf"^q must be finite \(got {q}\)$"):
            shape_invariance_chain(q, 2)

    @pytest.mark.parametrize("q", [1e308, -1e200])
    def test_square_that_overflows_is_named(self, q):
        with pytest.raises(DomainError) as info:
            shape_invariance_chain(q, 2)
        assert str(info.value) == (f"shape-invariance chain overflows: a_k^2 is not finite "
                                   f"for q = {q}, n = 2")


class TestLambdaSeparation:
    def test_spin_reference_value(self):
        lam = solver_lambda(14.38516214, 5.0, SPIN_PARAMS, 0, 1)
        assert lam == pytest.approx(6.744661425891834, abs=1e-9)

    def test_pseudospin_reference_value(self):
        lam = solver_lambda(12.11721311, 3.0, PSEUDO_PARAMS, 1, 1,
                            symmetry=Symmetry.PSEUDOSPIN)
        assert lam == pytest.approx(13.77889704915002, abs=1e-9)

    def test_zero_coupling_closed_form(self):
        # w = m = n_theta = 0: q = 1/2 + sqrt(1/2), lambda = q - 1/4
        lam = angular_level(q_of_vtilde(0.25, BranchSign.PLUS.sign), 0) - 0.25
        assert lam == pytest.approx(0.9571067811865475, abs=1e-14)

    @pytest.mark.parametrize("m,ntheta", [(0, 0), (1, 2), (0, 3)])
    def test_matches_q_composition(self, m, ntheta):
        # lambda must equal (n_theta + q)^2 - Vt - 1/4 by construction,
        # Vt = 1/4 - m^2 - 2(E+M)(B+C) under spin symmetry
        E, M = 13.0, 5.0
        vt = 0.25 - m * m - 2.0 * (E + M) * (SPIN_PARAMS.B + SPIN_PARAMS.C)
        q = q_of_vtilde(vt, BranchSign.PLUS)
        lam = solver_lambda(E, M, SPIN_PARAMS, m, ntheta)
        assert lam == pytest.approx((ntheta + q) ** 2 - vt - 0.25, rel=1e-12)

    def test_radicand_failure_raises(self):
        hot = PotentialParams(K=5.0, A=0.0, B=1.0, C=0.0)
        with pytest.raises(DomainError, match="^separation-constant radicand"):
            solver_lambda(10.0, 5.0, hot, 1, 0)

    @pytest.mark.parametrize("branch", list(BranchSign))
    def test_q_once_then_sum_form_per_level(self, branch):
        # The ladder's split: q once, the sum form per n_theta.  Arrays get
        # NaN where the radicand is negative, and the float form's bits
        # elsewhere.
        w = np.array([-3.7, -1.2, -0.6, -0.5, 2.0])
        with np.errstate(invalid="ignore"):
            q = q_of_vtilde(0.25 - 1 - w, branch.sign)
        assert np.isnan(q[-1]) and np.all(np.isfinite(q[:-1]))
        for n_theta in range(3):
            lam = angular_level(q, n_theta) - 0.25
            assert lam[:-1].tobytes() == np.array(
                [angular_level(q_of_vtilde(0.25 - 1 - x, branch.sign), n_theta) - 0.25
                 for x in w[:-1].tolist()]).tobytes()
        with pytest.raises(DomainError, match=r"^separation-constant radicand negative: "
                                              r"1/4 \+ v_tilde = 1/2 - w - m\^2 = -2.5$"):
            q_of_vtilde(0.25 - 1 - 2.0, branch.sign)

    def test_large_coupling_keeps_the_sum_form(self):
        # w = -9e298: lambda is the sum form less 1/4, which no squared
        # form (n_theta + q)^2 = 9e298 and its cancellation come near.
        q = q_of_vtilde(0.25 - 2.0 * (1e300 + 5.0) * (SPIN_PARAMS.B + SPIN_PARAMS.C),
                        BranchSign.PLUS)
        assert solver_lambda(1e300, 5.0, SPIN_PARAMS, 0, 1) == angular_spectrum(q, 1)[0] - 0.25

    def test_orbital_number_real_at_reference_energies(self):
        # l(l+1) = lambda must give a real l for the reference regimes
        for E, m in [(14.38516214, 0), (14.36707671, 1), (16.43488023, 1)]:
            lam = solver_lambda(E, 5.0, SPIN_PARAMS, m, 1)
            assert 0.25 + lam >= 0.0
            assert math.isfinite(-0.5 + math.sqrt(0.25 + lam))


class TestPartnerPotentials:
    def test_equator_values(self):
        # cot(pi/2) = 0 leaves only the constant terms +q / -q
        assert partner_potentials_angular(2.0, math.pi / 2) == pytest.approx((2.0, -2.0))

    def test_quarter_turn_values(self):
        # cot^2(pi/4) = 1: (q^2+q) + q = 3, (q^2-q) - q = -1 at q = 1
        assert partner_potentials_angular(1.0, math.pi / 4) == pytest.approx((3.0, -1.0))

    @pytest.mark.parametrize("q", [1.2, 2.0, 3.7])
    def test_shape_invariance_remainder(self, q):
        for theta in np.linspace(0.2, math.pi - 0.2, 11):
            v_plus, _ = partner_potentials_angular(q, float(theta))
            _, v_minus_next = partner_potentials_angular(q + 1.0, float(theta))
            assert v_plus - v_minus_next == pytest.approx(2.0 * q + 1.0, rel=1e-11, abs=1e-11)

    @pytest.mark.parametrize("q", [0.8, 2.0])
    def test_riccati_construction(self, q):
        # v_-/v_+ must equal W^2 -/+ W' for W = -q cot(theta)
        for theta in (0.4, 1.1, 2.3):
            w = -q / math.tan(theta)
            w_prime = q / math.sin(theta) ** 2
            v_plus, v_minus = partner_potentials_angular(q, theta)
            assert v_minus == pytest.approx(w * w - w_prime, rel=1e-12)
            assert v_plus == pytest.approx(w * w + w_prime, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.5])
    def test_singular_angles_rejected(self, theta):
        with pytest.raises(DomainError):
            partner_potentials_angular(1.0, theta)

    @pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
    def test_q_that_is_not_finite_rejected(self, q):
        with pytest.raises(DomainError, match=rf"^q must be finite \(got {q}\)$"):
            partner_potentials_angular(q, 1.0)

    @pytest.mark.parametrize("q, theta", [
        (1e200, 1.0),       # q^2 overflows
        (1.0, 1e-200),      # cot^2(theta) overflows
    ])
    def test_overflowing_potentials_are_named(self, q, theta):
        with pytest.raises(DomainError) as info:
            partner_potentials_angular(q, theta)
        assert str(info.value) == f"partner potentials overflow at q = {q}, theta = {theta}"


@settings(derandomize=True, max_examples=200)
@given(q=st.integers(-10 * 2**40, 20 * 2**40).map(lambda k: k / 2**40),
       theta=st.floats(0.01, math.pi - 0.01))
def test_angular_partners_are_shape_invariant(q, theta):
    """v+(q) - v-(q + 1) = 2q + 1 at every theta, to a few ulps of the
    largest term of the two potentials.  q is a multiple of 2^-40, so
    q + 1 is exact: the partner is the one shifted exactly by 1."""
    v_plus, _ = partner_potentials_angular(q, theta)
    _, v_minus_next = partner_potentials_angular(q + 1.0, theta)
    cot2 = (math.cos(theta) / math.sin(theta)) ** 2
    largest = max(q * q, (q + 1.0) ** 2, abs(q) + 1.0) * cot2 + abs(q) + 1.0
    assert abs(v_plus - v_minus_next - (2.0 * q + 1.0)) <= 8.0 * math.ulp(largest)


@settings(derandomize=True, max_examples=200)
@given(q=st.floats(0.0, 50.0), n=st.integers(0, 10))
def test_chain_remainders_telescope_to_the_sum_form(q, n):
    """q plus the chain's remainders is the n-th level n^2 + 2nq + q, to a
    few ulps of the largest term, a_n^2."""
    level = q + sum(shape_invariance_chain(q, n).remainders)
    assert abs(level - angular_spectrum(q, n)[0]) <= 8.0 * math.ulp((q + n) ** 2)


class TestAngularGroundState:
    def test_sine_profile_midpoint(self):
        # q = 3/2: G0 ~ sin(theta), norm integral 4/3, peak sqrt(3)/2
        grid = np.linspace(1e-9, math.pi - 1e-9, 2001)
        g = angular_ground_state(1.5, grid)
        assert g[1000] == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-7)

    def test_sine_squared_profile_midpoint(self):
        # q = 5/2: norm integral 16/15, peak sqrt(15)/4
        grid = np.linspace(1e-9, math.pi - 1e-9, 2001)
        g = angular_ground_state(2.5, grid)
        assert g[1000] == pytest.approx(math.sqrt(15.0) / 4.0, abs=1e-7)

    def test_unit_quadrature(self):
        grid = np.linspace(1e-9, math.pi - 1e-9, 2001)
        g = angular_ground_state(2.0, grid)
        integral = np.trapezoid(g**2 * np.sin(grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("q", [0.5, 0.3, -1.0])
    def test_non_normalizable_rejected(self, q):
        with pytest.raises(DomainError, match="q > 1/2"):
            angular_ground_state(q, np.linspace(1e-9, math.pi - 1e-9, 101))

    def test_grid_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            angular_ground_state(2.0, np.linspace(-0.1, 1.0, 50))

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_q_that_is_not_finite_rejected(self, q):
        with pytest.raises(DomainError, match=rf"^q must be finite \(got {q}\)$"):
            angular_ground_state(q, np.linspace(1e-9, math.pi - 1e-9, 101))

    @pytest.mark.parametrize("grid", [
        np.linspace(1e-9, math.pi - 1e-9, 101)[::-1],
        np.array([0.5, 1.0, 1.0, 1.5]),
    ], ids=["descending", "repeated"])
    def test_grid_that_is_not_strictly_ascending_rejected(self, grid):
        with pytest.raises(DomainError, match="^theta grid must be strictly ascending$"):
            angular_ground_state(2.0, grid)

    @pytest.mark.parametrize("q, grid, cause", [
        (1e5, np.linspace(1e-3, 3e-3, 3), "is zero at every grid point"),  # underflow to 0
        (2.0, np.array([0.5, math.nan, 1.5]), "is not finite on the grid"),
    ], ids=["underflow", "nan"])
    def test_collapsed_quadrature_is_named(self, q, grid, cause):
        with pytest.raises(DomainError, match=f"^angular ground state {cause}"):
            angular_ground_state(q, grid)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(q=st.floats(0.5, 20.0, exclude_min=True))
def test_ground_state_norm_is_unit_by_mpmath_quadrature(q):
    """N^2 times the integral of sin^(2q) theta over (0, pi), which is
    |G0|^2 sin(theta) for the bare profile, is 1 within 1e-12.  sin(pi/2)
    is 1.0, so the sample there is N itself."""
    norm = angular_ground_state(q, np.array([math.pi / 4, math.pi / 2, 3 * math.pi / 4]))[1]
    with mpmath.workdps(20):
        integral = mpmath.quad(lambda t: mpmath.sin(t) ** (2 * mpmath.mpf(q)), [0, mpmath.pi])
        assert abs(float(norm ** 2 * integral) - 1.0) <= 1e-12


@settings(derandomize=True, max_examples=300)
@given(log_x=st.floats(-3.0, 298.0), m=st.integers(0, 2), n_theta=st.integers(0, 50),
       branch=st.sampled_from(BranchSign))
def test_lambda_separation_matches_fifty_digits(log_x, m, n_theta, branch):
    """The separation constant as the solver's residual composes it,
    angular_level(q_of_vtilde(1/4 - m^2 - w), n_theta) - 1/4, is
    n^2 + 2nq + q - 1/4 at q = 1/2 +/- sqrt(1/2 - w - m^2) evaluated at 50
    digits from the same coupling w, to a few ulps of its largest term, for
    |w| up to 1e298.  w <= -m^2 keeps the radicand at least 1/2."""
    w = -(m * m + 10.0 ** log_x)
    lam = angular_level(q_of_vtilde(0.25 - m * m - w, branch), n_theta) - 0.25
    with localcontext() as ctx:
        ctx.prec = 50
        q = Decimal(0.5) + int(branch.sign) * (Decimal(0.5) - Decimal(w) - m * m).sqrt()
        exact = n_theta * n_theta + 2 * n_theta * q + q - Decimal(0.25)
        largest = float(n_theta * n_theta + (2 * n_theta + 1) * abs(q) + Decimal(0.25))
        assert abs(Decimal(lam) - exact) <= Decimal(4.0 * math.ulp(largest))


class TestOneHomeForQAndLambda:
    """q_of_vtilde and the sum form angular_level are the only place q and
    lambda are written: a fault in either moves every solve's lambda,
    every thermo level and the angular verify suite, which then fails."""

    REQUEST = SolveRequest(params=SPIN_PARAMS, M=5.0, qn=QuantumNumbers(n_r=1),
                           symmetry=Symmetry.SPIN)

    def outputs(self):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["verify", "--suite", "angular", "--points", "400"])
        return (solve_energy(self.REQUEST).lam,
                nonrelativistic_energy(SPIN_PARAMS, 5.0, QuantumNumbers(n_r=2, n_theta=2)),
                code)

    @pytest.mark.parametrize("name", ["angular_level", "q_of_vtilde"])
    def test_a_wrong_form_moves_every_caller(self, monkeypatch, name):
        lam, level, code = self.outputs()
        assert code == 0
        true_form = getattr(rspho.angular, name)
        # Wherever the form is bound, so a caller holding its own copy of
        # the algebra would keep the true values.
        for module in (rspho.angular, rspho.spectrum, rspho.thermo, rspho.oracle):
            if getattr(module, name, None) is true_form:
                monkeypatch.setattr(module, name, lambda *args: 1.01 * true_form(*args))
        wrong_lam, wrong_level, wrong_code = self.outputs()
        assert wrong_lam != lam
        assert wrong_level != level
        assert wrong_code == 3
