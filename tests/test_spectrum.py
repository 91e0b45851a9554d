"""Tests for the energy solver and the non-relativistic closed form."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rspho.spectrum
from rspho.errors import DomainError, NoRootError, RsphoError
from rspho.model import (BranchSign, Convention, PotentialParams,
                         QuantumNumbers, SolveRequest, Symmetry)
from rspho.spectrum import (SolverOptions, energy_residual,
                            nonrelativistic_energy, solve_energies,
                            solve_energy)

from table_data import (PSEUDOSPIN_SET, SPIN_SET, pseudospin_cases,
                        spin_cases)

# Property tests draw the same examples on every run.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)


def spin_request(n=1, m=0, A=6.0, convention=Convention.TABLE_CONSISTENT):
    params = PotentialParams(K=SPIN_SET["K"], A=A, B=SPIN_SET["B"], C=SPIN_SET["C"])
    return SolveRequest(params=params, M=SPIN_SET["M"],
                        qn=QuantumNumbers(n_r=n, m=m), symmetry=Symmetry.SPIN,
                        convention=convention)


def pseudospin_request(n=1, m=0, A=-5.0):
    params = PotentialParams(K=PSEUDOSPIN_SET["K"], A=A, B=PSEUDOSPIN_SET["B"],
                             C=PSEUDOSPIN_SET["C"])
    return SolveRequest(params=params, M=PSEUDOSPIN_SET["M"],
                        qn=QuantumNumbers(n_r=n, m=m), symmetry=Symmetry.PSEUDOSPIN)


class TestEnergyResidual:
    def test_small_at_spin_reference(self):
        assert abs(energy_residual(14.38516214, spin_request())) < 1e-6

    def test_small_at_pseudospin_reference(self):
        assert abs(energy_residual(12.12523736, pseudospin_request())) < 1e-6

    def test_negative_at_rest_mass(self):
        # LHS vanishes at E = M while the RHS is strictly positive
        assert energy_residual(SPIN_SET["M"], spin_request()) < 0.0

    def test_nonpositive_total_energy_rejected(self):
        with pytest.raises(DomainError, match=r"E \+ M"):
            energy_residual(-6.0, spin_request())

    def test_radial_radicand_failure_named(self):
        # drive delta' far negative with a large negative A under spin symmetry
        req = spin_request(A=-40.0)
        with pytest.raises(DomainError, match="radial radicand"):
            energy_residual(5.5, req)


@st.composite
def valid_requests(draw):
    """Requests that pass validate(): K of the symmetry's sign, M > 0, and
    couplings around the two reference parameter sets."""
    spin = draw(st.booleans())
    real = st.floats
    if spin:
        params = PotentialParams(K=draw(real(0.5, 10.0)), A=draw(real(0.0, 10.0)),
                                 B=draw(real(-0.3, 0.1)), C=draw(real(-0.05, 0.05)))
    else:
        params = PotentialParams(K=draw(real(-10.0, -0.5)), A=draw(real(-8.0, 0.0)),
                                 B=draw(real(0.0, 1.0)), C=draw(real(-0.05, 0.05)))
    return SolveRequest(
        params=params, M=draw(real(0.5, 10.0)),
        qn=QuantumNumbers(n_r=draw(st.integers(0, 6)), n_theta=draw(st.integers(0, 6)),
                          m=draw(st.integers(-2, 2))),
        symmetry=Symmetry.SPIN if spin else Symmetry.PSEUDOSPIN,
        branch=draw(st.sampled_from(BranchSign)),
        convention=draw(st.sampled_from(Convention)))


@st.composite
def mixed_requests(draw):
    """Valid requests, requests validate() rejects, requests outside the
    domain (no separation constant at any energy) and high-n_r requests."""
    req = draw(valid_requests())
    kind = draw(st.sampled_from(["valid", "valid", "valid", "rejected", "outside",
                                 "high_nr"]))
    if kind == "rejected":
        flaw = draw(st.sampled_from(["K", "M", "n_r", "A"]))
        if flaw == "K":
            return dataclasses.replace(
                req, params=dataclasses.replace(req.params, K=-req.params.K))
        if flaw == "M":
            return dataclasses.replace(req, M=draw(st.sampled_from([0.0, -1.0, math.inf])))
        if flaw == "n_r":
            return dataclasses.replace(req, qn=QuantumNumbers(n_r=-1, m=req.qn.m))
        return dataclasses.replace(
            req, params=dataclasses.replace(req.params, A=math.nan))
    if kind == "outside":
        # B + C = 0 leaves 1/2 - m^2 as the separation radicand for every E
        params = dataclasses.replace(req.params, B=-req.params.C)
        return dataclasses.replace(req, params=params,
                                   qn=QuantumNumbers(n_r=req.qn.n_r,
                                                     m=draw(st.integers(1, 3))))
    if kind == "high_nr":
        return dataclasses.replace(req, qn=QuantumNumbers(
            n_r=draw(st.integers(1000, 2500)), m=req.qn.m))
    return req


def assert_no_scan_arrays(exc, scan_points):
    """No frame of the traceback keeps an array of a scan's size alive."""
    tb = exc.__traceback__
    while tb is not None:
        for name, value in tb.tb_frame.f_locals.items():
            assert not (isinstance(value, np.ndarray) and value.size >= scan_points), (
                f"{tb.tb_frame.f_code.co_name} keeps {name} "
                f"({value.size} elements) alive through the traceback")
        tb = tb.tb_next


def reference_requests():
    """(request, E_ref) for the 24 spin and 54 pseudo-spin reference energies."""
    for param_set, cases in ((SPIN_SET, spin_cases()),
                             (PSEUDOSPIN_SET, pseudospin_cases())):
        for n, m, a, e_ref in cases:
            params = PotentialParams(K=param_set["K"], A=a, B=param_set["B"],
                                     C=param_set["C"])
            yield SolveRequest(params=params, M=param_set["M"],
                               qn=QuantumNumbers(n_r=n, m=m),
                               symmetry=Symmetry(param_set["symmetry"])), e_ref


class TestResidualKernel:
    @PROPERTY
    @given(req=valid_requests(),
           offsets=st.lists(st.floats(-30.0, 300.0), min_size=1, max_size=40))
    def test_array_matches_scalar(self, req, offsets):
        # E = -M + offset puts energies on both sides of E + M = 0 and across
        # the separation-constant and radial radicand boundaries.
        energies = [-req.M + x for x in offsets] + [-req.M]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = energy_residual(np.array(energies), req)
        assert values.shape == (len(energies),)
        for e, f in zip(energies, values):
            try:
                scalar = energy_residual(e, req)
            except DomainError:
                assert math.isnan(f), f"array gave {f} where the scalar raised at E = {e}"
            else:
                assert np.float64(scalar).tobytes() == f.tobytes(), (e, scalar, f)

    def test_scan_is_one_array_call_then_scalar_steps(self, monkeypatch):
        calls = []

        def recording(E, request):
            calls.append(np.size(E) if isinstance(E, np.ndarray) else None)
            return energy_residual(E, request)

        monkeypatch.setattr(rspho.spectrum, "energy_residual", recording)
        res = solve_energy(spin_request())
        assert calls[0] == SolverOptions().scan_points
        assert calls[1:] == [None] * res.iterations


class TestSolveEnergy:
    def test_spin_anchor(self):
        res = solve_energy(spin_request())
        assert res.E == pytest.approx(14.38516214, abs=1e-6)

    def test_pseudospin_anchors(self):
        assert solve_energy(pseudospin_request()).E == pytest.approx(12.12523736, abs=1e-6)
        assert solve_energy(pseudospin_request(n=3, m=2, A=-2.5)).E == pytest.approx(12.97434270, abs=1e-6)
        assert solve_energy(pseudospin_request(n=2, m=2, A=-5.0)).E == pytest.approx(13.34829750, abs=1e-6)

    def test_result_invariants(self):
        opts = SolverOptions()
        res = solve_energy(spin_request(n=2, m=1), opts)
        assert abs(res.residual) <= opts.abs_tol_E * max(1.0, abs(res.E))
        assert res.bracket[0] <= res.E <= res.bracket[1]
        assert res.E > SPIN_SET["M"]
        assert res.root_count_in_scan >= 1
        assert res.iterations > 0
        # delta solves delta*(delta+1) = delta' = 2*A*(E+M) + lambda under spin symmetry
        assert res.delta * (res.delta + 1.0) == pytest.approx(
            2.0 * 6.0 * (res.E + 5.0) + res.lam, rel=1e-9)

    def test_deterministic(self):
        first = solve_energy(spin_request(n=3, m=1, A=7.0))
        second = solve_energy(spin_request(n=3, m=1, A=7.0))
        assert first.E == second.E
        assert first.iterations == second.iterations

    def test_equation_convention_root_larger(self):
        e_table = solve_energy(spin_request()).E
        e_equation = solve_energy(spin_request(convention=Convention.EQUATION_CONSISTENT)).E
        assert e_equation > e_table + 1.0

    def test_monotone_trends(self):
        # increasing A raises E; increasing n raises E; larger |m| lowers E
        assert solve_energy(spin_request(A=6.5)).E > solve_energy(spin_request(A=6.0)).E
        assert solve_energy(spin_request(n=2)).E > solve_energy(spin_request(n=1)).E
        assert solve_energy(spin_request(m=1)).E < solve_energy(spin_request(m=0)).E
        # pseudospin set: E falls as A rises toward zero
        assert solve_energy(pseudospin_request(A=-4.5)).E < solve_energy(pseudospin_request(A=-5.0)).E

    def test_invalid_request_raises_domain_error(self):
        req = SolveRequest(params=PotentialParams(K=-5.0, A=6.0, B=-0.05, C=0.005),
                           M=5.0, qn=QuantumNumbers(n_r=1), symmetry=Symmetry.SPIN)
        with pytest.raises(DomainError, match="K must be positive"):
            solve_energy(req)

    def test_empty_validity_region(self):
        # B + C = 0 with |m| >= 1 leaves the angular radicand negative everywhere
        req = SolveRequest(params=PotentialParams(K=5.0, A=6.0, B=0.1, C=-0.1),
                           M=5.0, qn=QuantumNumbers(n_r=1, m=1), symmetry=Symmetry.SPIN)
        with pytest.raises(NoRootError):
            solve_energy(req)

    def test_scan_ceiling_too_low(self):
        with pytest.raises(NoRootError, match="no sign change"):
            solve_energy(spin_request(), SolverOptions(e_max_offset=0.1))

    def test_root_index_out_of_range(self):
        with pytest.raises(NoRootError, match="root index"):
            solve_energy(spin_request(), SolverOptions(root_index=5))

    @pytest.mark.parametrize("options", [SolverOptions(e_max_offset=0.1),
                                         SolverOptions(root_index=5)])
    def test_no_root_error_holds_no_scan_arrays(self, options):
        with pytest.raises(NoRootError) as info:
            solve_energy(spin_request(), options)
        assert_no_scan_arrays(info.value, options.scan_points)

    def test_large_mass_converges(self):
        # exercises the relative tolerance floor far above the absolute one
        req = SolveRequest(params=PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005),
                           M=1e4, qn=QuantumNumbers(n_r=1), symmetry=Symmetry.SPIN)
        res = solve_energy(req)
        assert res.E > 1e4
        assert abs(res.residual) <= 1e-12 * res.E


class TestPolish:
    def test_reference_requests(self):
        # The references are printed to 8 decimals, so even the exact root of
        # one of them lies 4.906e-9 from its printed value.
        for req, e_ref in reference_requests():
            res = solve_energy(req)
            assert abs(res.E - e_ref) <= 4.906e-9, (req, res.E, e_ref)
            assert abs(res.residual) <= 1e-12 * max(1.0, abs(res.E))
            assert res.bracket[0] <= res.E <= res.bracket[1]
            assert res.iterations <= 12

    @PROPERTY
    @given(req=valid_requests())
    def test_root_within_tolerance(self, req):
        # A sign change of the residual within the stop width of E certifies
        # that a root lies that close, whatever method found E.
        opts = SolverOptions()
        try:
            res = solve_energy(req, opts)
        except NoRootError:
            return
        lo, hi = res.bracket
        assert lo <= res.E <= hi
        assert res.residual == energy_residual(res.E, req)
        width = opts.abs_tol_E + 4.0 * np.finfo(float).eps * abs(res.E)
        left = energy_residual(max(lo, res.E - width), req)
        right = energy_residual(min(hi, res.E + width), req)
        assert left * right <= 0.0, (res, left, right)


class TestSolveEnergies:
    @PROPERTY
    @given(requests=st.lists(mixed_requests(), max_size=24),
           points=st.sampled_from([512, 16, 1500]), root_index=st.sampled_from([0, 0, 1]),
           e_max_offset=st.sampled_from([None, None, 1e3, 0.5]))
    def test_matches_solve_energy(self, requests, points, root_index, e_max_offset):
        opts = SolverOptions(scan_points=points, root_index=root_index,
                             e_max_offset=e_max_offset)
        batch = solve_energies(requests, opts)
        assert len(batch) == len(requests)
        for req, got in zip(requests, batch):
            try:
                want = solve_energy(req, opts)
            except RsphoError as exc:
                assert (type(got), str(got)) == (type(exc), str(exc)), req
            else:
                # repr prints every float exactly, so equal reprs are equal bits
                assert repr(got) == repr(want), req

    @pytest.fixture
    def scan_shapes(self, monkeypatch):
        """Shapes of the array residual calls made while the test runs."""
        shapes = []

        def recording(E, request):
            if isinstance(E, np.ndarray):
                shapes.append(E.shape)
            return energy_residual(E, request)

        monkeypatch.setattr(rspho.spectrum, "energy_residual", recording)
        return shapes

    def test_one_residual_call_scans_the_batch(self, scan_shapes):
        requests = [spin_request(n=n, A=a) for n in (1, 2, 3) for a in (6.0, 7.0, 8.0)]
        invalid = dataclasses.replace(pseudospin_request(), M=-1.0)
        results = solve_energies(requests + [invalid])
        assert scan_shapes == [(9, SolverOptions().scan_points)]
        assert all(not isinstance(r, RsphoError) for r in results[:9])
        assert isinstance(results[9], DomainError)

    def test_long_batches_are_scanned_in_chunks(self, scan_shapes):
        requests = [spin_request(A=6.0 + 0.05 * i) for i in range(100)]
        solve_energies(requests, SolverOptions(scan_points=1024))
        assert sum(rows for rows, _ in scan_shapes) == len(requests)
        assert all(points == 1024 for _, points in scan_shapes)
        assert 1 < len(scan_shapes) < len(requests)

    def test_empty_batch(self):
        assert solve_energies([]) == []

    @pytest.mark.parametrize("options", [SolverOptions(e_max_offset=0.1),
                                         SolverOptions(root_index=5)])
    def test_returned_errors_hold_no_scan_arrays(self, options):
        requests = [spin_request(n=n) for n in range(6)] + [pseudospin_request(n=1)]
        results = solve_energies(requests, options)
        assert all(isinstance(r, NoRootError) for r in results)
        for exc in results:
            assert_no_scan_arrays(exc, options.scan_points)


class TestSolverOptions:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverOptions(abs_tol_E=0.0)

    def test_rejects_bad_scan(self):
        with pytest.raises(ValueError):
            SolverOptions(scan_points=1)

    def test_rejects_negative_root_index(self):
        with pytest.raises(ValueError):
            SolverOptions(root_index=-1)


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
