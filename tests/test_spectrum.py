"""Tests for the energy solver and the non-relativistic closed form."""

import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rspho.spectrum
from rspho.errors import DomainError, NoRootError, RsphoError
from rspho.model import (BranchSign, Convention, PotentialParams,
                         QuantumNumbers, SolveRequest, Symmetry)
from rspho.spectrum import (SolverOptions, energy_residual, request_columns,
                            solve_columns, solve_energy)
from rspho.thermo import nonrelativistic_energy

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


@st.composite
def edge_requests(draw):
    """Requests at the edges of validation and of the scan interval: a
    NaN or infinite coefficient, K of the wrong sign, M <= 0 or not
    finite, a negative n_r or n_theta, a quantum number that is not whole,
    B + C = 0 with |m| >= 1 (no slope, no separation constant at any
    energy), |m| large enough to empty the interval, or none of these."""
    req = draw(valid_requests())
    p, qn = req.params, req.qn
    flaw = draw(st.sampled_from(["none", "coefficient", "K sign", "M", "n_r",
                                 "n_theta", "fraction", "zero slope", "large m"]))
    if flaw == "coefficient":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        return dataclasses.replace(req, params=dataclasses.replace(
            p, **{draw(st.sampled_from("KABC")): value}))
    if flaw == "K sign":
        return dataclasses.replace(req, params=dataclasses.replace(p, K=-p.K))
    if flaw == "M":
        return dataclasses.replace(req, M=draw(st.sampled_from(
            [0.0, -0.0, -1.0, math.inf, math.nan])))
    if flaw == "n_r":
        return dataclasses.replace(req, qn=QuantumNumbers(
            n_r=draw(st.integers(-3, -1)), n_theta=qn.n_theta, m=qn.m))
    if flaw == "n_theta":
        return dataclasses.replace(req, qn=QuantumNumbers(
            n_r=qn.n_r, n_theta=draw(st.integers(-3, -1)), m=qn.m))
    if flaw == "fraction":
        numbers = {"n_r": qn.n_r, "n_theta": qn.n_theta, "m": qn.m}
        numbers[draw(st.sampled_from(sorted(numbers)))] += draw(
            st.sampled_from([0.5, 0.25, -0.5]))
        return dataclasses.replace(req, qn=QuantumNumbers(**numbers))
    if flaw == "zero slope":
        m = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        return dataclasses.replace(req, params=dataclasses.replace(p, B=-p.C),
                                   qn=QuantumNumbers(n_r=qn.n_r, n_theta=qn.n_theta, m=m))
    if flaw == "large m":
        m = draw(st.integers(3, 12)) * draw(st.sampled_from([1, -1]))
        return dataclasses.replace(req, qn=QuantumNumbers(
            n_r=qn.n_r, n_theta=qn.n_theta, m=m))
    return req


@st.composite
def grouped_requests(draw):
    """A batch whose rows share scan ends in groups: variations of one
    valid request in A, n_r, n_theta (same ends) and m (other ends), mixed
    with unrelated requests of every kind."""
    base = draw(valid_requests())
    rows = []
    for kind in draw(st.lists(st.sampled_from(["same", "same", "same", "m", "other"]),
                              min_size=1, max_size=40)):
        if kind == "other":
            rows.append(draw(mixed_requests()))
            continue
        qn = QuantumNumbers(n_r=draw(st.integers(0, 6)),
                            n_theta=draw(st.integers(0, 6)),
                            m=base.qn.m if kind == "same" else draw(st.integers(-2, 2)))
        params = dataclasses.replace(base.params, A=base.params.A + draw(st.floats(-1.0, 1.0)))
        rows.append(dataclasses.replace(base, params=params, qn=qn))
    return rows


def columns(requests):
    """The requests' numbers as the (11, R) array that solve_columns takes,
    one column per request, in the row order of request_columns."""
    return np.array(
        [(r.params.K, r.params.A, r.params.B, r.params.C, r.M,
          r.qn.n_r, r.qn.n_theta, r.qn.m, r.symmetry.coupling_sign,
          r.branch.sign, r.convention.coefficient) for r in requests],
        dtype=float).reshape(-1, 11).T


def energies(E):
    """Each energy's repr, None where it is NaN: equal reprs are equal
    bits, since repr prints every float exactly."""
    return [None if math.isnan(e) else repr(e) for e in E.tolist()]


def one_by_one(requests, opts):
    """solve_energy's energy for each request as its repr, None where
    solve_energy raises."""
    out = []
    for req in requests:
        try:
            out.append(repr(solve_energy(req, opts).E))
        except RsphoError:
            out.append(None)
    return out


def assert_no_scan_arrays(exc, scan_points):
    """No frame of the traceback keeps an array of a scan's size alive."""
    tb = exc.__traceback__
    while tb is not None:
        for name, value in tb.tb_frame.f_locals.items():
            assert not (isinstance(value, np.ndarray) and value.size >= scan_points), (
                f"{tb.tb_frame.f_code.co_name} keeps {name} "
                f"({value.size} elements) alive through the traceback")
        tb = tb.tb_next


def scan_windows(requests, opts):
    """(rows, points) of each window of solve_columns' scan of the valid
    requests: every window is _SCAN_CHUNK // rows points wide (at least
    one, at most what is left of the grid), and a row scans until it has
    seen the grid point after its bracket's start, or the whole grid."""
    n = opts.scan_points
    seen = []               # the grid points that each row must see
    for req in requests:
        first, last = rspho.spectrum._scan_ends(req, opts)
        values = energy_residual(np.linspace(first, last, n), req)
        starts = np.flatnonzero(rspho.spectrum._bracket_starts(values))
        seen.append(min(starts[opts.root_index] + 2, n)
                    if len(starts) > opts.root_index else n)
    windows, start = [], 0
    while seen and start < n:
        width = min(max(1, rspho.spectrum._SCAN_CHUNK // len(seen)), n - start)
        windows.append((len(seen), width))
        start += width
        seen = [k for k in seen if k > start]
    return windows


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

    @PROPERTY
    @given(requests=st.one_of(
               valid_requests().map(lambda req: [req] * 3),             # every number shared
               st.lists(valid_requests(), min_size=1, max_size=12),     # numbers per row
               grouped_requests()),                                     # some of each
           data=st.data())
    def test_prepared_batch_rows_match_their_requests(self, requests, data):
        # The batch that _stack prepares, and row subsets of it taken by
        # index as the scan's windows take them, evaluate each row as
        # energy_residual evaluates that row's own request: on a grid row
        # per row, or on one grid row that every row shares.
        batch = rspho.spectrum._stack(columns(requests))
        rows = data.draw(st.lists(st.integers(0, len(requests) - 1), min_size=1,
                                  max_size=2 * len(requests)), label="rows")
        offsets = data.draw(st.lists(st.floats(-30.0, 300.0), min_size=1, max_size=12),
                            label="offsets")
        shared_grid = data.draw(st.booleans(), label="shared_grid")
        subsets = [batch.take(np.array(rows))]
        if rows == list(range(len(requests))):
            subsets.append(batch)
        if shared_grid:
            grid = np.array([[-requests[0].M + x for x in offsets]])
        else:
            grid = np.array([[-requests[i].M + x for x in offsets] for i in rows])
        shape = (len(rows), len(offsets))
        for sub in subsets:
            # One row when every number and the grid are shared.
            values = np.broadcast_to(energy_residual(grid, sub), shape)
            for i, row, E in zip(rows, values, np.broadcast_to(grid, shape)):
                own = energy_residual(E.copy(), requests[i])
                assert [repr(f) for f in row.tolist()] == [repr(f) for f in own.tolist()]
                for e, f in zip(E.tolist(), row.tolist()):
                    try:
                        assert repr(energy_residual(e, requests[i])) == repr(f)
                    except DomainError:
                        assert math.isnan(f)

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
    """solve_columns against solve_energy: each energy NaN exactly where
    solve_energy raises, and with solve_energy's bits elsewhere."""

    # Twice the examples, so that each kind of batch gets as many as one alone.
    @settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)
    @given(requests=st.one_of(st.lists(mixed_requests(), max_size=24), grouped_requests()),
           points=st.sampled_from([512, 16, 1500]), root_index=st.sampled_from([0, 0, 1, 2]),
           e_max_offset=st.sampled_from([None, None, 1e3, 0.5]),
           abs_tol=st.sampled_from([1e-12, 1e-12, 1e-4, 5e-324]))
    def test_matches_solve_energy(self, requests, points, root_index, e_max_offset, abs_tol):
        # 5e-324 leaves only the four-ulp floor, so the polish takes the most steps.
        opts = SolverOptions(scan_points=points, root_index=root_index,
                             e_max_offset=e_max_offset, abs_tol_E=abs_tol)
        E = solve_columns(columns(requests), opts)
        assert E.shape == (len(requests),)
        assert energies(E) == one_by_one(requests, opts)

    @settings(PROPERTY, max_examples=50)
    @given(requests=grouped_requests(), chunk=st.sampled_from([1, 5, 64]),
           points=st.sampled_from([16, 64]), root_index=st.sampled_from([0, 1]))
    def test_small_scan_chunks(self, requests, chunk, points, root_index):
        # A _SCAN_CHUNK below the batch's rows splits the batch into blocks
        # and makes windows one point wide; no scan call exceeds it.
        opts = SolverOptions(scan_points=points, root_index=root_index)
        spectrum = rspho.spectrum
        sizes, polish = [], spectrum._polish_rows

        def recording(E, request):
            values = energy_residual(E, request)
            if None not in sizes:               # a scan call
                sizes.append(values.size)
            return values

        def polishing(*args):
            sizes.append(None)
            return polish(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectrum, "_SCAN_CHUNK", chunk)
            mp.setattr(spectrum, "energy_residual", recording)
            mp.setattr(spectrum, "_polish_rows", polishing)
            E = solve_columns(columns(requests), opts)
        assert energies(E) == one_by_one(requests, opts)
        assert all(size <= chunk for size in sizes if size is not None)

    def test_identical_requests(self):
        # Every number is shared, so the residual comes back as one row.
        requests = [spin_request(n=2)] * 5
        assert energies(solve_columns(columns(requests))) == one_by_one(requests, None)

    @pytest.fixture
    def residual_shapes(self, monkeypatch):
        """Shapes of the arrays that the residual calls made while the test
        runs evaluated (a shared grid row broadcasts against the rows), and
        None for every scalar call."""
        shapes = []

        def recording(E, request):
            values = energy_residual(E, request)
            shapes.append(values.shape if isinstance(E, np.ndarray) else None)
            return values

        monkeypatch.setattr(rspho.spectrum, "energy_residual", recording)
        return shapes

    def test_one_residual_call_scans_the_batch(self, residual_shapes):
        requests = [spin_request(n=n, A=a) for n in (1, 2, 3) for a in (6.0, 7.0, 8.0)]
        invalid = dataclasses.replace(pseudospin_request(), M=-1.0)
        E = solve_columns(columns(requests + [invalid]))
        shapes = list(residual_shapes)
        points = SolverOptions().scan_points
        # The first window is _SCAN_CHUNK // 9 points wide, more than the grid.
        assert rspho.spectrum._SCAN_CHUNK // 9 >= points
        scans = [s for s in shapes if s is not None and s[-1] == points]
        assert scans == [(9, points)]
        assert energies(E) == one_by_one(requests + [invalid], None)
        assert not np.isnan(E[:9]).any() and np.isnan(E[9])
        with pytest.raises(DomainError):
            solve_energy(invalid)
        # The polish steps every row in one (rows, 1) call per step.
        polish = [s for s in shapes if s not in scans]
        assert polish == [(9, 1)] * max(solve_energy(r).iterations for r in requests)
        assert len(polish) <= rspho.spectrum._MAX_POLISH_STEPS

    @pytest.mark.parametrize("layout", ["one-group", "three-groups", "three-groups-interleaved"])
    def test_long_batches_are_scanned_in_chunks(self, residual_shapes, layout):
        # One group: 100 rows with equal scan ends at 1024 points.  Three
        # groups: 24 rows per m, each group with equal scan ends, the shape
        # of a sweep over m, at the default 512 points.  The rows are
        # scanned in the windows that scan_windows predicts from each row's
        # bracket, whatever their order.
        if layout == "one-group":
            requests = [spin_request(A=6.0 + 0.05 * i) for i in range(100)]
            opts = SolverOptions(scan_points=1024)
        else:
            groups = [[pseudospin_request(m=m, A=-5.0 + 0.05 * i) for i in range(24)]
                      for m in (0, 1, 2)]
            requests = [r for g in (groups if layout == "three-groups" else zip(*groups))
                        for r in g]
            opts = SolverOptions()
        points = opts.scan_points
        E = solve_columns(columns(requests), opts)
        windows = scan_windows(requests, opts)
        assert windows[0][0] == len(requests)
        scans, polish = residual_shapes[:len(windows)], residual_shapes[len(windows):]
        assert scans == windows
        assert all(rows * n <= rspho.spectrum._SCAN_CHUNK for rows, n in scans)
        assert energies(E) == one_by_one(requests, opts)
        assert not np.isnan(E).any()
        assert polish == [(len(requests), 1)] * max(solve_energy(r, opts).iterations
                                                    for r in requests)
        assert len(polish) <= rspho.spectrum._MAX_POLISH_STEPS

    @PROPERTY
    @given(requests=grouped_requests(), at=st.floats(0.0, 1.0),
           root_index=st.sampled_from([0, 0, 1]), points=st.sampled_from([512, 64]))
    def test_exact_zero_on_the_grid(self, requests, at, root_index, points):
        # The residual is made exactly 0 at one grid point of the first
        # request's scan, the last point included, wherever it is in the
        # domain; the rows with the same ends share that grid point.
        opts = SolverOptions(scan_points=points, root_index=root_index)
        try:
            first, last = rspho.spectrum._scan_ends(requests[0], opts)
        except RsphoError:
            return
        zero_at = np.linspace(first, last, opts.scan_points)[round(at * (opts.scan_points - 1))]

        def zeroed(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where((E == zero_at) & ~np.isnan(f), 0.0, f)
            return 0.0 if E == zero_at else f

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", zeroed)
            assert energies(solve_columns(columns(requests), opts)) == one_by_one(
                requests, opts)

    @pytest.mark.parametrize("where", ["first bracket", "last point"])
    def test_exact_zero_closes_the_bracket(self, monkeypatch, where):
        opts = SolverOptions(scan_points=64)
        requests = [spin_request(A=a) for a in (6.0, 6.5, 7.0, 7.5)]
        first, last = rspho.spectrum._scan_ends(requests[0], opts)
        grid = np.linspace(first, last, opts.scan_points)
        values = energy_residual(grid, requests[0])
        starts = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        if where == "last point":
            # A zero at the last point is one more bracket, after the others.
            zero_at, opts = grid[-1], dataclasses.replace(opts, root_index=len(starts))
        else:
            zero_at = grid[starts[0]]

        def zeroed(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where(E == zero_at, 0.0, f)
            return 0.0 if E == zero_at else f

        monkeypatch.setattr(rspho.spectrum, "energy_residual", zeroed)
        E = solve_columns(columns(requests), opts)
        assert energies(E) == one_by_one(requests, opts)
        assert E[0] == zero_at
        res = solve_energy(requests[0], opts)
        assert (res.E, res.bracket, res.iterations) == (zero_at, (zero_at, zero_at), 0)
        assert repr(res.residual) == "0.0"

    @PROPERTY
    @given(requests=grouped_requests(), hole=st.sampled_from([1e-6, 1e-10, 1e-13]),
           cap=st.sampled_from([200, 3, 1]))
    def test_failed_polish_rows_fall_back(self, requests, hole, cap):
        # Residuals smaller than ``hole`` are made a domain error (NaN in an
        # array), and the step cap is lowered, so polish points fall in the
        # hole and rows reach the cap: those rows' energies must be NaN
        # exactly where solve_energy raises DomainError or ConvergenceError.
        def holed(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where(np.abs(f) < hole, np.nan, f)
            if abs(f) < hole:
                raise DomainError(f"residual {f!r} inside the hole at E = {E!r}")
            return f

        opts = SolverOptions()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", holed)
            mp.setattr(rspho.spectrum, "_MAX_POLISH_STEPS", cap)
            assert energies(solve_columns(columns(requests), opts)) == one_by_one(
                requests, opts)

    def test_nan_polish_point_never_comes_back_as_a_result(self, monkeypatch):
        # The array residual is NaN near every root while the scalar one
        # returns a number there: the rows still fail.
        def nan_near_roots(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where(np.abs(f) < 1e-6, np.nan, f)
            return f

        monkeypatch.setattr(rspho.spectrum, "energy_residual", nan_near_roots)
        E = solve_columns(columns([spin_request(n=n) for n in (1, 2, 3)]))
        assert np.isnan(E).all()

    @PROPERTY
    @given(requests=grouped_requests())
    def test_shared_grid_gives_the_bits_of_a_full_grid(self, requests):
        # Rows with equal scan ends scan one grid row and fields equal in
        # every row stay floats.  The same rows with every field a column and
        # a grid row each must give the same residuals, and scanned beside a
        # row with other ends and no bracket, so that every window has a
        # grid row per row, the same brackets.
        opts = SolverOptions()
        spectrum = rspho.spectrum
        rows = []
        for req in requests:
            try:
                ends = spectrum._scan_ends(req, opts)
            except RsphoError:
                continue
            if not rows or ends == rows[0][1]:
                rows.append((req, ends))
        if not rows:
            return
        cols = columns([req for req, _ in rows])
        (first, last), n = rows[0][1], len(rows)
        shared = spectrum._stack(cols)
        # What _stack builds with no number shared: every one a column.
        K, A, B, C, M, n_r, n_theta, m, s, sign, c = (col[:, None] for col in cols)
        enums = types.SimpleNamespace(coupling_sign=s, sign=sign, coefficient=c)
        full = SolveRequest(params=PotentialParams(K, A, B, C), M=M,
                            qn=QuantumNumbers(n_r, n_theta, m),
                            symmetry=enums, branch=enums, convention=enums)
        grid = np.linspace(first, last, opts.scan_points)
        one_row = energy_residual(grid, shared)
        every_row = energy_residual(np.tile(grid, (n, 1)), full)
        assert np.broadcast_to(one_row, every_row.shape).tobytes() == every_row.tobytes()
        # A higher rest mass moves both scan ends; far above the scan ceiling,
        # n_r = 10**6 leaves the residual negative on the whole grid.
        extra = dataclasses.replace(rows[0][0], M=rows[0][0].M + 1.0,
                                    qn=dataclasses.replace(rows[0][0].qn, n_r=10**6))
        ends = np.array([(first, last)] * n + [spectrum._scan_ends(extra, opts)]).T
        one_grid = spectrum._scan(cols, *ends[:, :n], opts)
        grid_rows = spectrum._scan(columns([req for req, _ in rows] + [extra]), *ends, opts)
        assert np.isnan(grid_rows[:, -1]).all()
        assert one_grid.tobytes() == grid_rows[:, :n].tobytes()

    def test_empty_batch(self):
        cols = columns([])
        assert cols.shape == (11, 0)
        assert solve_columns(cols).shape == (0,)


class TestScanWindows:
    """solve_columns' scan at the edges of its windows, against solve_energy
    bit for bit.  The batch has 256 rows, so while every row scans, a
    window is _SCAN_CHUNK // 256 grid points wide: spin rows that share one
    grid and change sign only after the second window's first point, and
    pseudo-spin rows with other scan ends."""

    @pytest.fixture
    def batch(self):
        spin = [spin_request(n=1 + i % 3, A=6.0 + 0.01 * i) for i in range(224)]
        pseudo = [pseudospin_request(n=1 + i % 3, A=-5.0 + 0.01 * i) for i in range(32)]
        opts = SolverOptions()
        first, last = rspho.spectrum._scan_ends(spin[0], opts)
        grid = np.linspace(first, last, opts.scan_points)
        width = rspho.spectrum._SCAN_CHUNK // (len(spin) + len(pseudo))
        for req in spin:
            assert rspho.spectrum._scan_ends(req, opts) == (first, last)
            values = energy_residual(grid, req)
            assert np.flatnonzero(values[:-1] * values[1:] <= 0.0)[0] > width
        return spin + pseudo, opts, grid, width

    @pytest.mark.parametrize("root_index", [0, 1])
    @pytest.mark.parametrize("where", ["first point", "overlap point"])
    def test_exact_zero_at_a_window_edge(self, batch, where, root_index):
        # The second window's first point, or the first window's last point
        # that it carries over, is an exact zero of every spin row: bracket
        # 0, counted once, and the sign change after it is bracket 1.
        requests, opts, grid, width = batch
        opts = dataclasses.replace(opts, root_index=root_index)
        zero_at = grid[width if where == "first point" else width - 1]

        def zeroed(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where(E == zero_at, 0.0, f)
            return 0.0 if E == zero_at else f

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", zeroed)
            E = solve_columns(columns(requests), opts)
            assert energies(E) == one_by_one(requests, opts)
        spin = E[:224]
        assert (spin == zero_at).all() if root_index == 0 else (spin > zero_at).all()

    def test_exact_zero_at_the_last_grid_point(self, batch):
        # After the spin rows' sign change, an exact zero at the grid's last
        # point is bracket 1.  At 1500 points, i*step + first misses that
        # point by an ulp, and the grid holds the last scan point itself.
        requests, opts, _, _ = batch
        opts = dataclasses.replace(opts, scan_points=1500, root_index=1)
        first, last = rspho.spectrum._scan_ends(requests[0], opts)
        assert 1499 * ((last - first) / 1499) + first != last

        def zeroed(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where(E == last, 0.0, f)
            return 0.0 if E == last else f

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", zeroed)
            E = solve_columns(columns(requests), opts)
            assert energies(E) == one_by_one(requests, opts)
        assert (E[:224] == last).all()

    @pytest.mark.parametrize("splits, root_index", [
        ([1.0], 0), ([0.5, 1.5], 1), ([0.5, 1.5, 2.5], 2), ([1.0, 2.0, 3.0], 2),
    ], ids=["straddle", "index-1", "index-2", "index-2-straddles"])
    def test_sign_changes_in_other_windows(self, batch, splits, root_index):
        # The residual's size with its sign flipped at grid points
        # split * width: each flip starts a bracket at the point before it,
        # inside a window or at one window's last point (a whole split).
        # The counts of the earlier brackets carry from window to window.
        requests, opts, grid, width = batch
        opts = dataclasses.replace(opts, root_index=root_index)
        flips = [round(k * width) for k in splits]

        def flipped(E, request):
            f = energy_residual(E, request)
            odd = sum(E >= grid[i] for i in flips) % 2 == 1
            if isinstance(E, np.ndarray):
                return np.where(odd, np.abs(f), -np.abs(f))
            return abs(f) if odd else -abs(f)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", flipped)
            E = solve_columns(columns(requests), opts)
            assert energies(E) == one_by_one(requests, opts)
        i = flips[root_index]
        assert ((grid[i - 1] <= E[:224]) & (E[:224] <= grid[i])).all()
        assert not np.isnan(E).any()

    @pytest.mark.parametrize("chunk", [None, 64], ids=["one-block", "four-blocks"])
    def test_batch_is_prepared_once(self, batch, chunk):
        # The scan walks several windows, and at a _SCAN_CHUNK of 64 four
        # blocks of rows, but solve_columns prepares its batch once.
        requests, opts, _, _ = batch
        spectrum = rspho.spectrum
        stacked, scans, stack = [], [], spectrum._stack

        def counting(E, request):
            values = energy_residual(E, request)
            if E.shape[-1] > 1:
                scans.append(values.shape)
            return values

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectrum, "_stack", lambda cols: stacked.append(cols.shape) or stack(cols))
            mp.setattr(spectrum, "energy_residual", counting)
            if chunk is not None:
                mp.setattr(spectrum, "_SCAN_CHUNK", chunk)
            E = solve_columns(columns(requests), opts)
        assert stacked == [(11, len(requests))]
        blocks = -(-len(requests) // spectrum._SCAN_CHUNK) if chunk is None else 4
        assert len(scans) > blocks
        assert energies(E) == one_by_one(requests, opts)

    def test_row_without_a_bracket_sees_every_grid_point_once(self, batch, monkeypatch):
        # n_r = 1000 puts the state above the scan ceiling: no sign change.
        requests, opts, grid, width = batch
        requests = requests[:100] + [spin_request(n=1000)] + requests[101:]
        seen, calls = [], []

        def counting(E, request):
            values = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                lone = np.broadcast_to(np.equal(request.qn.n_r, 1000), values.shape)
                seen.extend(np.broadcast_to(E, values.shape)[lone].tolist())
                calls.append(values.shape)
            return values

        monkeypatch.setattr(rspho.spectrum, "energy_residual", counting)
        cols = columns(requests)
        bracket = rspho.spectrum._scan(cols, *rspho.spectrum._scan_ends(cols, opts), opts)
        assert np.isnan(bracket).any(axis=0).tolist() == [i == 100 for i in range(len(requests))]
        assert len(calls) > 2 and calls[0] == (len(requests), width)
        assert [repr(e) for e in sorted(seen)] == [repr(e) for e in grid.tolist()]
        monkeypatch.undo()
        E = solve_columns(cols, opts)
        assert energies(E) == one_by_one(requests, opts)
        assert np.isnan(E[100]) and not np.isnan(np.delete(E, 100)).any()


class TestColumnForms:
    """The array forms of validation and of the scan ends, over the columns
    of many requests, against the scalar ones."""

    @PROPERTY
    @given(requests=st.lists(edge_requests(), min_size=1, max_size=30),
           e_max_offset=st.sampled_from([None, None, 1e3, 0.5, 1e-3]))
    def test_scan_ends_match_the_scalar(self, requests, e_max_offset):
        # NaN exactly where the scalar form raises, its bits everywhere else.
        opts = SolverOptions(e_max_offset=e_max_offset)
        first, last = rspho.spectrum._scan_ends(columns(requests), opts)
        for req, ends in zip(requests, zip(first.tolist(), last.tolist())):
            try:
                expected = rspho.spectrum._scan_ends(req, opts)
            except RsphoError:
                assert math.isnan(ends[0]) and math.isnan(ends[1]), req
                continue
            assert repr(ends) == repr(expected), req

    @PROPERTY
    @given(requests=st.lists(edge_requests(), min_size=1, max_size=20),
           e_max_offset=st.sampled_from([None, None, 0.5]))
    def test_solve_columns_fails_where_solve_energy_raises(self, requests, e_max_offset):
        opts = SolverOptions(e_max_offset=e_max_offset)
        E = solve_columns(columns(requests), opts)
        for req, e, expected in zip(requests, energies(E), one_by_one(requests, opts)):
            assert e == expected, req

    def test_whole_float_quantum_number_solves(self):
        # Columns are floats, so a quantum number is checked by value: n_r =
        # 1.0 gives solve_energy's energy at n_r = 1, while solve_energy
        # raises for the float itself.
        req = spin_request(n=1)
        p = req.params
        cols = request_columns(p.K, p.A, p.B, p.C, req.M, n_r=np.array([1.0]),
                               n_theta=1.0, m=0.0, symmetry=Symmetry.SPIN)
        expected = solve_energy(req).E
        assert energies(solve_columns(cols)) == [repr(expected)]
        assert round(expected, 8) == 14.38516214
        with pytest.raises(DomainError, match="n_r must be an integer"):
            solve_energy(dataclasses.replace(req, qn=QuantumNumbers(n_r=1.0)))

    @settings(PROPERTY, max_examples=50)
    @given(requests=st.lists(valid_requests(), min_size=1, max_size=10),
           symmetry=st.sampled_from(Symmetry), branch=st.sampled_from(BranchSign),
           convention=st.sampled_from(Convention))
    def test_request_columns_is_the_layout_of_columns(self, requests, symmetry,
                                                      branch, convention):
        requests = [dataclasses.replace(r, symmetry=symmetry, branch=branch,
                                        convention=convention) for r in requests]
        numbers = {name: np.array([getattr(r.params, name) for r in requests])
                   for name in "KABC"}
        cols = request_columns(**numbers, M=np.array([r.M for r in requests]),
                               n_r=np.array([r.qn.n_r for r in requests]),
                               n_theta=np.array([r.qn.n_theta for r in requests]),
                               m=np.array([r.qn.m for r in requests]),
                               symmetry=symmetry, branch=branch, convention=convention)
        assert cols.tobytes() == columns(requests).tobytes()


class TestSolverOptions:
    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverOptions(abs_tol_E=0.0)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_tolerance_that_is_not_finite(self, tol):
        # An infinite tolerance would end the polish before its first step.
        with pytest.raises(ValueError, match="finite"):
            SolverOptions(abs_tol_E=tol)

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
