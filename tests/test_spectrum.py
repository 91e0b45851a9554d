"""Tests for the energy solver."""

import contextlib
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rspho.spectrum
from rspho.angular import angular_level, q_of_vtilde
from rspho.errors import DomainError, NoRootError, RsphoError
from rspho.model import (BranchSign, Convention, PotentialParams,
                         QuantumNumbers, SolveRequest, Symmetry)
from rspho.radial import radial_terms_from_terms
from rspho.spectrum import energy_residual, solve_cells, solve_columns, solve_energy

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


@st.composite
def scan_edge_requests(draw):
    """Valid requests moved to the edges of the scan: a tiny K or M, a
    B + C that is 0 or tiny (a separation edge far away, or none), or an
    n_r whose root lies above the scan ceiling."""
    req = draw(valid_requests())
    p = req.params
    edge = draw(st.sampled_from(["K", "M", "B + C", "n_r"]))
    tiny = draw(st.sampled_from([5e-324, 1e-300, 1e-12, 1e-6]))
    if edge == "K":
        return dataclasses.replace(req, params=dataclasses.replace(
            p, K=math.copysign(tiny, p.K)))
    if edge == "M":
        return dataclasses.replace(req, M=tiny)
    if edge == "B + C":
        return dataclasses.replace(req, params=dataclasses.replace(
            p, B=-p.C + draw(st.sampled_from([0.0, tiny, -tiny]))))
    return dataclasses.replace(req, qn=QuantumNumbers(
        n_r=draw(st.integers(1000, 2500)), n_theta=req.qn.n_theta, m=req.qn.m))


# A spin request whose scan grid holds no sign change: four of its points
# lie inside the domain.
NO_SIGN_CHANGE = SolveRequest(
    params=PotentialParams(K=16.97, A=-2.887, B=-0.3846, C=0.0781), M=0.3585,
    qn=QuantumNumbers(n_r=0, n_theta=3, m=1), symmetry=Symmetry.SPIN)


def float_bits(scan):
    """A scan's result with each float as its hex form, which tells -0.0
    from 0.0; a count of points stays an int."""
    return scan if type(scan) is int else tuple(x.hex() for x in scan)


def columns(requests):
    """The requests' eleven numbers in solve_columns' order, each a 1-D
    array of one value per request."""
    return tuple(np.array(
        [(r.params.K, r.params.A, r.params.B, r.params.C, r.M,
          r.qn.n_r, r.qn.n_theta, r.qn.m, r.symmetry.coupling_sign,
          r.branch.sign, r.convention.coefficient) for r in requests],
        dtype=float).reshape(-1, 11).T)


def table_numbers(requests):
    """columns(requests), with each number that every request shares
    given as one float, as a table or a sweep gives it."""
    return tuple(x[0].item() if x.size and (x == x[0]).all() else x
                 for x in columns(requests))


def prepared(numbers):
    """The terms that solve_columns builds from its numbers when every
    request is valid: a float stays one, an array becomes a column."""
    return rspho.spectrum._terms(*(x if type(x) is float else x[:, None] for x in numbers))


def energies(E):
    """Each energy's repr, None where it is NaN: equal reprs are equal
    bits, since repr prints every float exactly."""
    return [None if math.isnan(e) else repr(e) for e in E.tolist()]


def ceiling_for(offset):
    """The _SCAN_CEILING that ends a scan at M + offset where |K| = 5, the
    |K| of both reference sets."""
    return offset / math.sqrt(5.0)


@contextlib.contextmanager
def scan_grid(points=None, ceiling=None):
    """_SCAN_POINTS and _SCAN_CEILING patched while the block runs (None
    keeps the constant); yields the MonkeyPatch, for more patches."""
    with pytest.MonkeyPatch.context() as mp:
        if points is not None:
            mp.setattr(rspho.spectrum, "_SCAN_POINTS", points)
        if ceiling is not None:
            mp.setattr(rspho.spectrum, "_SCAN_CEILING", ceiling)
        yield mp


def one_by_one(requests, abs_tol_E=1e-12):
    """solve_energy's energy for each request as its repr, None where
    solve_energy raises."""
    out = []
    for req in requests:
        try:
            out.append(repr(solve_energy(req, abs_tol_E).E))
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


def scan_windows(requests):
    """(rows, points) of each window of solve_columns' scan of the valid
    requests: every window is _SCAN_CHUNK // rows points wide (at least
    one, at most what is left of the grid), and a row scans until it has
    seen the grid point after its bracket's start, or the whole grid."""
    n = rspho.spectrum._SCAN_POINTS
    seen = []               # the grid points that each row must see
    for req in requests:
        first, last = rspho.spectrum._scan_ends(req)
        values = energy_residual(np.linspace(first, last, n), req)
        starts = np.flatnonzero(rspho.spectrum._bracket_starts(values))
        seen.append(min(starts[0] + 2, n) if len(starts) else n)
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
        # The terms that _terms computes from a batch, a shared number a
        # float and the others columns, and row subsets of them taken by
        # index as the scan's windows take them, evaluate each row as
        # energy_residual evaluates that row's own request: on a grid row
        # per row, or on one grid row that every row shares.
        terms = prepared(table_numbers(requests))
        rows = data.draw(st.lists(st.integers(0, len(requests) - 1), min_size=1,
                                  max_size=2 * len(requests)), label="rows")
        offsets = data.draw(st.lists(st.floats(-30.0, 300.0), min_size=1, max_size=12),
                            label="offsets")
        shared_grid = data.draw(st.booleans(), label="shared_grid")
        subsets = [rspho.spectrum._take(terms, np.array(rows))]
        if rows == list(range(len(requests))):
            subsets.append(terms)
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
        assert calls[0] == rspho.spectrum._SCAN_POINTS == 512
        assert calls[1:] == [None] * res.iterations

    @settings(PROPERTY, max_examples=50)
    @given(req=valid_requests())
    def test_terms_are_prepared_once_per_solve(self, req):
        # The scan, every polish step and the result share one terms tuple.
        calls = []

        def counting(*numbers):
            calls.append(numbers)
            return terms(*numbers)

        terms = rspho.spectrum._terms
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "_terms", counting)
            try:
                res = solve_energy(req)
            except NoRootError as exc:
                # An empty scan interval raises before the terms are made.
                assert len(calls) == (str(exc).startswith("no sign change"))
                return
        assert len(calls) == 1

    @PROPERTY
    @given(first=st.floats(-1e12, 1e12),
           span=st.one_of(st.floats(-1e12, 1e12),
                          st.floats(-1e3, 1e3).map(lambda x: x * 1e-9),
                          st.sampled_from([0.0, -0.0])),
           scale=st.sampled_from([1.0, 1e-9, 1e6]))
    @example(first=0.1, span=15.97, scale=1.0)
    def test_scalar_scan_grid_is_linspace(self, first, span, scale):
        # The grid that _scan_one evaluates in one array, and _scan_floats
        # point by point, has np.linspace's bits, for ends of either sign,
        # large or small, the same or a margin's width apart, and even in
        # the wrong order.  From 0.1 to 16.07, 511*step + first is not the
        # last point.
        first *= scale
        last = first + span * max(1.0, abs(first))
        points = []

        def recording(E, terms):
            if isinstance(E, np.ndarray):
                points.extend(E.tolist())
                return np.full(E.shape, np.nan)
            points.append(E)
            return math.nan

        expected = np.linspace(first, last, rspho.spectrum._SCAN_POINTS)
        for scan in (rspho.spectrum._scan_one, rspho.spectrum._scan_floats):
            points.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rspho.spectrum, "energy_residual", recording)
                assert scan(None, first, last) == 0
            assert np.array(points).tobytes() == expected.tobytes()

    @PROPERTY
    @given(req=st.one_of(valid_requests(), scan_edge_requests()))
    @example(req=NO_SIGN_CHANGE)
    def test_float_scan_is_the_array_scan(self, req):
        # _scan_floats, which solve_energy runs where numpy is not loaded,
        # returns _scan_one's bracket bit for bit, or, without a bracket,
        # its count of points inside the domain.
        try:
            first, last = rspho.spectrum._scan_ends(req)
        except RsphoError:
            return
        terms = rspho.spectrum._request_terms(req)
        assert (float_bits(rspho.spectrum._scan_floats(terms, first, last))
                == float_bits(rspho.spectrum._scan_one(terms, first, last)))

    @pytest.mark.parametrize("zeros, expected", [
        ([0], (0.0, 0.0, 0.0, 0.0)),
        ([200], (200.0, 200.0, 0.0, 0.0)),
        ([511], (511.0, 511.0, 0.0, 0.0)),
        ([200, 300], (200.0, 200.0, 0.0, 0.0)),
        ([200.5], (200.0, 201.0, 0.5, -0.5)),
        ([199.5, 200], (200.0, 200.0, 0.0, 0.0)),
    ], ids=["first", "middle", "last", "two-zeros", "sign-change", "into-minus-zero"])
    def test_float_and_array_scans_pick_the_same_first_bracket(self, zeros, expected):
        # On the grid 0, 1, ..., 511 a residual that is 0 at each point of
        # ``zeros`` (a half-integer one changes sign between two grid
        # points) gives both scans the same first bracket: an exact zero
        # on the grid, -0.0 included, is the bracket (E, E, 0.0, 0.0).
        def residual(E, terms):
            f = 1.0
            for z in zeros:
                f = f * (z - E)
            return f

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", residual)
            scans = [scan(None, 0.0, 511.0) for scan in (rspho.spectrum._scan_floats,
                                                         rspho.spectrum._scan_one)]
        assert float_bits(scans[0]) == float_bits(scans[1]) == float_bits(expected)

    def test_scans_without_a_sign_change_count_the_same_points(self):
        # The spin example whose grid holds four points inside the domain
        # and no sign change, the case that "4 of 512 points inside the
        # domain" reports.
        terms = rspho.spectrum._request_terms(NO_SIGN_CHANGE)
        ends = rspho.spectrum._scan_ends(NO_SIGN_CHANGE)
        assert rspho.spectrum._scan_floats(terms, *ends) == 4
        assert rspho.spectrum._scan_one(terms, *ends) == 4


class TestSolveEnergy:
    def test_spin_anchor(self):
        res = solve_energy(spin_request())
        assert res.E == pytest.approx(14.38516214, abs=1e-6)

    def test_pseudospin_anchors(self):
        assert solve_energy(pseudospin_request()).E == pytest.approx(12.12523736, abs=1e-6)
        assert solve_energy(pseudospin_request(n=3, m=2, A=-2.5)).E == pytest.approx(12.97434270, abs=1e-6)
        assert solve_energy(pseudospin_request(n=2, m=2, A=-5.0)).E == pytest.approx(13.34829750, abs=1e-6)

    def test_result_invariants(self):
        tol = 1e-12
        res = solve_energy(spin_request(n=2, m=1), tol)
        assert abs(res.residual) <= tol * max(1.0, abs(res.E))
        assert res.bracket[0] <= res.E <= res.bracket[1]
        assert res.E > SPIN_SET["M"]
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

    def test_ceiling_empties_the_scan_interval(self):
        # The separation radicand needs E >= 267.2, above the ceiling
        # M + 100*sqrt(5) = 228.6: the message names both.
        with pytest.raises(NoRootError) as info:
            solve_energy(spin_request(m=5))
        assert str(info.value) == (
            "empty scan interval [267.2222222222222, 228.60679774997897]: the "
            "separation radicand sets its low end and the scan ceiling "
            "M + 100.0*sqrt(|K|) its high end")

    def test_separation_radicand_empties_the_scan_interval(self):
        # Spin with B + C > 0 and |m| >= 1: the separation radicand closes
        # below E = -M, so the ceiling plays no part.
        req = SolveRequest(params=PotentialParams(K=5.0, A=6.0, B=0.1, C=0.005),
                           M=5.0, qn=QuantumNumbers(n_r=1, m=1), symmetry=Symmetry.SPIN)
        with pytest.raises(NoRootError, match=r"^empty scan interval \[-5\.0, ") as info:
            solve_energy(req)
        message = str(info.value)
        assert message.endswith(": E + M > 0 sets its low end and the separation "
                                "radicand its high end")
        assert "ceiling" not in message

    @pytest.mark.parametrize("m", [1, 2, -3])
    def test_no_slope_names_the_radicand_not_the_ceiling(self, m):
        # B = -C: the separation radicand is 1/2 - m^2 < 0 at every energy.
        req = SolveRequest(params=PotentialParams(K=5.0, A=6.0, B=-0.005, C=0.005),
                           M=5.0, qn=QuantumNumbers(n_r=1, m=m), symmetry=Symmetry.SPIN)
        with pytest.raises(NoRootError, match="^separation-constant radicand is ") as info:
            solve_energy(req)
        assert "ceiling" not in str(info.value)

    def test_scan_ceiling_too_low(self):
        # The scan stops at M + 0.1, below the state; the whole grid lies
        # inside the domain.
        with scan_grid(ceiling=ceiling_for(0.1)), pytest.raises(
                NoRootError, match=r"^no sign change .* with 512 scan points "
                                   r"\(512 of 512 points inside the domain\)$"):
            solve_energy(spin_request())

    def test_no_sign_change_counts_the_points_inside_the_domain(self):
        # The radial radicand closes the domain at E = 3.45, so only 4 of
        # the grid's points on [0.457, 412.3] have a residual.
        req = SolveRequest(params=PotentialParams(K=16.97, A=-2.887, B=-0.3846, C=0.0781),
                           M=0.3585, qn=QuantumNumbers(n_r=0, n_theta=3, m=1),
                           symmetry=Symmetry.SPIN)
        with pytest.raises(NoRootError) as info:
            solve_energy(req)
        assert str(info.value).startswith("no sign change of the energy residual on [")
        assert str(info.value).endswith(
            "with 512 scan points (4 of 512 points inside the domain)")

    def test_no_root_error_holds_no_scan_arrays(self):
        with scan_grid(ceiling=ceiling_for(0.1)), pytest.raises(NoRootError) as info:
            solve_energy(spin_request())
        assert_no_scan_arrays(info.value, rspho.spectrum._SCAN_POINTS)

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
        tol = 1e-12
        try:
            res = solve_energy(req, tol)
        except NoRootError:
            return
        lo, hi = res.bracket
        assert lo <= res.E <= hi
        assert res.residual == energy_residual(res.E, req)
        width = tol + 4.0 * np.finfo(float).eps * abs(res.E)
        left = energy_residual(max(lo, res.E - width), req)
        right = energy_residual(min(hi, res.E + width), req)
        assert left * right <= 0.0, (res, left, right)

    @pytest.mark.parametrize("branch", BranchSign)
    @pytest.mark.parametrize("convention", Convention)
    @settings(PROPERTY, max_examples=60)
    @given(req=valid_requests())
    def test_result_is_the_closed_forms_at_E(self, req, branch, convention):
        # lambda, delta and big_delta, taken from the solver's terms, have
        # the bits of the angular and radial closed forms composed at the
        # same E from the request's own numbers.
        req = dataclasses.replace(req, branch=branch, convention=convention)
        try:
            res = solve_energy(req)
        except NoRootError:
            return
        p, m, s = req.params, req.qn.m, req.symmetry.coupling_sign
        fac = res.E + req.M
        q = q_of_vtilde(0.25 - m * m - s * 2.0 * fac * (p.B + p.C), req.branch)
        lam = angular_level(q, req.qn.n_theta) - 0.25
        _, root, stiff = radial_terms_from_terms(fac, s * p.K, s * 2.0 * p.A, lam)
        assert (repr(res.lam), repr(res.delta), repr(res.big_delta)) == (
            repr(lam), repr(-0.5 - root), repr(math.sqrt(stiff)))


class TestSolveColumns:
    """solve_columns against solve_energy: each energy NaN exactly where
    solve_energy raises, and with solve_energy's bits elsewhere."""

    # Twice the examples, so that each kind of batch gets as many as one alone.
    @settings(PROPERTY, max_examples=2 * PROPERTY.max_examples)
    @given(requests=st.one_of(st.lists(mixed_requests(), max_size=24), grouped_requests()),
           points=st.sampled_from([512, 16, 1500]),
           scan_ceiling=st.sampled_from([None, None, ceiling_for(1e3), ceiling_for(0.5)]),
           abs_tol=st.sampled_from([1e-12, 1e-12, 1e-4, 5e-324]))
    def test_matches_solve_energy(self, requests, points, scan_ceiling, abs_tol):
        # 5e-324 leaves only the four-ulp floor, so the polish takes the most steps.
        with scan_grid(points, scan_ceiling):
            E = solve_columns(*columns(requests), abs_tol)
            assert E.shape == (len(requests),)
            assert energies(E) == one_by_one(requests, abs_tol)

    @settings(PROPERTY, max_examples=50)
    @given(requests=grouped_requests(), chunk=st.sampled_from([1, 5, 64]),
           points=st.sampled_from([16, 64]))
    def test_small_scan_chunks(self, requests, chunk, points):
        # A _SCAN_CHUNK below the batch's rows splits the batch into blocks
        # and makes windows one point wide; no scan call exceeds it.
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

        with scan_grid(points) as mp:
            expected = one_by_one(requests)
            mp.setattr(spectrum, "_SCAN_CHUNK", chunk)
            mp.setattr(spectrum, "energy_residual", recording)
            mp.setattr(spectrum, "_polish_rows", polishing)
            E = solve_columns(*columns(requests))
        assert energies(E) == expected
        assert all(size <= chunk for size in sizes if size is not None)

    def test_identical_requests(self):
        requests = [spin_request(n=2)] * 5
        assert energies(solve_columns(*columns(requests))) == one_by_one(requests)

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
        E = solve_columns(*columns(requests + [invalid]))
        shapes = list(residual_shapes)
        points = rspho.spectrum._SCAN_POINTS
        # The first window is _SCAN_CHUNK // 9 points wide, more than the grid.
        assert rspho.spectrum._SCAN_CHUNK // 9 >= points
        scans = [s for s in shapes if s is not None and s[-1] == points]
        assert scans == [(9, points)]
        assert energies(E) == one_by_one(requests + [invalid])
        assert not np.isnan(E[:9]).any() and np.isnan(E[9])
        with pytest.raises(DomainError):
            solve_energy(invalid)
        # The polish steps every row in one (rows, 1) call per step.
        polish = [s for s in shapes if s not in scans]
        assert polish == [(9, 1)] * max(solve_energy(r).iterations for r in requests)
        assert len(polish) <= rspho.spectrum._MAX_POLISH_STEPS

    @pytest.mark.parametrize("layout", ["one-group", "three-groups", "three-groups-interleaved"])
    def test_long_batches_are_scanned_in_chunks(self, residual_shapes, monkeypatch, layout):
        # One group: 100 rows with equal scan ends at 1024 points.  Three
        # groups: 24 rows per m, each group with equal scan ends, the shape
        # of a sweep over m, at the default 512 points.  The rows are
        # scanned in the windows that scan_windows predicts from each row's
        # bracket, whatever their order.
        if layout == "one-group":
            requests = [spin_request(A=6.0 + 0.05 * i) for i in range(100)]
            monkeypatch.setattr(rspho.spectrum, "_SCAN_POINTS", 1024)
        else:
            groups = [[pseudospin_request(m=m, A=-5.0 + 0.05 * i) for i in range(24)]
                      for m in (0, 1, 2)]
            requests = [r for g in (groups if layout == "three-groups" else zip(*groups))
                        for r in g]
        E = solve_columns(*columns(requests))
        windows = scan_windows(requests)
        assert windows[0][0] == len(requests)
        scans, polish = residual_shapes[:len(windows)], residual_shapes[len(windows):]
        assert scans == windows
        assert all(rows * n <= rspho.spectrum._SCAN_CHUNK for rows, n in scans)
        assert energies(E) == one_by_one(requests)
        assert not np.isnan(E).any()
        assert polish == [(len(requests), 1)] * max(solve_energy(r).iterations
                                                    for r in requests)
        assert len(polish) <= rspho.spectrum._MAX_POLISH_STEPS

    @PROPERTY
    @given(requests=grouped_requests(), at=st.floats(0.0, 1.0),
           points=st.sampled_from([512, 64]))
    def test_exact_zero_on_the_grid(self, requests, at, points):
        # The residual is made exactly 0 at one grid point of the first
        # request's scan, the last point included, wherever it is in the
        # domain; the rows with the same ends share that grid point.
        try:
            first, last = rspho.spectrum._scan_ends(requests[0])
        except RsphoError:
            return
        zero_at = np.linspace(first, last, points)[round(at * (points - 1))]

        def zeroed(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where((E == zero_at) & ~np.isnan(f), 0.0, f)
            return 0.0 if E == zero_at else f

        with scan_grid(points) as mp:
            mp.setattr(rspho.spectrum, "energy_residual", zeroed)
            assert energies(solve_columns(*columns(requests))) == one_by_one(requests)

    @pytest.mark.parametrize("where", ["first bracket", "last point"])
    def test_exact_zero_closes_the_bracket(self, monkeypatch, where):
        monkeypatch.setattr(rspho.spectrum, "_SCAN_POINTS", 64)
        requests = [spin_request(A=a) for a in (6.0, 6.5, 7.0, 7.5)]
        first, last = rspho.spectrum._scan_ends(requests[0])
        grid = np.linspace(first, last, 64)
        values = energy_residual(grid, requests[0])
        starts = np.flatnonzero(values[:-1] * values[1:] < 0.0)
        # A zero at the last point is the first bracket where the residual
        # is negative before it.
        zero_at = grid[-1] if where == "last point" else grid[starts[0]]

        def zeroed(E, request):
            f = energy_residual(E, request)
            if where == "last point":
                f = -abs(f)
            if isinstance(E, np.ndarray):
                return np.where(E == zero_at, 0.0, f)
            return 0.0 if E == zero_at else f

        monkeypatch.setattr(rspho.spectrum, "energy_residual", zeroed)
        E = solve_columns(*columns(requests))
        assert energies(E) == one_by_one(requests)
        assert E[0] == zero_at
        res = solve_energy(requests[0])
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

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", holed)
            mp.setattr(rspho.spectrum, "_MAX_POLISH_STEPS", cap)
            assert energies(solve_columns(*columns(requests))) == one_by_one(requests)

    def test_nan_polish_point_never_comes_back_as_a_result(self, monkeypatch):
        # The array residual is NaN near every root while the scalar one
        # returns a number there: the rows still fail.
        def nan_near_roots(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where(np.abs(f) < 1e-6, np.nan, f)
            return f

        monkeypatch.setattr(rspho.spectrum, "energy_residual", nan_near_roots)
        E = solve_columns(*columns([spin_request(n=n) for n in (1, 2, 3)]))
        assert np.isnan(E).all()

    @PROPERTY
    @given(requests=grouped_requests())
    def test_shared_grid_gives_the_bits_of_a_full_grid(self, requests):
        # Rows with equal scan ends scan one grid row, and numbers that
        # every row shares are given as floats.  The same rows with every
        # number a column and a grid row each must give the same residuals,
        # and scanned beside a row with other ends and no bracket, so that
        # every window has a grid row per row, the same brackets.
        spectrum = rspho.spectrum
        rows = []
        for req in requests:
            try:
                ends = spectrum._scan_ends(req)
            except RsphoError:
                continue
            if not rows or ends == rows[0][1]:
                rows.append((req, ends))
        if not rows:
            return
        (first, last), n = rows[0][1], len(rows)
        shared = prepared(table_numbers([req for req, _ in rows]))
        # The same terms with no number shared: every one a column.
        full = prepared(columns([req for req, _ in rows]))
        grid = np.linspace(first, last, spectrum._SCAN_POINTS)
        one_row = energy_residual(grid, shared)
        every_row = energy_residual(np.tile(grid, (n, 1)), full)
        assert np.broadcast_to(one_row, every_row.shape).tobytes() == every_row.tobytes()
        # A higher rest mass moves both scan ends; far above the scan ceiling,
        # n_r = 10**6 leaves the residual negative on the whole grid.
        extra = dataclasses.replace(rows[0][0], M=rows[0][0].M + 1.0,
                                    qn=dataclasses.replace(rows[0][0].qn, n_r=10**6))
        ends = np.array([(first, last)] * n + [spectrum._scan_ends(extra)]).T
        one_grid = spectrum._scan(shared, *ends[:, :n])
        grid_rows = spectrum._scan(prepared(columns([req for req, _ in rows] + [extra])),
                                   *ends)
        assert np.isnan(grid_rows[:, -1]).all()
        assert one_grid.tobytes() == grid_rows[:, :n].tobytes()

    def test_empty_batch(self):
        cols = columns([])
        assert [x.shape for x in cols] == [(0,)] * 11
        assert solve_columns(*cols).shape == (0,)


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
        first, last = rspho.spectrum._scan_ends(spin[0])
        grid = np.linspace(first, last, rspho.spectrum._SCAN_POINTS)
        width = rspho.spectrum._SCAN_CHUNK // (len(spin) + len(pseudo))
        for req in spin:
            assert rspho.spectrum._scan_ends(req) == (first, last)
            values = energy_residual(grid, req)
            assert np.flatnonzero(values[:-1] * values[1:] <= 0.0)[0] > width
        return spin + pseudo, grid, width

    @pytest.mark.parametrize("where", ["first point", "overlap point"])
    def test_exact_zero_at_a_window_edge(self, batch, where):
        # The second window's first point, or the first window's last point
        # that it carries over, is an exact zero of every spin row: their
        # first bracket.
        requests, grid, width = batch
        zero_at = grid[width if where == "first point" else width - 1]

        def zeroed(E, request):
            f = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                return np.where(E == zero_at, 0.0, f)
            return 0.0 if E == zero_at else f

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", zeroed)
            E = solve_columns(*columns(requests))
            assert energies(E) == one_by_one(requests)
        assert (E[:224] == zero_at).all()

    def test_exact_zero_at_the_last_grid_point(self, batch):
        # With the residual negative before it, an exact zero at the grid's
        # last point is the spin rows' first bracket.  At 1500 points,
        # i*step + first misses that point by an ulp, and the grid holds the
        # last scan point itself.
        requests, _, _ = batch
        first, last = rspho.spectrum._scan_ends(requests[0])
        assert 1499 * ((last - first) / 1499) + first != last

        def zeroed(E, request):
            f = -abs(energy_residual(E, request))
            if isinstance(E, np.ndarray):
                return np.where(E == last, 0.0, f)
            return 0.0 if E == last else f

        with scan_grid(1500) as mp:
            mp.setattr(rspho.spectrum, "energy_residual", zeroed)
            E = solve_columns(*columns(requests))
            assert energies(E) == one_by_one(requests)
        assert (E[:224] == last).all()

    @pytest.mark.parametrize("splits", [[1.0], [0.5, 1.5, 2.5], [1.0, 2.0, 3.0]],
                             ids=["straddle", "several", "several-straddle"])
    def test_sign_changes_in_other_windows(self, batch, splits):
        # The residual's size with its sign flipped at grid points
        # split * width: each flip starts a bracket at the point before it,
        # inside a window or at one window's last point (a whole split).
        # The first flip's bracket is the one polished.
        requests, grid, width = batch
        flips = [round(k * width) for k in splits]

        def flipped(E, request):
            f = energy_residual(E, request)
            odd = sum(E >= grid[i] for i in flips) % 2 == 1
            if isinstance(E, np.ndarray):
                return np.where(odd, np.abs(f), -np.abs(f))
            return abs(f) if odd else -abs(f)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "energy_residual", flipped)
            E = solve_columns(*columns(requests))
            assert energies(E) == one_by_one(requests)
        i = flips[0]
        assert ((grid[i - 1] <= E[:224]) & (E[:224] <= grid[i])).all()
        assert not np.isnan(E).any()

    @pytest.mark.parametrize("chunk", [None, 64], ids=["one-block", "four-blocks"])
    def test_batch_is_prepared_once(self, batch, chunk):
        # The scan walks several windows, and at a _SCAN_CHUNK of 64 four
        # blocks of rows, but solve_columns prepares its batch once.
        requests, _, _ = batch
        spectrum = rspho.spectrum
        built, scans, terms = [], [], spectrum._terms

        def counting(E, request):
            values = energy_residual(E, request)
            if E.shape[-1] > 1:
                scans.append(values.shape)
            return values

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectrum, "_terms",
                       lambda *numbers: built.append(numbers[0].shape) or terms(*numbers))
            mp.setattr(spectrum, "energy_residual", counting)
            if chunk is not None:
                mp.setattr(spectrum, "_SCAN_CHUNK", chunk)
            E = solve_columns(*columns(requests))
        assert built == [(len(requests), 1)]
        blocks = -(-len(requests) // spectrum._SCAN_CHUNK) if chunk is None else 4
        assert len(scans) > blocks
        assert energies(E) == one_by_one(requests)

    def test_row_without_a_bracket_sees_every_grid_point_once(self, batch, monkeypatch):
        # n_r = 1000 puts the state above the scan ceiling: no sign change.
        requests, grid, width = batch
        requests = requests[:100] + [spin_request(n=1000)] + requests[101:]
        seen, calls = [], []

        def counting(E, request):
            values = energy_residual(E, request)
            if isinstance(E, np.ndarray):
                # The lone row is the one whose 2*n_r + 1 term is 2001.
                lone = np.broadcast_to(np.equal(request[8], 2001.0), values.shape)
                seen.extend(np.broadcast_to(E, values.shape)[lone].tolist())
                calls.append(values.shape)
            return values

        monkeypatch.setattr(rspho.spectrum, "energy_residual", counting)
        cols = columns(requests)
        bracket = rspho.spectrum._scan(prepared(cols), *rspho.spectrum._scan_ends(cols))
        assert np.isnan(bracket).any(axis=0).tolist() == [i == 100 for i in range(len(requests))]
        assert len(calls) > 2 and calls[0] == (len(requests), width)
        assert [repr(e) for e in sorted(seen)] == [repr(e) for e in grid.tolist()]
        monkeypatch.undo()
        E = solve_columns(*cols)
        assert energies(E) == one_by_one(requests)
        assert np.isnan(E[100]) and not np.isnan(np.delete(E, 100)).any()


class TestColumnForms:
    """The array forms of validation and of the scan ends, over the columns
    of many requests, against the scalar ones."""

    @PROPERTY
    @given(requests=st.lists(edge_requests(), min_size=1, max_size=30),
           scan_ceiling=st.sampled_from([None, None, ceiling_for(1e3), ceiling_for(0.5),
                                         ceiling_for(1e-3)]))
    def test_scan_ends_match_the_scalar(self, requests, scan_ceiling):
        # NaN exactly where the scalar form raises, its bits everywhere else.
        with scan_grid(ceiling=scan_ceiling):
            first, last = rspho.spectrum._scan_ends(columns(requests))
            for req, ends in zip(requests, zip(first.tolist(), last.tolist())):
                try:
                    expected = rspho.spectrum._scan_ends(req)
                except RsphoError:
                    assert math.isnan(ends[0]) and math.isnan(ends[1]), req
                    continue
                assert repr(ends) == repr(expected), req

    @PROPERTY
    @given(requests=st.lists(edge_requests(), min_size=1, max_size=20),
           scan_ceiling=st.sampled_from([None, None, ceiling_for(0.5)]))
    def test_solve_columns_fails_where_solve_energy_raises(self, requests, scan_ceiling):
        with scan_grid(ceiling=scan_ceiling):
            E = solve_columns(*columns(requests))
            expected = one_by_one(requests)
        for req, e, expected in zip(requests, energies(E), expected):
            assert e == expected, req

    def test_whole_float_quantum_number_solves(self):
        # Columns are floats, so a quantum number is checked by value: n_r =
        # 1.0 gives solve_energy's energy at n_r = 1, while solve_energy
        # raises for the float itself.
        req = spin_request(n=1)
        p = req.params
        E = solve_columns(p.K, p.A, p.B, p.C, req.M, np.array([1.0]), 1.0, 0.0,
                          1.0, 1.0, 1.0)
        expected = solve_energy(req).E
        assert energies(E) == [repr(expected)]
        assert round(expected, 8) == 14.38516214
        with pytest.raises(DomainError, match="n_r must be an integer"):
            solve_energy(dataclasses.replace(req, qn=QuantumNumbers(n_r=1.0)))

    @settings(PROPERTY, max_examples=50)
    @given(requests=st.lists(st.one_of(mixed_requests(), edge_requests()),
                             min_size=1, max_size=8),
           symmetry=st.sampled_from(Symmetry), branch=st.sampled_from(BranchSign),
           convention=st.sampled_from(Convention),
           abs_tol_E=st.sampled_from([1e-12, 1e-6]))
    def test_cells_solved_one_by_one_are_the_columns(self, requests, symmetry, branch,
                                                     convention, abs_tol_E):
        # Where numpy is not loaded, solve_cells solves each cell with
        # solve_energy, which scans on floats; it returns solve_columns'
        # energies bit for bit, NaN where they are NaN.
        requests = [dataclasses.replace(r, symmetry=symmetry, branch=branch,
                                        convention=convention) for r in requests]
        numbers = {name: [getattr(r.params, name) for r in requests] for name in "KABC"}
        numbers.update(M=[r.M for r in requests],
                       **{name: [getattr(r.qn, name) for r in requests]
                          for name in ("n_r", "n_theta", "m")})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "numpy_loaded", lambda: False)
            cells = solve_cells(**numbers, symmetry=symmetry, branch=branch,
                                convention=convention, abs_tol_E=abs_tol_E)
        expected = solve_columns(*columns(requests), abs_tol_E)
        assert energies(np.array(cells)) == energies(expected)

    @settings(PROPERTY, max_examples=60)
    @given(req=valid_requests(), branch=st.sampled_from(BranchSign),
           convention=st.sampled_from(Convention), vary=st.sampled_from("ABCK"),
           offsets=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
           series=st.sampled_from(["n", "m"]),
           series_values=st.lists(st.sampled_from([0, 1, 2, 3, 1000]), min_size=1,
                                  max_size=4),
           ntheta=st.sampled_from([None, 0, 2]))
    def test_cli_batch_shape(self, req, branch, convention, vary, offsets, series,
                             series_values, ntheta):
        # The shape of the cells that table and sweep pass: one coefficient
        # list (x repeated across the series), one series list (n or m),
        # the other numbers floats or ints shared by every cell.  Offsets
        # of up to 2 take K through 0 and B + C past the separation edge,
        # and n_r = 1000 or m = 3 often leaves a cell with no bound state:
        # NaN exactly where solve_energy raises, its bits elsewhere, and the
        # same list from the float path.
        p = req.params
        xs = [getattr(p, vary) + d for d in offsets]
        numbers = dict(K=p.K, A=p.A, B=p.B, C=p.C, M=req.M, n_r=1, m=0)
        numbers[vary] = [x for x in xs for _ in series_values]
        numbers["n_r" if series == "n" else "m"] = series_values * len(xs)
        numbers["n_theta"] = numbers["n_r"] if ntheta is None else ntheta
        cells = [{k: v[i] if type(v) is list else v for k, v in numbers.items()}
                 for i in range(len(xs) * len(series_values))]
        requests = [SolveRequest(
            params=PotentialParams(K=c["K"], A=c["A"], B=c["B"], C=c["C"]), M=c["M"],
            qn=QuantumNumbers(n_r=c["n_r"], n_theta=c["n_theta"], m=c["m"]),
            symmetry=req.symmetry, branch=branch, convention=convention) for c in cells]
        kinds = dict(symmetry=req.symmetry, branch=branch, convention=convention)
        expected = one_by_one(requests)
        assert energies(np.array(solve_cells(**numbers, **kinds))) == expected
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rspho.spectrum, "numpy_loaded", lambda: False)
            assert energies(np.array(solve_cells(**numbers, **kinds))) == expected

    @pytest.mark.parametrize("loaded", [True, False], ids=["arrays", "floats"])
    def test_cells_need_lists_of_one_length(self, monkeypatch, loaded):
        # Both paths raise the same ValueError before any solve.
        def fail(request):
            raise AssertionError("scan ends computed for a malformed batch")

        monkeypatch.setattr(rspho.spectrum, "numpy_loaded", lambda: loaded)
        monkeypatch.setattr(rspho.spectrum, "_scan_ends", fail)
        numbers = dict(K=5.0, B=-0.05, C=0.005, M=5.0, m=0, symmetry=Symmetry.SPIN)
        with pytest.raises(ValueError, match=r"^the lists of cells differ in length: \[3, 2, 2\]$"):
            solve_cells(A=[6.0, 6.5, 7.0], n_r=[1, 2], n_theta=[1, 2], **numbers)
        with pytest.raises(ValueError, match="no number is a list"):
            solve_cells(A=6.0, n_r=1, n_theta=1, **numbers)


class TestAbsTolE:
    """The solver's one setting, the energy tolerance abs_tol_E: solve_energy
    and solve_columns reject one that is not positive and finite before any
    work, and the smallest positive float solves."""

    SOLVERS = [lambda tol: solve_energy(spin_request(), tol),
               lambda tol: solve_columns(*columns([spin_request()]), tol)]

    @pytest.fixture
    def no_scan(self, monkeypatch):
        def fail(request):
            raise AssertionError("scan ends computed with a bad tolerance")
        monkeypatch.setattr(rspho.spectrum, "_scan_ends", fail)

    def test_rejects_bad_tolerance(self, no_scan):
        for solve in self.SOLVERS:
            for tol in (0.0, -1.0):
                with pytest.raises(ValueError, match="abs_tol_E must be positive and finite"):
                    solve(tol)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_rejects_tolerance_that_is_not_finite(self, no_scan, tol):
        # An infinite tolerance would end the polish before its first step.
        for solve in self.SOLVERS:
            with pytest.raises(ValueError, match="finite"):
                solve(tol)

    def test_smallest_tolerance_solves(self):
        # Only the four-ulp floor of the stop width is left.
        res = solve_energy(spin_request(), 5e-324)
        assert energies(solve_columns(*columns([spin_request()]), 5e-324)) == [repr(res.E)]
        assert res.E == pytest.approx(14.38516214, abs=1e-8)
