"""Tests for the problem-definition layer: potential, validation, enums."""

import copy
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from rspho.angular import ShapeInvarianceChain
from rspho.errors import DomainError
from rspho.model import (BranchSign, Convention, PotentialParams, QuantumNumbers,
                         SolveRequest, Symmetry, Violation, evaluate_potential, validate)
from rspho.oracle import GridSpec, OracleReport
from rspho.radial import WavefunctionSamples
from rspho.spectrum import SolveResult
from rspho.thermo import ThermoPoint


def _params(K=0.001, A=0.01, B=0.01, C=0.01):
    return PotentialParams(K=K, A=A, B=B, C=C)


class TestEvaluatePotential:
    def test_equator_value(self):
        # cos(pi/2) = 0 and sin(pi/2) = 1: harmonic + A + B
        assert evaluate_potential(_params(), 1.0, math.pi / 2) == pytest.approx(0.0205, abs=1e-15)

    def test_diagonal_value(self):
        # sin^2 = cos^2 = 1/2 at pi/4: ring terms double, C term survives whole
        assert evaluate_potential(_params(), 1.0, math.pi / 4) == pytest.approx(0.0405, abs=1e-14)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_radial_singularity(self, r):
        with pytest.raises(DomainError, match="r must be positive"):
            evaluate_potential(_params(), r, math.pi / 2)

    @pytest.mark.parametrize("theta", [0.0, math.pi, -0.1, 3.2, math.nan])
    def test_axis_singularity(self, theta):
        with pytest.raises(DomainError, match="theta must lie"):
            evaluate_potential(_params(), 1.0, theta)

    @pytest.mark.parametrize("r, theta, params", [
        (1e-200, 1.0, _params()),           # r^2 underflows: a division by 0
        (1.0, 1e-200, _params()),           # sin^2 underflows: a division by 0
        (1e-160, 1.0, _params()),           # 1/r^2 overflows
        (1.0, 1e-160, _params()),           # 1/sin^2 overflows
        (1e200, 1.0, _params()),            # r^2 overflows
        (1e200, 1.0, _params(K=0.0)),       # 0 * inf
        (1.0, 1.0, _params(A=math.inf)),    # a coefficient that is not finite
    ], ids=["tiny-r", "tiny-theta", "small-r", "small-theta", "huge-r", "zero-K", "inf-A"])
    def test_value_that_is_not_finite(self, r, theta, params):
        message = re.escape(f"V(r, theta) is not finite at r = {r!r}, theta = {theta!r}")
        with pytest.raises(DomainError, match=message):
            evaluate_potential(params, r, theta)

    def test_reflection_symmetry(self):
        p = _params(K=0.4, A=1.2, B=-0.3, C=0.7)
        for theta in np.linspace(0.1, math.pi / 2, 9):
            v1 = evaluate_potential(p, 1.7, theta)
            v2 = evaluate_potential(p, 1.7, math.pi - theta)
            assert v1 == pytest.approx(v2, rel=1e-13)

    def test_divergence_toward_origin(self):
        p = _params(A=2.0)
        radii = 1.0 / np.arange(1, 30)
        values = [evaluate_potential(p, float(r), math.pi / 2) for r in radii]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_divergence_toward_axis(self):
        p = _params(B=0.5, C=0.1)
        thetas = np.pi / np.arange(3, 40)
        values = [evaluate_potential(p, 1.0, float(t)) for t in thetas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_floats_have_the_array_bits(self):
        # The float path must give, bit for bit, what numpy gives for the
        # same point inside an array.
        rng = np.random.default_rng(7)
        for _ in range(20):
            K, A, B, C = rng.uniform(-10.0, 10.0, 4)
            r = 10.0 ** rng.uniform(-3.0, 3.0, 200)
            theta = rng.uniform(1e-6, math.pi - 1e-6, 200)
            sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
            expected = (0.5 * K * r**2 + A / r**2 + B / (r**2 * sin2)
                        + C * cos2 / (r**2 * sin2))
            got = [evaluate_potential(_params(K, A, B, C), a, b)
                   for a, b in zip(r.tolist(), theta.tolist())]
            assert np.array(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("r, theta", [
        (1.0, 1.0), (1, 1.0), (np.float64(1.0), np.float32(1.0)),
        (np.int64(2), Fraction(1, 2)),
    ], ids=repr)
    def test_real_numbers_give_a_float(self, r, theta):
        value = evaluate_potential(_params(), r, theta)
        assert type(value) is float
        assert value == evaluate_potential(_params(), float(r), float(theta))

    @pytest.mark.parametrize("r, theta, name, kind", [
        (np.array(1.0), 1.0, "r", "ndarray"), ([1.0, 2.0], 1.0, "r", "list"),
        (1.0, np.array([1.0, 2.0]), "theta", "ndarray"), (1.0, "1.0", "theta", "str"),
        (Decimal("1.5"), 1.0, "r", "Decimal"),      # not a numbers.Real
        (np.array([1.0, math.nan]), np.array([1.0, math.nan]), "r", "ndarray"),
    ], ids=repr)
    def test_non_real_value_is_a_type_error(self, r, theta, name, kind):
        with pytest.raises(TypeError) as info:
            evaluate_potential(_params(), r, theta)
        assert str(info.value) == f"{name} must be a real number (got {kind})"


class TestQuantumNumbers:
    def test_ntheta_defaults_to_nr(self):
        assert QuantumNumbers(n_r=2).n_theta == 2

    def test_explicit_ntheta_kept(self):
        assert QuantumNumbers(n_r=2, n_theta=0).n_theta == 0

    def test_default_m(self):
        assert QuantumNumbers(n_r=1).m == 0


class TestEnums:
    def test_coupling_signs(self):
        assert Symmetry.SPIN.coupling_sign == 1.0
        assert Symmetry.PSEUDOSPIN.coupling_sign == -1.0

    def test_branch_signs(self):
        assert BranchSign.PLUS.sign == 1.0
        assert BranchSign.MINUS.sign == -1.0

    def test_convention_coefficients(self):
        assert Convention.TABLE_CONSISTENT.coefficient == 1.0
        assert Convention.EQUATION_CONSISTENT.coefficient == 2.0

    def test_string_construction(self):
        assert Symmetry("spin") is Symmetry.SPIN
        assert BranchSign("minus") is BranchSign.MINUS
        assert Convention("equation") is Convention.EQUATION_CONSISTENT


def _request(K=5.0, A=6.0, B=-0.05, C=0.005, M=5.0, n_r=1, m=0,
             symmetry=Symmetry.SPIN):
    return SolveRequest(params=PotentialParams(K=K, A=A, B=B, C=C), M=M,
                        qn=QuantumNumbers(n_r=n_r, m=m), symmetry=symmetry)


class TestValidate:
    def test_reference_request_is_ok(self):
        assert validate(_request()) == []

    def test_spin_needs_positive_k(self):
        violations = validate(_request(K=-5.0))
        assert [v.code for v in violations] == ["k-sign-spin"]
        assert "positive" in violations[0].message

    def test_pseudospin_needs_negative_k(self):
        violations = validate(_request(K=5.0, symmetry=Symmetry.PSEUDOSPIN))
        assert [v.code for v in violations] == ["k-sign-pseudospin"]

    @pytest.mark.parametrize("mass", [0.0, -3.0, math.nan])
    def test_mass_must_be_positive(self, mass):
        assert "mass-positive" in [v.code for v in validate(_request(M=mass))]

    def test_negative_nr_flagged(self):
        assert "n-r-range" in [v.code for v in validate(_request(n_r=-1))]

    def test_nonfinite_param_flagged(self):
        assert "params-finite" in [v.code for v in validate(_request(A=math.inf))]

    def test_violations_accumulate(self):
        bad = SolveRequest(params=PotentialParams(K=-5.0, A=6.0, B=0.0, C=0.0),
                           M=-1.0, qn=QuantumNumbers(n_r=-2, m=0),
                           symmetry=Symmetry.SPIN)
        codes = {v.code for v in validate(bad)}
        assert {"k-sign-spin", "mass-positive", "n-r-range"} <= codes


_PARAMS = PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)
_PARAMS_REPR = "PotentialParams(K=5.0, A=6.0, B=-0.05, C=0.005)"
_GRID = GridSpec(lower=0.0, upper=1.0, points=16)
_GRID_REPR = "GridSpec(lower=0.0, upper=1.0, points=16)"

# Each record class, the keyword arguments of one instance in field order,
# and that instance's repr.
RECORDS = [
    (PotentialParams, dict(K=5.0, A=6.0, B=-0.05, C=0.005), _PARAMS_REPR),
    (QuantumNumbers, dict(n_r=2, n_theta=0, m=-1), "QuantumNumbers(n_r=2, n_theta=0, m=-1)"),
    (SolveRequest, dict(params=_PARAMS, M=5.0, qn=QuantumNumbers(1), symmetry=Symmetry.SPIN,
                        branch=BranchSign.MINUS, convention=Convention.EQUATION_CONSISTENT),
     f"SolveRequest(params={_PARAMS_REPR}, M=5.0, qn=QuantumNumbers(n_r=1, n_theta=1, m=0), "
     "symmetry=<Symmetry.SPIN: 'spin'>, branch=<BranchSign.MINUS: 'minus'>, "
     "convention=<Convention.EQUATION_CONSISTENT: 'equation'>)"),
    (Violation, dict(code="mass-positive", message="M must be positive (got -1.0)"),
     "Violation(code='mass-positive', message='M must be positive (got -1.0)')"),
    (GridSpec, dict(lower=0.0, upper=1.0, points=16), _GRID_REPR),
    (OracleReport, dict(computed=[1.5], predicted=[1.25], max_rel_error=0.2, grid=_GRID,
                        converged=False, predicted_printed=[2.0]),
     f"OracleReport(computed=[1.5], predicted=[1.25], max_rel_error=0.2, grid={_GRID_REPR}, "
     "converged=False, predicted_printed=[2.0])"),
    (WavefunctionSamples, dict(r=[0.5, 1.0], values=[0.25, -0.5], L=1.5, eta_scale=2.0,
                               norm_constant=3.0),
     "WavefunctionSamples(r=[0.5, 1.0], values=[0.25, -0.5], L=1.5, eta_scale=2.0, "
     "norm_constant=3.0)"),
    (SolveResult, dict(E=7.5, lam=2.25, delta=0.5, big_delta=-1.0, residual=0.0, iterations=3,
                       bracket=(7.0, 8.0)),
     "SolveResult(E=7.5, lam=2.25, delta=0.5, big_delta=-1.0, residual=0.0, iterations=3, "
     "bracket=(7.0, 8.0))"),
    (ThermoPoint, dict(T=1.0, beta=1.0, Z=2.0, F=-0.5, U=0.25, S=0.75, C=0.125, levels_used=9),
     "ThermoPoint(T=1.0, beta=1.0, Z=2.0, F=-0.5, U=0.25, S=0.75, C=0.125, levels_used=9)"),
    (ShapeInvarianceChain, dict(a=[0.5, 1.5], remainders=[2.0]),
     "ShapeInvarianceChain(a=[0.5, 1.5], remainders=[2.0])"),
]
RECORD_IDS = [cls.__name__ for cls, _, _ in RECORDS]
# Records with a list among their fields cannot be hashed.
UNHASHABLE = {OracleReport, WavefunctionSamples, ShapeInvarianceChain}


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=RECORD_IDS)
class TestRecords:
    """The value semantics of the frozen records: construction by position
    or keyword, repr, equality and hash by fields, immutability, copy and
    pickle."""

    def test_repr(self, cls, fields, text):
        assert repr(cls(**fields)) == text

    def test_positional_and_keyword_construction_agree(self, cls, fields, text):
        record = cls(*fields.values())
        assert record == cls(**fields)
        assert [getattr(record, name) for name in fields] == list(fields.values())

    def test_equal_and_hash_by_fields(self, cls, fields, text):
        a, b = cls(**fields), cls(**copy.deepcopy(fields))
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable type: 'list'"):
                hash(a)
        else:
            assert hash(a) == hash(b) == hash(tuple(fields.values()))
        first = next(iter(fields))
        changed = dict(fields, **{first: [9.0] if cls in UNHASHABLE else -3})
        assert a != cls(**changed)

    def test_not_equal_to_a_tuple_or_another_record(self, cls, fields, text):
        record = cls(**fields)
        assert record != tuple(fields.values())
        assert record != list(fields.values())
        for other, other_fields, _ in RECORDS:
            if other is not cls:
                assert record != other(**other_fields)

    def test_fields_cannot_be_assigned_or_deleted(self, cls, fields, text):
        record = cls(**fields)
        first = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, first, fields[first])
        with pytest.raises(AttributeError):
            record.extra = 1
        with pytest.raises(AttributeError):
            delattr(record, first)
        assert record == cls(**fields)

    def test_copy_and_pickle_give_an_equal_record(self, cls, fields, text):
        record = cls(**fields)
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record and repr(twin) == text


def test_same_values_in_another_record_class_are_not_equal():
    assert Violation("a", "b") != ShapeInvarianceChain("a", "b")
    assert ShapeInvarianceChain("a", "b") != Violation("a", "b")


def test_record_defaults():
    assert QuantumNumbers(n_r=2) == QuantumNumbers(2, 2, 0)
    assert QuantumNumbers(3, None, 1).n_theta == 3
    request = SolveRequest(_PARAMS, 5.0, QuantumNumbers(1), Symmetry.PSEUDOSPIN)
    assert (request.branch, request.convention) == (BranchSign.PLUS, Convention.TABLE_CONSISTENT)
    assert OracleReport([1.0], [1.0], 0.0, _GRID, True).predicted_printed is None


@pytest.mark.parametrize("args, message", [
    ((1.0, 1.0, 100), "need lower < upper (got 1.0, 1.0)"),
    ((math.nan, 1.0, 100), "need lower < upper (got nan, 1.0)"),
    ((0.0, 1.0, "16"), "points must be an integer (got '16')"),
    ((0.0, 1.0, 15), "points must be >= 16 (got 15)"),
], ids=["empty", "nan", "string", "small"])
def test_grid_spec_messages(args, message):
    with pytest.raises(ValueError) as info:
        GridSpec(*args)
    assert str(info.value) == message
