"""Tests for the shared numerical building blocks."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from rspho.errors import DomainError
from rspho.numerics import is_array, nonnegative, positive, simpson, sqrt

# Property tests draw the same examples on every run.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=300)


def ascending_grid(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    start = rng.uniform(-10.0, 10.0)
    if kind == "uniform":
        return start + rng.uniform(1e-3, 10.0) * np.arange(n)
    if kind == "linspace":
        return np.linspace(start, start + rng.uniform(1e-3, 100.0), n)
    return start + np.cumsum(rng.uniform(1e-2, 1.0, n))


class TestSimpson:
    @PROPERTY
    @given(n=st.integers(2, 60) | st.sampled_from([4000, 4001]),
           kind=st.sampled_from(["uniform", "linspace", "random"]),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_bit_for_bit(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        x = ascending_grid(kind, n, rng)
        y = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        ours = simpson(y, x=x)
        reference = scipy.integrate.simpson(y, x=x)
        assert type(ours) is type(reference)
        assert np.float64(ours).tobytes() == np.float64(reference).tobytes()

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_exact_for_quadratics_on_irregular_grids(self, n):
        x = np.cumsum(np.linspace(0.5, 1.5, n))
        antiderivative = x**3 - 0.5 * x**2 + 2.0 * x
        value = simpson(3.0 * x**2 - x + 2.0, x=x)
        assert value == pytest.approx(antiderivative[-1] - antiderivative[0], rel=1e-13)

    @pytest.mark.parametrize("y, x", [
        (np.ones(4), np.arange(5.0)),
        (np.ones((2, 3)), np.ones((2, 3))),
        (np.ones(0), np.ones(0)),
    ])
    def test_rejects_mismatched_or_empty_samples(self, y, x):
        with pytest.raises(ValueError, match="simpson needs"):
            simpson(y, x=x)


class TestIsArray:
    @pytest.mark.parametrize("x, expected", [
        (1.5, False), (2, False), (True, False), (Fraction(1, 2), False),
        (np.float64(1.5), False), (np.float32(1.5), False), (np.int64(2), False),
        ([1.0, 2.0], False), ((1.0,), False),
        (np.array(1.5), True), (np.arange(3.0), True),
        (np.ma.masked_array([1.0, 2.0]), True),
    ], ids=repr)
    def test_matches_isinstance_ndarray(self, x, expected):
        assert is_array(x) is expected is isinstance(x, np.ndarray)

    def test_float_forms_raise_and_array_forms_pass(self):
        with pytest.raises(DomainError, match="got -1.0"):
            positive(-1.0, "got {}")
        with pytest.raises(DomainError, match="got nan"):
            nonnegative(math.nan, "got {}")
        x = np.array([-1.0, 4.0])
        assert positive(x, "") is x and nonnegative(x, "") is x
        assert type(sqrt(4.0)) is float and type(sqrt(np.float64(4.0))) is float
        with np.errstate(invalid="ignore"):
            assert np.array_equal(sqrt(x), [np.nan, 2.0], equal_nan=True)
