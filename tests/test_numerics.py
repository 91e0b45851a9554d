"""Tests for the shared numerical building blocks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rspho.errors import DomainError
from rspho.numerics import exp, is_array, log, nonnegative, positive, sqrt


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


class TestExpAndLog:
    def test_exp_and_log_send_a_float_to_math_and_an_array_to_numpy(self):
        assert type(exp(1.5)) is float and exp(1.5) == math.exp(1.5)
        assert type(log(1.5)) is float and log(1.5) == math.log(1.5)
        x = np.array([0.5, 1.5])
        assert np.array_equal(exp(x), np.exp(x)) and np.array_equal(log(x), np.log(x))

    def test_exp_overflows_to_inf_as_numpy_does(self):
        with np.errstate(over="ignore"):
            assert exp(1e3) == exp(np.array([1e3]))[0] == math.inf
