"""Tests for the shared numerical building blocks."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import rspho
from rspho.errors import DomainError
from rspho.numerics import exp, is_array, log, nonnegative, positive, sqrt, tan


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
    def test_tan_sends_a_float_to_math_and_an_array_to_numpy(self):
        assert type(tan(1.5)) is float and tan(1.5) == math.tan(1.5)
        x = np.array([0.5, 1.5])
        assert np.array_equal(tan(x), np.tan(x))

    def test_exp_and_log_send_a_float_to_math_and_an_array_to_numpy(self):
        assert type(exp(1.5)) is float and exp(1.5) == math.exp(1.5)
        assert type(log(1.5)) is float and log(1.5) == math.log(1.5)
        x = np.array([0.5, 1.5])
        assert np.array_equal(exp(x), np.exp(x)) and np.array_equal(log(x), np.log(x))

    def test_exp_overflows_to_inf_as_numpy_does(self):
        with np.errstate(over="ignore"):
            assert exp(1e3) == exp(np.array([1e3]))[0] == math.inf


# The functions that catch OverflowError, each around a call that raises it
# by contract: math.exp in numerics.exp, math.ldexp in radial._unscale, and
# a caller's potential in oracle._fd_floats.  Elsewhere a value past the
# float range is inf (x*x where x**2 would raise), and the function's own
# finiteness check meets it.
OVERFLOW_CATCHERS = {("numerics", "exp"), ("radial", "_unscale"), ("oracle", "_fd_floats")}


def overflow_handlers(source: str) -> list[str]:
    """The innermost function ("<module>" outside any) of each except
    clause in ``source`` that names OverflowError."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None and any(
                    isinstance(name, ast.Name) and name.id == "OverflowError"
                    for name in ast.walk(child.type)):
                found.append(function)
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_overflow_error_is_caught_only_around_calls_that_raise_it():
    sites = [(path.stem, function)
             for path in sorted(Path(rspho.__file__).parent.glob("*.py"))
             for function in overflow_handlers(path.read_text(encoding="utf-8"))]
    assert [site for site in sites if site not in OVERFLOW_CATCHERS] == []
    assert sorted(sites) == sorted(OVERFLOW_CATCHERS)
