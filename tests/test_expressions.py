"""Safe kernel expressions: grammar, vectorization, smoothness flag."""

import numpy as np
import pytest

from esdlab.errors import ValidationError
from esdlab.expressions import compile_expression, expression_is_smooth


def test_basic_arithmetic_and_vectorization():
    f = compile_expression("4*x*y")
    assert f(0.5, 0.25) == pytest.approx(0.5)
    x = np.linspace(0.0, 1.0, 7)
    y = np.linspace(1.0, 0.0, 7)
    assert np.allclose(f(x, y), 4 * x * y)
    assert f.source == "4*x*y"


def test_allowed_functions_and_constants():
    f = compile_expression("sin(pi*x) * exp(-y) + sqrt(abs(x - y)) + cos(0*x) + e*0")
    assert f(0.5, 0.0) == pytest.approx(1.0 + np.sqrt(0.5) + 1.0)
    g = compile_expression("x**2 + y/2 - 1 + 2")
    assert g(1.0, 2.0) == pytest.approx(3.0)


def test_indicator_factors():
    g = compile_expression("ind(x + y < 1) * 2")
    assert g(0.2, 0.3) == pytest.approx(2.0)
    assert g(0.9, 0.3) == pytest.approx(0.0)
    xs = np.array([0.1, 0.9])
    assert np.allclose(g(xs, xs), [2.0, 0.0])


def test_custom_variable_names():
    f = compile_expression("u + 2*v", variables=("u", "v"))
    assert f(1.0, 2.0) == pytest.approx(5.0)


def test_rejects_unsafe_or_unknown_constructs():
    bad = [
        "__import__('os')",
        "x.__class__",
        "lambda x: x",
        "x if y else 0",
        "open('f')",
        "z + 1",
        "min(x, y)",
        "[x for x in range(3)]",
    ]
    for source in bad:
        with pytest.raises(ValidationError):
            compile_expression(source)


def test_rejects_malformed_syntax():
    with pytest.raises(ValidationError):
        compile_expression("4*x*")
    with pytest.raises(ValidationError):
        compile_expression("")


def test_smoothness_flag_keys_on_indicators():
    assert expression_is_smooth("4*x*y")
    assert expression_is_smooth("sin(pi*(x - y))")
    assert not expression_is_smooth("ind(x < y)")
    assert not expression_is_smooth("2 + ind(abs(x - y) < 0.25)")


def test_absolute_values_are_not_smooth():
    # a kink on the diagonal: the Gauss error estimate could under-report there
    assert not expression_is_smooth("1 - abs(x - y)")
    assert not expression_is_smooth("abs (x - 0.5) * abs(y - 0.5)")
