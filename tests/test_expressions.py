"""Safe kernel expressions: grammar, vectorization, smoothness flag, exact forms."""

import keyword
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esdlab import expressions
from esdlab.errors import ValidationError
from esdlab.expressions import compile_expression
from esdlab.graphons import GraphonFamily
from esdlab.models import ModelSpec, sample
from esdlab.moments import moment_graphon


def smooth(source: str) -> bool:
    return compile_expression(source).smooth


def form(source: str, variables=("x", "y")):
    return compile_expression(source, variables).form


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


_ALLOWED_NAMES = {"x", "y", "pi", "e", "abs", "sin", "cos", "sqrt", "exp", "ind"}
_unknown_names = st.from_regex(r"[a-z_][a-z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: name not in _ALLOWED_NAMES and not keyword.iskeyword(name))
_outside_whitelist = st.one_of(
    _unknown_names,                                                    # unknown names
    _unknown_names.map(lambda name: f"{name}(x)"),                     # unknown functions
    _unknown_names.map(lambda name: f"x.{name}"),                      # attributes
    st.integers(-3, 3).map(lambda i: f"x[{i}]"),                       # subscripts
    st.sampled_from(["(lambda: 1)()", "(lambda x: x)", "lambda: x"]),  # lambdas
    st.text(max_size=4).map(repr),                                     # strings
    st.sampled_from(["True", "False", "None"]),                        # other literals
    st.sampled_from(["sin(x=1)", "sqrt(y=x)", "exp(x=y)"]),            # keyword calls
    st.tuples(st.floats(0, 1), st.floats(0, 1)).map(                   # chained comparisons
        lambda ab: f"ind({ab[0]} < x <= {ab[1]})"),
)


@given(_outside_whitelist,
       st.sampled_from(["{}", "x + ({})", "2*sin({})", "ind(({}) <= y)", "-({})**2"]))
def test_expressions_outside_the_whitelist_raise(fragment, template):
    with pytest.raises(ValidationError):
        compile_expression(template.format(fragment))


def test_rejects_malformed_syntax():
    with pytest.raises(ValidationError):
        compile_expression("4*x*")
    with pytest.raises(ValidationError):
        compile_expression("")


def test_smoothness_flag_keys_on_indicators():
    assert smooth("4*x*y")
    assert smooth("sin(pi*(x - y))")
    assert not smooth("ind(x < y)")
    assert not smooth("2 + ind(abs(x - y) < 0.25)")


def test_absolute_values_are_not_smooth():
    # a kink on the diagonal: the Gauss error estimate could under-report there
    assert not smooth("1 - abs(x - y)")
    assert not smooth("abs (x - 0.5) * abs(y - 0.5)")


def test_polynomial_forms_are_exact():
    half = Fraction(1, 2)
    assert form("4*x*y") == {(1, 1): 4}
    assert form("2*sqrt(x*y)") == {(half, half): 2}
    assert form("(x + y)**2 - 2*x*y") == {(2, 0): 1, (0, 2): 1}
    assert form("sqrt(0.25*x**2)/2 - -y") == {(1, 0): Fraction(1, 4), (0, 1): 1}
    # a float literal is its exact binary value, and 1/3 a third
    assert form("0.1*x + x/3") == {(1, 0): Fraction(0.1) + Fraction(1, 3)}
    assert form("x**0 + 0*y") == {(0, 0): 1}
    assert form("2.0*x*y/n", ("x", "y", "n")) == {(1, 1, -1): 2}
    assert form("(x + y)/(2*n)", ("x", "y", "n")) == {(1, 0, -1): half, (0, 1, -1): half}


@pytest.mark.parametrize("source", [
    "sin(x*y)", "pi*x", "e + y", "ind(x < y)", "abs(x - y)", "exp(x)",
    "x/(x + y)", "x/0", "x**y", "x**2.0", "x**-1", "sqrt(2*x)", "sqrt(x + y)", "sqrt(-x)",
    "1e999*x", "x**65", "(x**40)**2",
])
def test_non_polynomials_have_no_form(source):
    assert form(source) is None  # each is still a valid expression


@pytest.mark.parametrize("source, want", [
    ("0.5 + 0.5*x*y - x**2/3",
     lambda x, y, n: np.subtract(np.add(0.5, np.multiply(np.multiply(0.5, x), y)),
                                 np.divide(np.power(x, 2.0), 3.0))),
    ("-x + +(x - y)", lambda x, y, n: np.add(np.negative(x), np.positive(np.subtract(x, y)))),
    ("abs(x - y)", lambda x, y, n: np.abs(np.subtract(x, y))),
    ("sin(pi*x)", lambda x, y, n: np.sin(np.multiply(np.pi, x))),
    ("cos(2*y)", lambda x, y, n: np.cos(np.multiply(2.0, y))),
    ("sqrt(x*y)", lambda x, y, n: np.sqrt(np.multiply(x, y))),
    ("exp(-x*y)", lambda x, y, n: np.exp(np.multiply(np.negative(x), y))),
    ("pi*x + e", lambda x, y, n: np.add(np.multiply(np.pi, x), np.e)),
    ("ind(x < y)", lambda x, y, n: np.less(x, y).astype(float)),
    ("ind(x <= 0.5)", lambda x, y, n: np.less_equal(x, 0.5).astype(float)),
    ("ind(x + y > 1)", lambda x, y, n: np.greater(np.add(x, y), 1.0).astype(float)),
    ("ind(y >= x)", lambda x, y, n: np.greater_equal(y, x).astype(float)),
    ("2**-1 - 0.25", lambda x, y, n: np.subtract(np.power(2.0, np.negative(1.0)), 0.25)),
    ("x*y/n + n**2",
     lambda x, y, n: np.add(np.divide(np.multiply(x, y), n), np.power(n, 2.0))),
], ids=["arithmetic", "unary", "abs", "sin", "cos", "sqrt", "exp", "constants", "less",
        "less_equal", "greater", "greater_equal", "literals", "third_variable"])
def test_evaluation_applies_the_ufuncs_in_the_order_of_the_text(source, want):
    f = compile_expression(source, ("x", "y", "n"))
    scalars = (0.25, 0.5, 3.0)
    # an (11, 1) column against (11,) rows, with x == y == 0.5 on the middle of both
    arrays = (np.linspace(0.0, 1.0, 11)[:, None], np.linspace(1.0, 0.0, 11),
              np.linspace(1.0, 2.0, 11))
    for args in (scalars, arrays):
        got = f(*args)
        expected = want(*(np.asarray(a, dtype=float) for a in args))
        assert np.shape(got) == np.shape(expected)
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


def test_literals_evaluate_as_floats_and_read_exactly_in_forms():
    assert float(compile_expression("x*2**64")(1.0, 0.0)) == 2.0**64
    assert float(compile_expression("2**-1 + 0*x")(0.3, 0.7)) == 0.5
    assert float(compile_expression("(2**53 + 1)*x")(1.0, 0.0)) == 2.0**53
    assert form("x*2**64") == {(1, 0): 2**64}
    assert form("(2**53 + 1)*x") == {(1, 0): 2**53 + 1}
    with pytest.raises(ValidationError, match="too large for a float"):
        compile_expression("x*1" + "0" * 400)


def test_a_large_prob_evaluates_and_samples_without_building_its_form(monkeypatch):
    source = "(x/3 + y/3 + 1/(3*n))**64"  # its form has 2,145 terms and takes seconds

    def no_product(*_):
        raise AssertionError("a form was built")

    with monkeypatch.context() as patch:
        patch.setattr(expressions, "_multiply", no_product)  # every form product runs here
        prob = compile_expression(source, ("x", "y", "n"))
        assert float(prob(1.0, 1.0, 1.0)) == pytest.approx(1.0)
        spec = ModelSpec("sparse_inhomogeneous", 20, 3, {"prob": source})
        assert sample(spec).shape == (20, 20)
    # once read, the form is the trinomial expansion, and it is built once
    third = Fraction(1, 3)
    assert prob.form == {(a, b, -(64 - a - b)): factorial(64) * third**64
                         / (factorial(a) * factorial(b) * factorial(64 - a - b))
                         for a in range(65) for b in range(65 - a)}
    assert prob.form is prob.form


@pytest.mark.parametrize("spaced, other", [
    ("ind(x < 0.1994)*ind(y < 0.1994)", "ind\t(x < 0.1994)*ind\t(y < 0.1994)"),
    ("ind(x < 0.1994)*ind(y < 0.1994)", "(ind\n(x < 0.1994))*(ind\n(y < 0.1994))"),
    ("1 - abs(x - y)", "1 - abs\t(x - y)"),
    ("4*x*y", "(4 *\tx*\ny)  # a comment"),
])
def test_whitespace_and_comments_do_not_matter(spaced, other):
    # the tab variant of the step kernel once took Gauss (0.0349 +- 0.0177) for the grid
    a, b = compile_expression(spaced), compile_expression(other)
    assert (a.smooth, a.form) == (b.smooth, b.form)
    grid = np.linspace(0.0, 1.0, 9)
    assert np.array_equal(a(grid[:, None], grid), b(grid[:, None], grid))
    assert (moment_graphon(GraphonFamily({2: spaced}), 4)
            == moment_graphon(GraphonFamily({2: other}), 4))
