"""Tiny arithmetic expression language for graphons and profiles.

Accepts strings like ``"4*x*y"``, ``"0.5 + 0.25*(x + y)"``,
``"ind(abs(x - y) <= 0.25)"`` or ``"sin(pi*(x + y)/n)"``. Only a whitelisted
subset of Python expression syntax is allowed: the declared variables,
numeric literals (True and False are not numbers here), + - * / **, unary
minus, the functions abs/sin/cos/sqrt/exp, the constants pi and e, and
``ind(<comparison>)`` which turns a single <=, <, >= or > comparison into a
0/1 indicator. Everything else is rejected, so configs stay data, not code.
Whitespace and comments do not matter.

:func:`compile_expression` is the one reader: one walk of the parsed tree
checks it and gives an :class:`Expression`, which reads the text three ways.
Called, it evaluates the text with numpy's ufuncs in the order the text
applies them, every literal as a float (``2**64`` is 1.8446744073709552e19,
``2**-1`` is 0.5; a literal too large for a float raises ValidationError).
``smooth`` is False exactly when the text calls ``ind`` or ``abs``, whose
jumps and kinks can make a Gauss rule's error estimate under-report.
``form`` is the text as an exact polynomial where it is one, built on first
read (a sampler never reads it), with literals read as their exact values:
``"2*sqrt(x*y)"`` is 2 x^(1/2) y^(1/2) and ``"2.0*x*y/n"`` is 2 x y n^(-1),
with Fraction coefficients. A kernel whose form has whole exponents is summed
exactly by :mod:`esdlab.moments`; one with half-integer exponents, such as the
graphon ``2*sqrt(x*y)``, takes Gauss.
:mod:`esdlab.graphons` evaluates every form on its symmetry-check grid.

``ast`` is imported only to parse, and numpy only when an Expression is called.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import ValidationError

# syntax -> the name of the numpy ufunc that evaluates it; nodes are keyed by
# class name so that importing this module does not import ast
_FUNCTIONS = ("abs", "sin", "cos", "sqrt", "exp")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINOPS = {"Add": "add", "Sub": "subtract", "Mult": "multiply", "Div": "divide", "Pow": "power"}
_UNARY = {"USub": "negative", "UAdd": "positive"}
_COMPARES = {"LtE": "less_equal", "Lt": "less", "GtE": "greater_equal", "Gt": "greater"}
#: largest |exponent| of any variable in a polynomial form; beyond it a form is None
MAX_DEGREE = 64


def _parse(source: str):
    import ast
    try:
        return ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse expression {source!r}: {exc}") from exc


def _kind(node) -> str:
    return type(node).__name__


class Expression:
    """A checked expression text: call it with one array or number per variable.

    Its evaluator is the closure over numpy's ufuncs that compiling built; numpy
    is passed to it on each call, so compiling never imports numpy.
    """

    __slots__ = ("source", "smooth", "_form", "_names", "_evaluate")

    def __init__(self, source: str, names: tuple, evaluate: Callable, smooth: bool,
                 form: Callable[[], Optional[dict]]):
        self.source, self.smooth, self._form = source, smooth, form
        self._names, self._evaluate = names, evaluate

    @property
    def form(self) -> Optional[dict]:
        """The exact polynomial of the text, or None; built on first read, since a
        large power can take seconds that an evaluation never needs."""
        if callable(self._form):
            self._form = self._form()
        return self._form

    def __call__(self, *args):
        import numpy as np
        if len(args) != len(self._names):
            raise TypeError(f"expression expects {len(self._names)} arguments {self._names}, "
                            f"got {len(args)}")
        return self._evaluate(np, [np.asarray(a, dtype=float) for a in args])


def _ufunc(name: str, *operands: Callable) -> Callable:
    """The evaluator ``(np, args) -> value`` of numpy's ufunc ``name`` on its operands."""
    if len(operands) == 1:
        operand, = operands
        return lambda np, args: getattr(np, name)(operand(np, args))
    left, right = operands
    return lambda np, args: getattr(np, name)(left(np, args), right(np, args))


def compile_expression(source: str, variables: Sequence[str] = ("x", "y")) -> Expression:
    """Check ``source`` and read it as a function of the given positional variables.

    >>> f = compile_expression("4*x*y")
    >>> float(f(0.5, 1.0)), f.smooth, f.form
    (2.0, True, {(1, 1): Fraction(4, 1)})
    >>> g = compile_expression("2*sqrt(x*y) + ind(y < 1/4)")
    >>> g.smooth, g.form is None
    (False, True)
    """
    names = tuple(variables)
    one = (0,) * len(names)
    calls = set()

    def walk(node) -> tuple[Callable, Callable[[], Optional[dict]]]:
        """The evaluator ``(np, args) -> value`` of a node, and a function that
        builds its exact form (None if not a polynomial)."""
        kind = _kind(node)
        if kind == "BinOp" and _kind(node.op) in _BINOPS:
            op = _kind(node.op)
            (left, p), (right, q) = walk(node.left), walk(node.right)
            exponent = node.right.value if _kind(node.right) == "Constant" else None
            return _ufunc(_BINOPS[op], left, right), lambda: _binop_form(op, p(), q(), exponent, one)
        if kind == "UnaryOp" and _kind(node.op) in _UNARY:
            operand, form = walk(node.operand)
            negated = (lambda: _negate(form())) if _kind(node.op) == "USub" else form
            return _ufunc(_UNARY[_kind(node.op)], operand), negated
        if kind == "Constant":
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValidationError(f"literal {value!r} not allowed in expressions")
            try:
                number = float(value)
            except OverflowError:
                raise ValidationError(f"a literal in {source!r} is too large for a float") from None
            if not math.isfinite(number):
                return (lambda np, args: number), _no_form
            return (lambda np, args: number), lambda: _add({}, {one: Fraction(value)})
        if kind == "Name":
            if node.id in names:
                key, index = tuple(int(name == node.id) for name in names), names.index(node.id)
                return (lambda np, args: args[index]), lambda: {key: Fraction(1)}
            if node.id in _CONSTANTS:
                constant = _CONSTANTS[node.id]
                return (lambda np, args: constant), _no_form
            raise ValidationError(
                f"unknown name {node.id!r}; allowed variables: {', '.join(names)}")
        if kind == "Call":
            if _kind(node.func) != "Name" or node.keywords:
                raise ValidationError("only plain calls to whitelisted functions are allowed")
            fn = node.func.id
            calls.add(fn)
            if fn == "ind":
                if len(node.args) != 1 or _kind(node.args[0]) != "Compare":
                    raise ValidationError("ind(...) takes exactly one comparison")
                test = node.args[0]
                if len(test.ops) != 1 or _kind(test.ops[0]) not in _COMPARES:
                    raise ValidationError("ind(...) supports a single <=, <, >= or > comparison")
                (left, _), (right, _) = walk(test.left), walk(test.comparators[0])
                compare = _ufunc(_COMPARES[_kind(test.ops[0])], left, right)
                return (lambda np, args: compare(np, args).astype(float)), _no_form
            if fn in _FUNCTIONS:
                if len(node.args) != 1:
                    raise ValidationError(f"{fn}() takes exactly one argument")
                operand, form = walk(node.args[0])
                return _ufunc(fn, operand), (lambda: _sqrt_form(form())) if fn == "sqrt" else _no_form
            raise ValidationError(f"function {fn!r} not allowed in expressions")
        raise ValidationError(f"syntax {kind} not allowed in expressions")

    evaluate, form = walk(_parse(source).body)
    return Expression(source, names, evaluate, smooth=not calls & {"ind", "abs"}, form=form)


# -- exact polynomial forms ---------------------------------------------------
#
# A form maps a tuple of exponents, one per variable, to a nonzero Fraction
# coefficient; an exponent is an int, or a Fraction where it is a half-integer.
# + - *, / by a single term, ** by an integer literal from 0 to MAX_DEGREE, and
# sqrt of a single term whose coefficient is the square of a rational keep a
# polynomial; the variables are nonnegative on their domain, so sqrt(x**2) is
# x. pi, e, inf, the other functions, ind, and exponents past MAX_DEGREE do not.

def _exponent(value):
    """An exponent, an int or a Fraction, as an int when it is whole."""
    return int(value) if value.denominator == 1 else value


def _no_form() -> None:
    """The form of a node that is not a polynomial."""
    return None


def _negate(form: Optional[dict]) -> Optional[dict]:
    return None if form is None else {key: -c for key, c in form.items()}


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _multiply(a: dict, b: dict) -> Optional[dict]:
    """The product of two forms, or None past MAX_DEGREE."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(_exponent(i + j) for i, j in zip(ka, kb))
            if any(abs(e) > MAX_DEGREE for e in key):
                return None
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def power_form(form: dict, exponent: int) -> Optional[dict]:
    """``form`` raised to a positive integer power, or None past MAX_DEGREE.

    >>> power_form({(Fraction(1, 2), Fraction(1, 2)): Fraction(2)}, 2)
    {(1, 1): Fraction(4, 1)}
    """
    result = form
    for _ in range(exponent - 1):
        result = _multiply(result, form)
        if result is None:
            break
    return result


def _binop_form(op: str, left: Optional[dict], right: Optional[dict], exponent,
                one: tuple) -> Optional[dict]:
    """The form of ``left op right``; ``exponent`` is the literal right of ``**``, if any."""
    if left is None or right is None or (op == "Div" and len(right) != 1):
        return None
    if op == "Pow":
        if type(exponent) is not int or exponent > MAX_DEGREE:
            return None
        return {one: Fraction(1)} if exponent == 0 else power_form(left, exponent)
    if op in ("Add", "Sub"):
        return _add(left, right if op == "Add" else _negate(right))
    if op == "Div":  # by its single nonzero term
        (key, c), = right.items()
        right = {tuple(-e for e in key): 1 / c}
    return _multiply(left, right)


def _sqrt_form(form: Optional[dict]) -> Optional[dict]:
    """The form of sqrt(form): one term whose coefficient is a rational square, else None."""
    if form is None or len(form) > 1:
        return None
    out = {}
    for key, c in form.items():
        if c < 0:
            return None
        top, bottom = math.isqrt(c.numerator), math.isqrt(c.denominator)
        if top * top != c.numerator or bottom * bottom != c.denominator:
            return None
        out[tuple(_exponent(Fraction(e) / 2) for e in key)] = Fraction(top, bottom)
    return out
