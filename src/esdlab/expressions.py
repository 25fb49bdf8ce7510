"""Tiny arithmetic expression language for graphons and profiles.

Accepts strings like ``"4*x*y"``, ``"0.5 + 0.25*(x + y)"``,
``"ind(abs(x - y) <= 0.25)"`` or ``"sin(pi*(x + y)/n)"`` and compiles them to
vectorized numpy callables.  Only a whitelisted subset of Python expression
syntax is allowed: the declared variables, numeric literals (True and False
are not numbers here), + - * / **, unary minus, the functions
abs/sin/cos/sqrt/exp, the constants pi and e, and
``ind(<comparison>)`` which turns a single <=, <, >= or > comparison into a
0/1 indicator.  Everything else is rejected, so configs stay data, not code.

:func:`polynomial_form` reads the same text as an exact polynomial where it
is one: ``"2*sqrt(x*y)"`` is 2 x^(1/2) y^(1/2) and ``"2.0*x*y/n"`` is
2 x y n^(-1), with Fraction coefficients. Kernels with such a form are
summed exactly by :mod:`esdlab.moments` and never evaluated.

Operations are named by their numpy ufuncs. ``ast`` is imported only by the
functions that parse, and numpy only when a compiled expression is called.
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


def compile_expression(source: str, variables: Sequence[str] = ("x", "y")) -> Callable:
    """Compile ``source`` to a function of the given positional variables.

    >>> f = compile_expression("4*x*y")
    >>> float(f(0.5, 1.0))
    2.0
    """
    tree = _parse(source)
    names = tuple(variables)

    def check(node) -> None:
        kind = _kind(node)
        if kind == "Expression":
            check(node.body)
        elif kind == "BinOp" and _kind(node.op) in _BINOPS:
            check(node.left)
            check(node.right)
        elif kind == "UnaryOp" and _kind(node.op) in ("USub", "UAdd"):
            check(node.operand)
        elif kind == "Constant":
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise ValidationError(f"literal {node.value!r} not allowed in expressions")
        elif kind == "Name":
            if node.id not in names and node.id not in _CONSTANTS:
                raise ValidationError(
                    f"unknown name {node.id!r}; allowed variables: {', '.join(names)}"
                )
        elif kind == "Call":
            if _kind(node.func) != "Name" or node.keywords:
                raise ValidationError("only plain calls to whitelisted functions are allowed")
            fn = node.func.id
            if fn == "ind":
                if len(node.args) != 1 or _kind(node.args[0]) != "Compare":
                    raise ValidationError("ind(...) takes exactly one comparison")
                cmp_node = node.args[0]
                if len(cmp_node.ops) != 1 or _kind(cmp_node.ops[0]) not in _COMPARES:
                    raise ValidationError("ind(...) supports a single <=, <, >= or > comparison")
                check(cmp_node.left)
                check(cmp_node.comparators[0])
            elif fn in _FUNCTIONS:
                if len(node.args) != 1:
                    raise ValidationError(f"{fn}() takes exactly one argument")
                check(node.args[0])
            else:
                raise ValidationError(f"function {fn!r} not allowed in expressions")
        else:
            raise ValidationError(f"syntax {kind} not allowed in expressions")

    check(tree)

    def evaluate(node, env: dict, np):
        kind = _kind(node)
        if kind == "Expression":
            return evaluate(node.body, env, np)
        if kind == "BinOp":
            ufunc = getattr(np, _BINOPS[_kind(node.op)])
            return ufunc(evaluate(node.left, env, np), evaluate(node.right, env, np))
        if kind == "UnaryOp":
            value = evaluate(node.operand, env, np)
            return -value if _kind(node.op) == "USub" else +value
        if kind == "Constant":
            return node.value
        if kind == "Name":
            return env[node.id] if node.id in env else _CONSTANTS[node.id]
        if kind == "Call":
            if node.func.id == "ind":
                cmp_node = node.args[0]
                lhs = evaluate(cmp_node.left, env, np)
                rhs = evaluate(cmp_node.comparators[0], env, np)
                return getattr(np, _COMPARES[_kind(cmp_node.ops[0])])(lhs, rhs).astype(float)
            return getattr(np, node.func.id)(evaluate(node.args[0], env, np))
        raise AssertionError(f"unchecked node {node!r}")

    def compiled(*args):
        import numpy as np
        if len(args) != len(names):
            raise TypeError(f"expression expects {len(names)} arguments {names}, got {len(args)}")
        env = dict(zip(names, (np.asarray(a, dtype=float) for a in args)))
        return evaluate(tree, env, np)

    compiled.source = source  # type: ignore[attr-defined]
    return compiled


# -- exact polynomial forms ---------------------------------------------------

class _NotPolynomial(Exception):
    pass


def _exponent(value: Fraction):
    """An exponent as an int when it is whole, else the Fraction itself."""
    return int(value) if value.denominator == 1 else value


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def _multiply(a: dict, b: dict) -> dict:
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = tuple(_exponent(Fraction(i) + j) for i, j in zip(ka, kb))
            if any(abs(e) > MAX_DEGREE for e in key):
                raise _NotPolynomial
            out[key] = out.get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def power_form(form: dict, exponent: int) -> Optional[dict]:
    """``form`` raised to a positive integer power, or None past MAX_DEGREE.

    >>> power_form({(Fraction(1, 2), Fraction(1, 2)): Fraction(2)}, 2)
    {(1, 1): Fraction(4, 1)}
    """
    result = form
    try:
        for _ in range(exponent - 1):
            result = _multiply(result, form)
    except _NotPolynomial:
        return None
    return result


def _square_root(c: Fraction) -> Fraction:
    if c < 0:
        raise _NotPolynomial
    top, bottom = math.isqrt(c.numerator), math.isqrt(c.denominator)
    if top * top != c.numerator or bottom * bottom != c.denominator:
        raise _NotPolynomial
    return Fraction(top, bottom)


def polynomial_form(source: str, variables: Sequence[str] = ("x", "y")) -> Optional[dict]:
    """``source`` as an exact polynomial, or None when it is not one.

    The form maps a tuple of exponents, one per variable, to a nonzero
    Fraction coefficient; an exponent is an int, or a Fraction where it is a
    half-integer. Literals are read exactly (a float ``f`` as
    ``Fraction(f)``). ``+``, ``-``, ``*``, ``/`` by a single term, ``**`` by
    an integer literal from 0 to MAX_DEGREE, and ``sqrt`` of a single term
    whose coefficient is the square of a rational keep a polynomial; the
    variables are nonnegative on their domain, so sqrt(x**2) is x. pi, e,
    the other functions, ``ind``, and any exponent beyond MAX_DEGREE give
    None; so does anything :func:`compile_expression` would reject, except
    text that does not parse, which raises ValidationError.

    >>> polynomial_form("2*sqrt(x*y) + y/4")
    {(Fraction(1, 2), Fraction(1, 2)): Fraction(2, 1), (0, 1): Fraction(1, 4)}
    >>> polynomial_form("sin(x*y)") is None
    True
    """
    names = tuple(variables)
    one = (0,) * len(names)

    def walk(node) -> dict:
        kind = _kind(node)
        if kind == "Expression":
            return walk(node.body)
        if kind == "Constant" and type(node.value) in (int, float):
            return _add({}, {one: Fraction(node.value)})
        if kind == "Name":
            if node.id not in names:
                raise _NotPolynomial  # pi or e
            return {tuple(int(name == node.id) for name in names): Fraction(1)}
        if kind == "UnaryOp" and _kind(node.op) in ("USub", "UAdd"):
            form = walk(node.operand)
            return {key: -c for key, c in form.items()} if _kind(node.op) == "USub" else form
        if kind == "BinOp":
            op, left = _kind(node.op), walk(node.left)
            if op == "Pow":
                power = node.right
                if (_kind(power) != "Constant" or type(power.value) is not int
                        or power.value > MAX_DEGREE):
                    raise _NotPolynomial
                if power.value == 0:
                    return {one: Fraction(1)}
                result = power_form(left, power.value)
                if result is None:
                    raise _NotPolynomial
                return result
            right = walk(node.right)
            if op == "Add":
                return _add(left, right)
            if op == "Sub":
                return _add(left, {key: -c for key, c in right.items()})
            if op == "Mult":
                return _multiply(left, right)
            if op == "Div" and len(right) == 1:  # only by a single nonzero term
                (key, c), = right.items()
                return _multiply(left, {tuple(-e for e in key): 1 / c})
        if (kind == "Call" and _kind(node.func) == "Name" and node.func.id == "sqrt"
                and len(node.args) == 1 and not node.keywords):
            form = walk(node.args[0])
            if len(form) > 1:
                raise _NotPolynomial
            return {tuple(_exponent(Fraction(e) / 2) for e in key): _square_root(c)
                    for key, c in form.items()}
        raise _NotPolynomial

    try:
        return walk(_parse(source))
    except (_NotPolynomial, OverflowError, ValueError):  # inf and nan literals
        return None


def expression_is_smooth(source: str) -> bool:
    """Heuristic: an expression without indicators or absolute values is smooth.

    Both make jumps or kinks, where a Gauss rule's error estimate (the gap to
    the half-order rule) can under-report.
    """
    compact = source.replace(" ", "")
    return "ind(" not in compact and "abs(" not in compact

