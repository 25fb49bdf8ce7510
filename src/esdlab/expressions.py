"""Tiny arithmetic expression language for graphons and profiles.

Accepts strings like ``"4*x*y"``, ``"0.5 + 0.25*(x + y)"``,
``"ind(abs(x - y) <= 0.25)"`` or ``"sin(pi*(x + y)/n)"`` and compiles them to
vectorized numpy callables.  Only a whitelisted subset of Python expression
syntax is allowed: the declared variables, numeric literals (True and False
are not numbers here), + - * / **, unary minus, the functions
abs/sin/cos/sqrt/exp, the constants pi and e, and
``ind(<comparison>)`` which turns a single <=, <, >= or > comparison into a
0/1 indicator.  Everything else is rejected, so configs stay data, not code.

Operations are named by their numpy ufuncs; :func:`compile_expression` imports numpy.
"""

from __future__ import annotations

import ast
import math
from typing import Callable, Sequence

from .errors import ValidationError

# syntax -> the name of the numpy ufunc that evaluates it
_FUNCTIONS = ("abs", "sin", "cos", "sqrt", "exp")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_BINOPS = {
    ast.Add: "add",
    ast.Sub: "subtract",
    ast.Mult: "multiply",
    ast.Div: "divide",
    ast.Pow: "power",
}
_COMPARES = {
    ast.LtE: "less_equal",
    ast.Lt: "less",
    ast.GtE: "greater_equal",
    ast.Gt: "greater",
}


def compile_expression(source: str, variables: Sequence[str] = ("x", "y")) -> Callable:
    """Compile ``source`` to a function of the given positional variables.

    >>> f = compile_expression("4*x*y")
    >>> float(f(0.5, 1.0))
    2.0
    """
    import numpy as np
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"cannot parse expression {source!r}: {exc}") from exc
    names = tuple(variables)

    def check(node: ast.AST) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            check(node.operand)
        elif isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                raise ValidationError(f"literal {node.value!r} not allowed in expressions")
        elif isinstance(node, ast.Name):
            if node.id not in names and node.id not in _CONSTANTS:
                raise ValidationError(
                    f"unknown name {node.id!r}; allowed variables: {', '.join(names)}"
                )
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.keywords:
                raise ValidationError("only plain calls to whitelisted functions are allowed")
            fn = node.func.id
            if fn == "ind":
                if len(node.args) != 1 or not isinstance(node.args[0], ast.Compare):
                    raise ValidationError("ind(...) takes exactly one comparison")
                cmp_node = node.args[0]
                if len(cmp_node.ops) != 1 or type(cmp_node.ops[0]) not in _COMPARES:
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
            raise ValidationError(
                f"syntax {type(node).__name__} not allowed in expressions"
            )

    check(tree)

    def evaluate(node: ast.AST, env: dict):
        if isinstance(node, ast.Expression):
            return evaluate(node.body, env)
        if isinstance(node, ast.BinOp):
            ufunc = getattr(np, _BINOPS[type(node.op)])
            return ufunc(evaluate(node.left, env), evaluate(node.right, env))
        if isinstance(node, ast.UnaryOp):
            value = evaluate(node.operand, env)
            return -value if isinstance(node.op, ast.USub) else +value
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            return env[node.id] if node.id in env else _CONSTANTS[node.id]
        if isinstance(node, ast.Call):
            if node.func.id == "ind":
                cmp_node = node.args[0]
                lhs = evaluate(cmp_node.left, env)
                rhs = evaluate(cmp_node.comparators[0], env)
                return getattr(np, _COMPARES[type(cmp_node.ops[0])])(lhs, rhs).astype(float)
            return getattr(np, node.func.id)(evaluate(node.args[0], env))
        raise AssertionError(f"unchecked node {node!r}")

    def compiled(*args):
        if len(args) != len(names):
            raise TypeError(f"expression expects {len(names)} arguments {names}, got {len(args)}")
        env = dict(zip(names, (np.asarray(a, dtype=float) for a in args)))
        return evaluate(tree, env)

    compiled.source = source  # type: ignore[attr-defined]
    return compiled


def expression_is_smooth(source: str) -> bool:
    """Heuristic: an expression without indicators or absolute values is smooth.

    Both make jumps or kinks, where a Gauss rule's error estimate (the gap to
    the half-order rule) can under-report.
    """
    compact = source.replace(" ", "")
    return "ind(" not in compact and "abs(" not in compact
