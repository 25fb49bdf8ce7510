"""The exact cell rule: kernel families summed in integers over pieces of [0, 1].

:func:`esdlab.moments.graphon_series` sends here every run of orders whose
node rule is "cells" (:func:`esdlab.graphons.node_rule`): schedules and periodic
bands over constants, on one cell; blocks, grids, polynomial kernels in x
and y, any mix of these, and open bands of one half-width over any of them,
up to :data:`MAX_BREAK_SLOTS` break slots. Each member is read
from its fields: its cells, its form, and its band. The color-class
recursion of :mod:`esdlab.treesum` runs on messages that are polynomials on
each piece of a :class:`_Partition` (:class:`_Pieces`); over constants and
grids a message has degree 0, one number per cell. A member acts on a
message by :func:`_edge`, always by its window integrals: over an open
band's window, or all of [0, 1] without one. One partition and one action
per member serve every order of a run, and each sum is exact, so a moment is
rounded once.

Breaks and half-widths are floats, so they share a power of two B as common
denominator. Messages are polynomials in X = B*x, in which every break and
the half-width are integers, and their coefficients are integers over one
common denominator per message: the rule runs on Python ints and reduces one
fraction per member application, never one per operation.

No numpy is loaded here.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from typing import Callable, Iterable, Mapping, Sequence

from .errors import CapacityError
from .graphons import Graphon
from .treesum import tree_sum

# The most break slots (a grid break shifted by one multiple of an open band's
# half-width) a partition may try: near it a band over constants (half-width
# 3.06e-5) sums 2k = 4 in 3 s and 80 MB, 2k = 8 in 6 s and 175 MB, on one core.
MAX_BREAK_SLOTS = 1 << 17


def cell_sum(members: Mapping[int, Graphon], k: int) -> list[Fraction]:
    """beta_2, ..., beta_{2k}: the sums over colored trees with j <= k edges, in
    which a class of t nodes applies the member of order 2t, exactly over the
    pieces of the members' breaks."""
    pieces = _Partition(members.values())
    edges = {t: _edge(g, pieces) for t, g in members.items()}

    def edge(t: int, f: "_Pieces"):
        apply = edges.get(t)
        return None if apply is None else apply(f)

    sums = [pieces.integrals(f, 0) for f in tree_sum(k, edge, pieces.one)]
    return [Fraction(sum(nums), den * pieces.scale) for nums, den in sums]  # dx = dX / B


class _Pieces:
    """A message: a polynomial in X on each piece, in integers over one common
    denominator. ``rows[p][i] / den`` is the coefficient of X**p on piece i;
    ``+`` and ``*`` act piece by piece on Python ints."""

    __slots__ = ("rows", "den")

    def __init__(self, rows: list, den: int = 1):
        self.rows, self.den = rows, den

    @classmethod
    def reduced(cls, rows: list, den: int) -> "_Pieces":
        """The message rows / den, with the common factor of all its integers taken out."""
        g = math.gcd(den, *(c for row in rows for c in row))
        return cls([[c // g for c in row] for row in rows], den // g) if g > 1 else cls(rows, den)

    def __add__(self, other: "_Pieces") -> "_Pieces":
        a, b, den = self.rows, other.rows, self.den
        if other.den != den:
            g = math.gcd(den, other.den)
            a, b = _scaled_rows(a, other.den // g), _scaled_rows(b, den // g)
            den *= other.den // g
        if len(a) < len(b):
            a, b = b, a
        return _Pieces([list(map(add, r, s)) for r, s in zip(a, b)] + a[len(b):], den)

    def __mul__(self, other) -> "_Pieces":
        if isinstance(other, int):
            return _Pieces(_scaled_rows(self.rows, other), self.den)
        a, b = self.rows, other.rows
        if len(a) == len(b) == 1:  # degree 0, as over constants and grids
            return _Pieces([list(map(mul, a[0], b[0]))], self.den * other.den)
        out: list = [None] * (len(a) + len(b) - 1)
        for p, row in enumerate(a):
            for q, col in enumerate(b):
                product = list(map(mul, row, col))
                out[p + q] = product if out[p + q] is None else list(map(add, out[p + q], product))
        return _Pieces(out, self.den * other.den)

    __rmul__ = __mul__


def _over_common(rows: list) -> tuple[list, int]:
    """Rows of Fractions or ints as integer rows over their least common denominator."""
    den = math.lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows], den


def _scaled_rows(rows: list, s: int) -> list:
    return rows if s == 1 else [[c * s for c in row] for row in rows]


class _Partition:
    """The pieces of [0, 1] that the exact cell rule sums over, in X = B*x.

    Their breaks are 0, 1 and every grid's breaks. With an open band of
    half-width alpha they are also shifted by every multiple of alpha that
    stays in [0, 1]; that set is closed under +-alpha, so for x on piece I,
    x - alpha runs over one whole piece ``below[I]`` or stays below 0, and
    x + alpha over one whole piece ``above[I]`` or stays above 1. Without an
    open band both are None on every piece: each window is all of [0, 1].
    """

    def __init__(self, kernels: Iterable[Graphon]):
        kernels = list(kernels)
        breaks = {Fraction(b) for g in kernels for b in g.breaks} | {0, 1}
        alpha = next((Fraction(g.alpha) for g in kernels
                      if g.alpha is not None and not g.periodic), None)
        if alpha is not None:
            reach = math.floor(1 / alpha)
            if len(breaks) * (2 * reach + 1) > MAX_BREAK_SLOTS:
                raise CapacityError(f"an open band of half-width {float(alpha):.3g} takes more than "
                                    f"{MAX_BREAK_SLOTS} break slots over {len(breaks)} breaks")
            breaks = {b + j * alpha for b in breaks for j in range(-reach, reach + 1)
                      if 0 <= b + j * alpha <= 1}
        self.breaks = sorted(breaks)
        self.scale = math.lcm(*(b.denominator for b in self.breaks))  # B; alpha is a break
        ends = [int(b * self.scale) for b in self.breaks]
        self.left, self.right = ends[:-1], ends[1:]
        self.below = self.above = [None] * len(self.left)
        if alpha is not None:
            self.alpha = int(alpha * self.scale)
            start = {a: i for i, a in enumerate(self.left)}
            self.below = [start.get(a - self.alpha) for a in self.left]
            self.above = [start.get(a + self.alpha) for a in self.left]
        self.one = _Pieces([[1] * len(self.left)])
        self._gaps: dict[int, list[int]] = {}

    def integrals(self, f: _Pieces, q: int) -> tuple[list, int]:
        """The integral of Y**q F(Y) dY over each piece: integer numerators and
        their common denominator, ``f.den`` times :meth:`divisor`."""
        divisor = self.divisor(f, q)
        total = [0] * len(self.left)
        for p, row in enumerate(f.rows):
            e = p + q + 1
            total = list(map(add, total, map(mul, row, self._power_gaps(e, divisor // e))))
        return total, divisor * f.den

    @staticmethod
    def divisor(f: _Pieces, q: int) -> int:
        """The common multiple of the powers p + q + 1 an integral of Y**q F(Y) divides by."""
        return math.lcm(*range(q + 1, q + len(f.rows) + 1))

    def _power_gaps(self, e: int, s: int) -> list[int]:
        """s * (b**e - a**e) on each piece [a, b]."""
        if e not in self._gaps:
            self._gaps[e] = [b**e - a**e for a, b in zip(self.left, self.right)]
        return self._gaps[e] if s == 1 else [s * g for g in self._gaps[e]]

    def windows(self, f: _Pieces, q: int, cells, below, above) -> tuple[list[list[int]], int]:
        """On each piece I, the integer coefficients in X of the integral of
        c(I, J) Y**q F(Y) over the window of X, and their common denominator.

        c is the grid ``cells`` on pieces (I, J) (for each grid row its integer
        values on the pieces, the grid row of each piece, and their common
        denominator), or 1. The window is [X - alpha, X + alpha] within [0, B]
        with this partition's ``below`` and ``above``, and all of [0, B] when
        both are None on every piece. The pieces wholly inside the window add
        their integrals, a difference of two running sums of c(I, J) times the
        integral over J, one sum per grid row; the piece below[I] adds the
        antiderivative from X - alpha to its end, and the piece above[I] from
        its start to X + alpha, each a Taylor shift of a polynomial by -+alpha.
        """
        whole, den = self.integrals(f, q)
        divisor = den // f.den
        rows, row_of, cells_den = cells or ([[1] * len(whole)], [0] * len(whole), 1)
        running = [list(accumulate(map(mul, row, whole), initial=0)) for row in rows]
        out = []
        for r, lo, hi in zip(row_of, below, above):
            first = 0 if lo is None else lo  # piece lo whole, less its part below X - alpha
            last = len(whole) if hi is None else hi
            window = [running[r][last] - running[r][first]]
            for j, sign in ((lo, -1), (hi, 1)):  # less the part below, plus the part above
                if j is not None:
                    part = _shifted(self._antiderivative(f, q, j, divisor), sign * self.alpha)
                    _add_scaled(window, sign * rows[r][j], part)
            out.append(window)
        return out, den * cells_den

    def _antiderivative(self, f: _Pieces, q: int, j: int, divisor: int) -> list[int]:
        """Integer coefficients, over ``divisor * f.den``, of the integral of
        t**q F(t) from the start of piece j to Y."""
        coefficients = [0] * (len(f.rows) + q + 1)
        for p, row in enumerate(f.rows):
            coefficients[p + q + 1] = row[j] * (divisor // (p + q + 1))
        coefficients[0] = -_value(coefficients, self.left[j])
        return coefficients


def _value(coefficients: list, x: int) -> int:
    """A polynomial's value at x, by Horner's rule."""
    total = 0
    for c in reversed(coefficients):
        total = total * x + c
    return total


def _shifted(coefficients: list, s: int) -> list:
    """Coefficients of P(x + s) from those of P(x), by Horner's rule in x + s."""
    out: list = []
    for c in reversed(coefficients):
        # out <- out * (x + s) + c
        if out:
            out = [c + s * out[0]] + [a + s * b for a, b in zip(out, out[1:])] + out[-1:]
        else:
            out = [c]
    return out


def _add_scaled(into: list, a, poly: list, offset: int = 0) -> None:
    """into += a * x**offset * poly, on coefficient lists; ``into`` grows as needed."""
    into.extend([0] * (offset + len(poly) - len(into)))
    for i, c in enumerate(poly, offset):
        into[i] += a * c


def _edge(g: Graphon, pieces: _Partition) -> Callable[[_Pieces], _Pieces]:
    """The action f -> integral of g(x, y) f(y) dy of a member on the exact rule.

    Without its band the member is a sum of terms a_pq x**p y**q (its form,
    or the one term (0, 0) with coefficient 1) times a cell value c(I, J) for
    x on piece I and y on piece J. So the action is sum_pq a_pq x**p times
    the integrals of c(I, .) y**q f(y) over its window (:meth:`_Partition.windows`):
    an open band's, or all of [0, 1] without a band, even beside members on
    an open band. In X = B*x a term is a_pq X**p Y**q dY / B**(p + q + 1).

    A member of one cell folds its cell value into its terms. A periodic
    band comes here only with every kernel row-constant (see node_rule), on
    one cell, so with no open band: its rows all integrate to 2*alpha*c,
    so it is the constant term 2*alpha*c over all of [0, 1].
    """
    terms = {(0, 0): 1} if g.form is None else g.form
    cells = None
    if len(g.cells) > 1:
        cells = _cell_values(g, pieces.breaks[:-1])
    else:
        c = Fraction(g.cells[0][0]) * (2 * Fraction(g.alpha) if g.periodic else 1)
        terms = {key: c * a for key, a in terms.items()}
    # every term over the one denominator A * B**(top + 1)
    top = max((p + q for p, q in terms), default=0)
    (numerators,), den_terms = _over_common([list(terms.values())])
    den_terms *= pieces.scale ** (top + 1)
    weights = {(p, q): a * pieces.scale ** (top - p - q) for (p, q), a in zip(terms, numerators)}
    powers = sorted({q for _, q in terms})
    n = len(pieces.left)
    ends = ([None] * n,) * 2 if g.alpha is None else (pieces.below, pieces.above)

    def apply(f: _Pieces) -> _Pieces:
        per_q = {q: pieces.windows(f, q, cells, *ends) for q in powers}
        den = math.lcm(*(d for _, d in per_q.values()))
        polys: list = [[] for _ in range(n)]
        for (p, q), w in weights.items():
            windows, d = per_q[q]
            w *= den // d
            for poly, window in zip(polys, windows):
                _add_scaled(poly, w, window, p)
        degree = max(1, *map(len, polys))
        return _Pieces.reduced([[poly[p] if p < len(poly) else 0 for poly in polys]
                                for p in range(degree)], den * den_terms)

    return apply


def _cell_values(g: Graphon, lefts: Sequence[Fraction]) -> tuple[list, list[int], int]:
    """A grid's value on each pair of pieces, given the pieces' left ends: for each
    grid row its integer values on the pieces, the grid row of each piece, and
    their common denominator."""
    rows, den = _over_common([list(map(Fraction, row)) for row in g.cells])
    index = [bisect_right(g.breaks, b) - 1 for b in lefts]
    return [[row[j] for j in index] for row in rows], index, den
