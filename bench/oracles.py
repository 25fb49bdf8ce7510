"""Reference values computed apart from esdlab, used to check its outputs.

Nothing here imports esdlab. The limit moments are recomputed by a recursion
over colored trees that never lists a tree or a word, so an enumeration fault
in the program cannot hide behind the same fault in its check.

The recursion. A colored tree is a plane tree whose non-root nodes are split
into color classes; the nodes of one class sit under nodes of one parent
class. Let F(s, e) be the weighted sum over everything that can hang below a
class of s nodes when e edges lie below it. The class's N children are N
ordered slots shared among its s nodes (C(N+s-1, s-1) ways), and those slots
are split into child classes; a child class of t nodes contributes its edge
weight of order 2t times its own F(t, .). The moment of order 2k is the root
class's F(1, k), integrated over the root's variable.

For a flat schedule the edge weight of order 2t is the number C_{2t}. For a
kernel family it is the operator f -> g_{2t}(x, .) @ (w * f) on a set of
nodes with weights w, which is exact for block kernels on their cells and for
polynomial kernels on enough Gauss-Legendre nodes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

import numpy as np


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def tree_sum(k: int, edge: Callable[[int, object], Optional[object]], one):
    """F(1, k): the root class's weighted sum over colored trees with k edges.

    ``edge(t, f)`` applies the order-2t edge weight to the message ``f`` of a
    class of t nodes, or returns None when that order is absent. ``one`` is
    the unit message (1, or a vector of ones over the nodes).
    """
    zero = one * 0

    @lru_cache(maxsize=None)
    def below(s: int, e: int):
        if e == 0:
            return one
        total = zero
        for slots in range(1, e + 1):
            total = total + math.comb(slots + s - 1, s - 1) * split(slots, e - slots)
        return total

    @lru_cache(maxsize=None)
    def hang(t: int, e: int):
        return edge(t, below(t, e))

    @lru_cache(maxsize=None)
    def split(slots: int, e: int):
        # set partitions of the slots; the class holding the first slot has t of them
        if slots == 0:
            return one if e == 0 else zero
        total = zero
        for t in range(1, slots + 1):
            ways = math.comb(slots - 1, t - 1)
            for e1 in range(e + 1):
                weight = hang(t, e1)
                if weight is not None:
                    total = total + ways * (weight * split(slots - t, e - e1))
        return total

    return below(1, k)


# -- flat schedules -------------------------------------------------------------

def flat_moment(cumulant: Callable[[int], Fraction], two_k: int) -> Fraction:
    """Exact limit moment for the entry cumulants C_{2t} = cumulant(2t)."""
    def edge(t, f):
        c = cumulant(2 * t)
        return None if c == 0 else c * f

    return tree_sum(two_k // 2, edge, Fraction(1))


def census(two_k: int) -> dict[int, int]:
    """Special symmetric words of length two_k per block count b.

    The sparse moment is sum_b census[b] * lam^b; evaluating it at lam = 1..k
    and solving the Vandermonde system gives the coefficients exactly.
    """
    k = two_k // 2
    values = [flat_moment(lambda order, lam=lam: Fraction(lam), two_k) for lam in range(1, k + 1)]
    # Newton divided differences on the nodes 1..k of p(lam)/lam (degree k-1)
    xs = list(range(1, k + 1))
    coef = [v / x for v, x in zip(values, xs)]
    for level in range(1, k):
        for i in range(k - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = [Fraction(0)] * k  # monomial coefficients of p(lam)/lam
    for i in range(k - 1, -1, -1):
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - xs[i] * p for s, p in zip(shifted, poly)]
        poly[0] += coef[i]
    out = {}
    for b, c in enumerate(poly, start=1):
        if c.denominator != 1:
            raise ArithmeticError(f"census coefficient {c} is not an integer")
        if c:
            out[b] = int(c)
    return out


def census_spot_values(two_k: int) -> dict[int, int]:
    """Closed forms for four block counts: 1, 2, k-1 and k."""
    k = two_k // 2
    spots = {1: 1, k: catalan(k)}
    if k >= 3:
        spots[2] = 2**k - 2
        spots[k - 1] = math.comb(2 * k, k - 2)
    return spots


# -- kernel families --------------------------------------------------------------

def kernel_moment(kernels: dict[int, np.ndarray], nodes_weights: np.ndarray, two_k: int) -> float:
    """Moment for kernels given as matrices g_{2t}(x_i, x_j) on weighted nodes."""
    w = nodes_weights

    def edge(t, f):
        g = kernels.get(2 * t)
        return None if g is None else g @ (w * f)

    return float(w @ tree_sum(two_k // 2, edge, np.ones_like(w)))


def gauss_nodes(points: int = 24) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(points)
    return 0.5 * (x + 1.0), 0.5 * w


def polynomial_kernel_moment(kernel: Callable, orders: Callable[[int], bool],
                             two_k: int) -> float:
    """Moment for a polynomial kernel used at every order where orders(2t) holds.

    Each variable meets at most k edge factors, so 24 Gauss nodes integrate
    every message exactly for k <= 20 when the kernel has degree <= 2 per
    variable.
    """
    x, w = gauss_nodes()
    g = kernel(x[:, None], x[None, :])
    kernels = {2 * t: g for t in range(1, two_k // 2 + 1) if orders(2 * t)}
    return kernel_moment(kernels, w, two_k)


def block_moment(masses, cells_by_order: dict[int, list], two_k: int) -> float:
    """Exact moment of a block kernel: one node per cell, weighted by its mass."""
    kernels = {order: np.asarray(cells, dtype=float) for order, cells in cells_by_order.items()}
    return kernel_moment(kernels, np.asarray(masses, dtype=float), two_k)


def rank_one_moment(two_k: int) -> Fraction:
    """4^k * sum over plane trees of prod_v 1/(deg v + 1), for g_2 = 4xy only.

    Plane trees are read off Dyck words, independently of the recursion.
    """
    k = two_k // 2
    total = Fraction(0)
    for steps in _dyck_words(k):
        degree = [0]
        stack = [0]
        for up in steps:
            if up:
                degree[stack[-1]] += 1
                degree.append(1)
                stack.append(len(degree) - 1)
            else:
                stack.pop()
        term = Fraction(4**k)
        for d in degree:
            term /= d + 1
        total += term
    return total


def _dyck_words(k: int):
    word: list[bool] = []

    def extend(opened: int, depth: int):
        if len(word) == 2 * k:
            yield tuple(word)
            return
        if opened < k:
            word.append(True)
            yield from extend(opened + 1, depth + 1)
            word.pop()
        if depth > 0:
            word.append(False)
            yield from extend(opened, depth - 1)
            word.pop()

    yield from extend(0, 0)


def band_moment(alpha: float, two_k: int, cells: int) -> float:
    """Semicircle moment times a non-periodic band, on a midpoint grid.

    The band edge |x - y| = alpha falls on grid differences when alpha*cells
    is an integer; those pairs get weight 1/2, which makes the single-edge
    integral 2*alpha - alpha^2 exact. Deeper trees carry a discretisation
    error, bounded in band_moment_with_error by comparing two grids.
    """
    reach = alpha * cells
    if abs(reach - round(reach)) > 1e-9:
        raise ValueError(f"alpha*cells must be an integer, got {reach}")
    gap = np.abs(np.arange(cells)[:, None] - np.arange(cells)[None, :])
    kernel = np.where(gap < round(reach), 1.0, np.where(gap == round(reach), 0.5, 0.0))
    return kernel_moment({2: kernel}, np.full(cells, 1.0 / cells), two_k)


def band_moment_with_error(alpha: float, two_k: int, cells: int = 2000) -> tuple[float, float]:
    """Richardson value from grids of cells/2 and cells, with the gap as its error.

    The midpoint grid converges at second order here, so the extrapolated
    value's error is well inside |fine - coarse|, which is what is returned.
    """
    coarse = band_moment(alpha, two_k, cells // 2)
    fine = band_moment(alpha, two_k, cells)
    return (4.0 * fine - coarse) / 3.0, abs(fine - coarse)
