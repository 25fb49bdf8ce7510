"""The approximate node rules for integrals of kernel products over [0,1]^colors.

Every integrand here is a product of two-variable kernels along the edges of
a rooted colored tree, one variable per color. On one weighted node set
shared by all variables each kernel becomes a matrix g(x_i, x_j), and
:func:`integrate_tree_sum` sums the products of all trees of every order up
to k at once by the color-class recursion of :mod:`esdlab.treesum`, on one
matrix per member per node set. :func:`esdlab.graphons.node_rule` picks the
rule once for all the kernels of a run of orders, from their fields (cells,
form, band, smooth). Its exact rule, the cells of :mod:`esdlab.cells` for
row-constant kernels and for constants, grids, polynomials and open bands
over them, is summed in rationals by :func:`esdlab.moments.graphon_series`,
which never loads this module for it. So only kernels on the "gauss" and
"grid" rules come here: transcendental ones, ``ind`` and ``abs`` steps and
kinks, periodic bands over a non-constant base, and bands of two widths.
:func:`integrate_on_nodes` runs the node sets of the rule it is given, and
neither takes a setting:

* "gauss", for smooth kernels -> Gauss-Legendre on GAUSS_POINTS and
  GAUSS_POINTS/2 nodes; the value is the first, the error the gap between the two.
* "grid", for anything else -> uniform grids of GRID_CAP/4, GRID_CAP/2 and GRID_CAP
  cells; the value is the finest, the error the gap to the one before. A
  kernel is evaluated at cell midpoints without its band, and its band
  indicator takes its exact average over each pair of cells (a function of
  |i - j| only), which keeps the single-edge integral exact and the rule
  second order.

Called directly, :func:`integrate_tree_sum` runs these rules on any kernels,
exact ones included. Here the arrays of a theory command begin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import NumericError
from .graphons import Graphon
from .treesum import tree_sum

#: cells of the finest uniform grid; its kernel matrices take 8 MB each
GRID_CAP = 1024
#: Gauss-Legendre nodes per variable for smooth kernels; the error is the gap to half as many
GAUSS_POINTS = 32


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    method: str  # "gauss" | "grid" here; "exact" from the per-tree oracle of the tests


@dataclass(frozen=True, eq=False)
class Nodes:
    """Weighted nodes on [0,1] and the kernel matrices on them.

    ``cells`` is the cell count when the nodes are the midpoints of a uniform
    grid; band indicators need it for their cell-pair averages.
    """

    x: np.ndarray
    w: np.ndarray
    cells: int = 0

    @classmethod
    def uniform(cls, cells: int) -> "Nodes":
        return cls((np.arange(cells) + 0.5) / cells, np.full(cells, 1.0 / cells), cells)

    def matrix(self, g: Graphon) -> np.ndarray:
        kernel = g.eval(self.x[:, None], self.x[None, :], band=False)
        if g.alpha is not None:
            kernel = kernel * _band_cell_average(self.cells, g.alpha, g.periodic)
        if not np.all(np.isfinite(kernel)):
            raise NumericError(f"kernel {g.label!r} is non-finite at quadrature nodes")
        return kernel


def _triangular_cdf(t: np.ndarray) -> np.ndarray:
    """CDF of the difference of two independent uniforms on [0, 1]."""
    t = np.clip(t, -1.0, 1.0)
    return np.where(t < 0, 0.5 * (1.0 + t) ** 2, 1.0 - 0.5 * (1.0 - t) ** 2)


def _band_cell_average(cells: int, alpha: float, periodic: bool) -> np.ndarray:
    """Average of the band indicator over each pair of cells of a uniform grid.

    On cells i and j, cells * (x - y) is d + T with d = i - j and T the
    difference of two uniforms, so the average is P(|d + T| <= alpha * cells),
    plus P(|d + T| >= (1 - alpha) * cells) for the periodic band.
    """
    d = np.arange(cells, dtype=float)

    def within(reach: float) -> np.ndarray:
        return _triangular_cdf(reach - d) - _triangular_cdf(-reach - d)

    average = within(alpha * cells)
    if periodic:
        average = average + 1.0 - within((1.0 - alpha) * cells)
    # row i of the windows over average[|d|], d = -(cells-1)..cells-1, reversed: average[|j - i|]
    mirrored = np.concatenate([average[:0:-1], average])
    return np.lib.stride_tricks.sliding_window_view(mirrored, cells)[::-1]


def _gauss_nodes(points: int) -> Nodes:
    x, w = np.polynomial.legendre.leggauss(points)
    return Nodes(0.5 * (x + 1.0), 0.5 * w)


def _grid_error(coarse: float, middle: float, fine: float) -> float:
    """Error of the finest of three grids, each twice as fine as the one before.

    The gap |N - N/2| bounds the error of a rule of order two. A first-order
    rule (an indicator evaluated at midpoints) shrinks its gaps by about half,
    and when they shrink by less than half the Richardson estimate
    gap / (previous/gap - 1) is the larger one.
    """
    gap, previous = abs(fine - middle), abs(middle - coarse)
    if gap < previous < 2.0 * gap:
        return gap * gap / (previous - gap)
    return gap


def integrate_on_nodes(evaluate: Callable[[Nodes], list[float]], rule: str) -> list[IntegralResult]:
    """Run ``evaluate`` on the node sets of ``rule``, "gauss" or "grid": one
    result per value it returns."""
    if rule == "gauss":
        full, half = (evaluate(_gauss_nodes(GAUSS_POINTS // s)) for s in (1, 2))
        return [IntegralResult(f, abs(f - h), "gauss") for f, h in zip(full, half)]
    coarse, middle, fine = (evaluate(Nodes.uniform(GRID_CAP // s)) for s in (4, 2, 1))
    return [IntegralResult(f, _grid_error(c, m, f), "grid")
            for c, m, f in zip(coarse, middle, fine)]


def integrate_tree_sum(members: Mapping[int, Graphon], k: int, rule: str) -> list[IntegralResult]:
    """Sums over all colored trees with j edges of their edge-kernel integrals, j = 1..k.

    A class of t nodes applies the matrix of ``members[t]`` (order 2t) to its
    message; an absent t zeroes its trees. Overflows come back non-finite, unwarned.
    """
    def evaluate(nodes: Nodes) -> list[float]:
        kernels = {t: nodes.matrix(g) for t, g in members.items()}

        def edge(t: int, f: np.ndarray) -> Optional[np.ndarray]:
            kernel = kernels.get(t)
            return None if kernel is None else kernel @ (nodes.w * f)

        return [float(np.sum(nodes.w * f)) for f in tree_sum(k, edge, np.ones_like(nodes.w))]

    with np.errstate(all="ignore"):
        return integrate_on_nodes(evaluate, rule)
