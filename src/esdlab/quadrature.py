"""Node rules for integrals of kernel products over [0,1]^colors.

Every integrand here is a product of two-variable kernels along the edges of
a rooted colored tree, one variable per color. On one weighted node set
shared by all variables each kernel becomes a matrix g(x_i, x_j), and the
product integrates by message passing (one tree) or by the color-class
recursion of :mod:`esdlab.treesum` (all trees of an order). The rule is
chosen once for all the kernels of an integral, from their kinds:

* constants, and periodic bands over constants -> one node. A periodic band
  of half-width alpha covers 2*alpha of every row, so messages stay constant.
  Exact.
* constants and piecewise-constant grids -> the cells of the union of the
  grids' breaks, one node per cell at its midpoint, weighted by its width.
  Exact.
* smooth kernels -> Gauss-Legendre on ``points`` and ``points // 2`` nodes;
  the value is the first, the error the gap between the two.
* anything else -> uniform grids of GRID_CAP/4, GRID_CAP/2 and GRID_CAP
  cells; the value is the finest, the error the gap to the one before. A
  band indicator takes its exact average over each pair of cells (a function
  of |i - j| only), which keeps the single-edge integral exact and the rule
  second order; other kernels are evaluated at cell midpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import NumericError, ValidationError
from .graphons import Graphon

#: cells of the finest uniform grid; its kernel matrices take 8 MB each
GRID_CAP = 1024


@dataclass(frozen=True)
class QuadratureConfig:
    points: int = 32  # Gauss-Legendre nodes per variable for smooth kernels

    def __post_init__(self):
        if self.points < 2:
            raise ValidationError("Gauss rule needs at least 2 points")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralResult:
    value: float
    error: float
    method: str  # "exact" | "gauss" | "grid"


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
        if g.kind == "banded":
            kernel = self.matrix(g.base) * _band_cell_average(self.cells, g.alpha, g.periodic)
        else:
            kernel = g.eval(self.x[:, None], self.x[None, :])
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


def _cell_nodes(kernels: Iterable[Graphon]) -> Nodes:
    breaks = np.array([0.0, 1.0])
    for g in kernels:
        if g.kind == "grid":
            breaks = np.union1d(breaks, g.breaks)
    return Nodes(0.5 * (breaks[:-1] + breaks[1:]), np.diff(breaks))


def _row_constant(g: Graphon) -> bool:
    return g.kind == "constant" or (g.kind == "banded" and g.periodic
                                    and g.base.kind == "constant")


def node_rule(kernels: Iterable[Graphon]) -> str:
    """The rule for integrals of products of these kernels: point, cells, gauss or grid."""
    kernels = list(kernels)
    if all(_row_constant(g) for g in kernels):
        return "point"
    if all(g.kind in ("constant", "grid") for g in kernels):
        return "cells"
    if all(g.smooth for g in kernels):
        return "gauss"
    return "grid"


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


def integrate_on_nodes(evaluate: Callable[[Nodes], float], kernels: Iterable[Graphon],
                       config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Run ``evaluate`` on the node sets of the rule these kernels call for."""
    kernels = list(kernels)
    rule = node_rule(kernels)  # no kernels (a tree without edges) takes one node
    if rule == "point":
        return IntegralResult(evaluate(Nodes.uniform(1)), 0.0, "exact")
    if rule == "cells":
        return IntegralResult(evaluate(_cell_nodes(kernels)), 0.0, "exact")
    if rule == "gauss":
        full = evaluate(_gauss_nodes(config.points))
        half = evaluate(_gauss_nodes(max(2, config.points // 2)))
        return IntegralResult(full, abs(full - half), "gauss")
    coarse, middle, fine = (evaluate(Nodes.uniform(GRID_CAP // s)) for s in (4, 2, 1))
    return IntegralResult(fine, _grid_error(coarse, middle, fine), "grid")


def _message_pass(factors: Mapping[int, Graphon], parent: Mapping[int, int],
                  n_colors: int, nodes: Nodes) -> float:
    """Integrate the edge product on one node set shared by every color."""
    messages = {c: np.ones_like(nodes.w) for c in range(n_colors)}
    for child in range(n_colors - 1, 0, -1):
        messages[parent[child]] *= nodes.matrix(factors[child]) @ (nodes.w * messages[child])
    return float(np.sum(nodes.w * messages[0]))


def integrate_edge_product(factors: Mapping[int, Graphon], parent: Mapping[int, int],
                           n_colors: int,
                           config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integrate prod_edges g_e(x_parent(c), x_c) dx_0 ... dx_{n_colors-1}.

    ``factors`` maps each non-root color to the kernel on its parent edge;
    ``parent`` maps each non-root color to its parent color. The single-color
    tree (no edges) integrates to 1.
    """
    if n_colors < 1:
        raise ValidationError("need at least the root color")
    if set(factors) != set(parent) or set(factors) != set(range(1, n_colors)):
        raise ValidationError("edge factors must cover exactly the colors 1..n_colors-1")
    for child, par in parent.items():
        if not 0 <= par < child:
            raise ValidationError(f"parent color {par} of {child} must be smaller")
    return integrate_on_nodes(lambda nodes: _message_pass(factors, parent, n_colors, nodes),
                              factors.values(), config)
