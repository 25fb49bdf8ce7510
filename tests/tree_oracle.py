"""Kernel integrals one tree at a time: the oracle for moment_graphon's tree sum.

moment_graphon sums all colored trees of an order at once by the color-class
recursion. Here each tree is integrated on its own by message passing, from
the last color back to the root. Its kernels pick the nodes, decided here
from their fields rather than by esdlab's own node rule: one node for
row-constant kernels (one cell and no function, alone or on a periodic
band), one node per cell of the grids' breaks (at the cell's midpoint,
weighted by its width) for kernels of cells alone, both exact, and otherwise
the approximate rules of esdlab.quadrature.integrate_on_nodes, Gauss for
smooth kernels and the grid for the rest, which also take the polynomials
and open bands that moment_graphon sums exactly.
"""

from fractions import Fraction
from typing import Iterable, Mapping, Optional

import numpy as np

from esdlab.graphons import Graphon, GraphonFamily
from esdlab.quadrature import IntegralResult, Nodes, integrate_on_nodes
from esdlab.trees import ColoredTree


def exact_nodes(kernels: Iterable[Graphon]) -> Nodes:
    """The nodes of the exact rules: one node, or the cells of the union of the grids' breaks."""
    breaks = np.array([0.0, 1.0])
    for g in kernels:
        breaks = np.union1d(breaks, g.breaks)
    if len(breaks) == 2:
        return Nodes.uniform(1)  # also the exact cell average of a periodic band
    return Nodes(0.5 * (breaks[:-1] + breaks[1:]), np.diff(breaks))


def quadrature_rule(kernels: Iterable[Graphon]) -> str:
    """The approximate rule of esdlab.quadrature these kernels take: "gauss" when all are
    smooth, else "grid"."""
    return "gauss" if all(g.smooth for g in kernels) else "grid"


def _row_constant(g: Graphon) -> bool:
    """One cell and no function, alone or on a periodic band: every row integrates alike."""
    return len(g.cells) == 1 and g.fn is None and (g.alpha is None or g.periodic)


def integrate_edge_product(factors: Mapping[int, Graphon], parent: Mapping[int, int],
                           n_colors: int) -> IntegralResult:
    """Integrate prod_c g_c(x_parent(c), x_c) dx_0 ... dx_{n_colors-1}.

    ``factors`` maps each non-root color to the kernel on its parent edge and
    ``parent`` maps it to its parent color, which must be smaller. The
    single-color tree (no edges) integrates to 1.
    """
    def message_pass(nodes: Nodes) -> float:
        messages = {c: np.ones_like(nodes.w) for c in range(n_colors)}
        for child in range(n_colors - 1, 0, -1):
            messages[parent[child]] *= nodes.matrix(factors[child]) @ (nodes.w * messages[child])
        return float(np.sum(nodes.w * messages[0]))

    if all(map(_row_constant, factors.values())) or all(
            g.fn is None and g.alpha is None for g in factors.values()):
        return IntegralResult(message_pass(exact_nodes(factors.values())), 0.0, "exact")
    return integrate_on_nodes(lambda nodes: [message_pass(nodes)],
                              quadrature_rule(factors.values()))[0]


def _tree_factors(tree: ColoredTree, family: GraphonFamily) -> Optional[tuple[dict, dict]]:
    """The kernel on the edge into each non-root color and that color's parent, or None
    when a kernel is missing. The kernel on the edge into color c has order twice the
    number of c-colored nodes."""
    factors: dict[int, Graphon] = {}
    parent: dict[int, int] = {}
    for (par, child), mult in tree.edge_multiplicities().items():
        kernel = family.g(2 * mult)
        if kernel is None:
            return None
        factors[child] = kernel
        parent[child] = par
    return factors, parent


def homomorphism_density(tree: ColoredTree, family: GraphonFamily) -> IntegralResult:
    """Integral over [0,1]^colors of the product of one tree's edge kernels.

    A missing family member makes the whole term zero.
    """
    found = _tree_factors(tree, family)
    if found is None:
        return IntegralResult(0.0, 0.0, "exact")
    factors, parent = found
    return integrate_edge_product(factors, parent, len(factors) + 1)


def exact_density(tree: ColoredTree, family: GraphonFamily) -> Fraction:
    """homomorphism_density in Fractions, for families of constants and grids.

    Messages pass over the cells of the union of the grids' breaks; each kernel
    is read at the midpoints of a pair of cells and each cell weighs its width.
    """
    found = _tree_factors(tree, family)
    if found is None:
        return Fraction(0)
    factors, parent = found
    breaks = sorted({Fraction(b) for g in factors.values() for b in g.breaks}
                    | {Fraction(0), Fraction(1)})
    widths = [b - a for a, b in zip(breaks, breaks[1:])]
    mids = np.array([float((a + b) / 2) for a, b in zip(breaks, breaks[1:])])
    messages = {c: [Fraction(1)] * len(widths) for c in range(len(factors) + 1)}
    for child in range(len(factors), 0, -1):
        values = factors[child].eval(mids[:, None], mids[None, :]).tolist()
        below = [w * m for w, m in zip(widths, messages[child])]
        messages[parent[child]] = [
            m * sum(Fraction(v) * b for v, b in zip(row, below))
            for m, row in zip(messages[parent[child]], values)]
    return sum(w * m for w, m in zip(widths, messages[0]))
