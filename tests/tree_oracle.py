"""Kernel integrals one tree at a time: the oracle for moment_graphon's tree sum.

moment_graphon sums all colored trees of an order at once by the color-class
recursion. Here each tree is integrated on its own by message passing, from
the last color back to the root, on the node sets that
esdlab.quadrature.integrate_on_nodes picks for its kernels.
"""

from typing import Mapping

import numpy as np

from esdlab.graphons import DEFAULT_CONFIG, Graphon, GraphonFamily, QuadratureConfig
from esdlab.quadrature import IntegralResult, Nodes, integrate_on_nodes
from esdlab.trees import ColoredTree


def integrate_edge_product(factors: Mapping[int, Graphon], parent: Mapping[int, int],
                           n_colors: int,
                           config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
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

    return integrate_on_nodes(message_pass, factors.values(), config)


def homomorphism_density(tree: ColoredTree, family: GraphonFamily,
                         config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integral over [0,1]^colors of the product of one tree's edge kernels.

    The kernel on the edge into color c has order twice the number of c-colored
    nodes; a missing family member makes the whole term zero.
    """
    factors: dict[int, Graphon] = {}
    parent: dict[int, int] = {}
    for (par, child), mult in tree.edge_multiplicities().items():
        kernel = family.g(2 * mult)
        if kernel is None:
            return IntegralResult(0.0, 0.0, "exact")
        factors[child] = kernel
        parent[child] = par
    return integrate_edge_product(factors, parent, len(factors) + 1, config)
