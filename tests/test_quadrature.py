"""Node rules through the per-tree oracle: one node, exact cells, Gauss messages, grids."""

import numpy as np
import pytest
from scipy import integrate

from esdlab.graphons import Graphon, node_rule
from esdlab.quadrature import GRID_CAP, integrate_tree_sum
from tree_oracle import integrate_edge_product


def test_single_color_is_unit():
    res = integrate_edge_product({}, {}, 1)
    assert res.value == 1.0 and res.method == "exact"


def test_constant_factors_multiply_exactly():
    factors = {1: Graphon.constant(2.0), 2: Graphon.constant(3.0)}
    parent = {1: 0, 2: 0}
    res = integrate_edge_product(factors, parent, 3)
    assert res.value == 6.0
    assert res.error == 0.0
    assert res.method == "exact"


def test_grid_factors_use_exact_cell_sums():
    g = Graphon.from_grid([0.0, 0.5, 1.0], [[1.0, 2.0], [2.0, 4.0]])
    res = integrate_edge_product({1: g}, {1: 0}, 2)
    assert res.method == "exact"
    assert res.value == pytest.approx(0.25 * (1 + 2 + 2 + 4))


def test_periodic_band_times_constant_has_closed_form():
    g = Graphon.constant(3.0).banded(0.2, periodic=True)
    res = integrate_edge_product({1: g, 2: g}, {1: 0, 2: 1}, 3)
    assert res.method == "exact"
    assert res.value == pytest.approx((2 * 0.2 * 3.0) ** 2)


def test_gauss_matches_adaptive_quadrature_on_smooth_kernels():
    g = Graphon.from_expression("1 + cos(2*pi*(x - y))")
    # star with two edges: integral of m(x)^2 where m is the row integral
    def m(x):
        return integrate.quad(lambda y: 1 + np.cos(2 * np.pi * (x - y)), 0, 1)[0]

    expected = integrate.quad(lambda x: m(x) ** 2, 0, 1)[0]
    res = integrate_edge_product({1: g, 2: g}, {1: 0, 2: 0}, 3)
    assert res.method == "gauss"
    assert res.value == pytest.approx(expected, abs=1e-9)


def test_grid_engages_for_non_smooth_and_gauss_for_deep_smooth_factors():
    rough = Graphon.from_expression("1 + ind(x + y < 1)")
    assert node_rule([rough]) == "quadrature"
    res = integrate_edge_product({1: rough}, {1: 0}, 2)
    assert res.method == "grid"
    # midpoints of the anti-diagonal cells sit on x + y = 1, which drops half a
    # cell per row: the value is 1.5 - 1/(2N) on the finest grid
    assert res.value == 1.5 - 0.5 / GRID_CAP
    assert abs(res.value - 1.5) <= res.error <= 0.5 / GRID_CAP

    smooth = Graphon.from_expression("4*x*y")
    factors = {c: smooth for c in range(1, 6)}
    parent = {c: c - 1 for c in range(1, 6)}
    res = integrate_edge_product(factors, parent, 6)
    assert res.method == "gauss"
    # chain of five 4xy kernels: ends contribute 1/2 each, interiors 1/3
    assert res.value == pytest.approx(4**5 * (1 / 2) ** 2 * (1 / 3) ** 4, rel=1e-12)
    assert res.error <= 1e-12


def test_gauss_is_deterministic_and_points_set_its_error():
    g = Graphon.from_expression("exp(-(x + y))")
    exact = (1 - np.exp(-1.0)) ** 2
    a = integrate_edge_product({1: g}, {1: 0}, 2)
    b = integrate_edge_product({1: g}, {1: 0}, 2)
    assert a == b
    assert a.method == "gauss"
    assert a.value == pytest.approx(exact, abs=1e-14)
    assert a.error <= 1e-14
    # a sharper kernel reports a larger error, the gap of 32 nodes to 16, that still covers it
    sharp = integrate_edge_product({1: Graphon.from_expression("exp(-80*(x + y))")}, {1: 0}, 2)
    assert sharp.method == "gauss"
    assert 1e-10 < sharp.error <= 1e-3
    assert abs(sharp.value - ((1 - np.exp(-80.0)) / 80) ** 2) <= sharp.error


def test_band_indicator_marginal():
    # open band keeps less mass near the edges of [0,1]
    open_band = Graphon.constant(1.0).banded(0.25, periodic=False)
    res = integrate_edge_product({1: open_band}, {1: 0}, 2)
    assert res.value == pytest.approx(2 * 0.25 - 0.25**2, abs=5 * max(res.error, 1e-4))


def _quadrature_nodes(kernels) -> str:
    """The node set of the quadrature rule for these kernels, "gauss" or "grid"."""
    assert node_rule(kernels) == "quadrature"
    return integrate_tree_sum(dict(enumerate(kernels, 1)), 1).method


def test_node_rule_follows_kernel_kinds():
    grid = Graphon.from_grid([0.0, 0.5, 1.0], [[1.0, 2.0], [2.0, 4.0]])
    periodic = Graphon.constant(1.0).banded(0.3, periodic=True)
    open_band = Graphon.constant(1.0).banded(0.3, periodic=False)
    polynomial = Graphon.from_expression("x*y")
    # row-constant kernels take one cell
    assert node_rule([]) == "cells"
    assert node_rule([Graphon.constant(2.0), periodic]) == "cells"
    assert node_rule([Graphon.constant(2.0), grid]) == "cells"
    # polynomials in x and y, and open bands over any exact kernel, are exact too
    assert node_rule([Graphon.constant(2.0), polynomial]) == "cells"
    assert node_rule([open_band, grid.banded(0.3, False), polynomial.banded(0.3, False)]) == "cells"
    # half-integer powers are exact only once a power makes them whole
    root = Graphon.from_expression("2*sqrt(x*y)")
    assert _quadrature_nodes([root]) == "gauss" and node_rule([root.power_scale(2, 1.0)]) == "cells"
    # periodic bands over non-constants, and bands of two widths
    assert _quadrature_nodes([grid, periodic]) == "grid"
    assert _quadrature_nodes([polynomial.banded(0.3, True)]) == "grid"
    assert _quadrature_nodes([open_band, Graphon.constant(1.0).banded(0.2, False)]) == "grid"
    # an open band is exact however narrow, and over however many breaks
    assert node_rule([Graphon.constant(1.0).banded(0.05, False)]) == "cells"
    assert node_rule([Graphon.constant(1.0).banded(0.045, False)]) == "cells"
    fine = Graphon.from_grid([i / 8 for i in range(9)], [[1.0] * 8] * 8)
    assert node_rule([fine.banded(0.5, False)]) == "cells"
    assert node_rule([fine.banded(0.25, False)]) == "cells"
    assert _quadrature_nodes([Graphon.from_expression("1 + cos(2*pi*(x - y))")]) == "gauss"
    assert _quadrature_nodes([Graphon.from_expression("1 - abs(x - y)")]) == "grid"
