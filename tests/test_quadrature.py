"""Edge-product integration: one node, exact cells, Gauss messages, uniform grids."""

import dataclasses

import numpy as np
import pytest
from scipy import integrate

from esdlab.errors import ValidationError
from esdlab.graphons import Graphon, band_indicator
from esdlab.quadrature import (
    GRID_CAP,
    QuadratureConfig,
    integrate_edge_product,
    node_rule,
)


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
    assert node_rule([rough]) == "grid"
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
    # 4 nodes against 2: a coarser rule reports a larger error that still covers it
    coarse = integrate_edge_product({1: g}, {1: 0}, 2, QuadratureConfig(points=4))
    assert coarse.method == "gauss"
    assert 1e-10 < abs(coarse.value - exact) <= coarse.error <= 1e-3


def test_band_indicator_marginal():
    # open band keeps less mass near the edges of [0,1]
    open_band = band_indicator(0.25, periodic=False)
    res = integrate_edge_product({1: open_band}, {1: 0}, 2)
    assert res.value == pytest.approx(2 * 0.25 - 0.25**2, abs=5 * max(res.error, 1e-4))


def test_tree_shape_validation():
    g = Graphon.constant(1.0)
    with pytest.raises(ValidationError):
        integrate_edge_product({1: g}, {1: 2}, 2)  # parent above child
    with pytest.raises(ValidationError):
        integrate_edge_product({2: g}, {2: 0}, 2)  # color gap
    with pytest.raises(ValidationError):
        integrate_edge_product({}, {}, 0)


def test_config_validation():
    with pytest.raises(ValidationError):
        QuadratureConfig(points=1)
    assert QuadratureConfig(points=2).points == 2
    # the node rule follows from the kernels; only the Gauss order is a setting
    assert [f.name for f in dataclasses.fields(QuadratureConfig)] == ["points"]
    assert QuadratureConfig().points == 32


def test_node_rule_follows_kernel_kinds():
    grid = Graphon.from_grid([0.0, 0.5, 1.0], [[1.0, 2.0], [2.0, 4.0]])
    assert node_rule([]) == "point"
    assert node_rule([Graphon.constant(2.0), band_indicator(0.3, periodic=True)]) == "point"
    assert node_rule([Graphon.constant(2.0), grid]) == "cells"
    assert node_rule([Graphon.constant(2.0), Graphon.from_expression("x*y")]) == "gauss"
    assert node_rule([band_indicator(0.3, periodic=False)]) == "grid"
    assert node_rule([grid, band_indicator(0.3, periodic=True)]) == "grid"
    assert node_rule([Graphon.from_expression("1 - abs(x - y)")]) == "grid"
