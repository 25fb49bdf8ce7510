"""Kernel containers: grids, expressions, bands, families."""

import numpy as np
import pytest

from esdlab import graphons
from esdlab.errors import NumericError, ValidationError
from esdlab.graphons import (
    CumulantSchedule,
    Graphon,
    GraphonFamily,
    as_graphon,
    band_indicator_values,
    profile_family,
)
from esdlab.moments import graphon_series


def test_constant_kernel():
    g = Graphon.constant(2.5)
    assert g.eval(0.1, 0.9) == 2.5
    x = np.linspace(0, 1, 5)
    assert np.all(g.eval(x, x[::-1]) == 2.5)
    assert g.bound >= 2.5
    assert g.smooth


def test_grid_kernel_cell_lookup():
    g = Graphon.from_grid([0.0, 0.25, 1.0], [[1.0, 2.0], [2.0, 3.0]])
    assert g.eval(0.1, 0.1) == 1.0
    assert g.eval(0.1, 0.5) == 2.0
    assert g.eval(0.9, 0.9) == 3.0
    # boundary points fall into the right-hand cell, endpoint clipped
    assert g.eval(0.25, 0.25) == 3.0
    assert g.eval(1.0, 1.0) == 3.0
    assert not g.smooth


def test_grid_validation():
    with pytest.raises(ValidationError):
        Graphon.from_grid([0.0, 1.0], [[1.0, 2.0], [2.0, 1.0]])  # shape mismatch
    with pytest.raises(ValidationError):
        Graphon.from_grid([0.0, 0.5, 1.0], [[1.0, 2.0], [3.0, 1.0]])  # asymmetric
    with pytest.raises(ValidationError):
        Graphon.from_grid([0.5, 0.2, 1.0], [[1.0, 0.0], [0.0, 1.0]])  # not increasing
    with pytest.raises(NumericError):
        Graphon.from_grid([0.0, 0.5, 1.0], [[np.nan, 0.0], [0.0, 1.0]])


def test_expression_kernel_requires_symmetry():
    g = Graphon.from_expression("x + y")
    assert g.eval(0.25, 0.5) == 0.75
    with pytest.raises(ValidationError):
        Graphon.from_expression("x - y")


def test_polynomial_kernel_symmetry_allows_rounding():
    # 0.1*3 and 0.3 are different doubles, but the kernel is symmetric to rounding,
    # as the check grid sees it; the exact rule then sums the coefficients as read
    g = Graphon.from_expression("0.1*3*x + 0.3*y")
    assert g.form is not None and g.form[(1, 0)] != g.form[(0, 1)]
    assert g.bound == pytest.approx(0.6)
    with pytest.raises(ValidationError):
        Graphon.from_expression("0.3*x + 0.3000001*y")


def test_callable_kernel_and_bound_estimate():
    g = Graphon.from_callable(lambda x, y: 4 * x * y)
    assert g.eval(0.5, 0.5) == pytest.approx(1.0)
    assert g.bound >= 4.0 - 1e-6


def test_band_indicator_geometry():
    open_vals = band_indicator_values(
        np.array([0.0, 0.5, 0.9]), np.array([0.9, 0.6, 0.0]), 0.25, periodic=False
    )
    assert list(open_vals) == [0.0, 1.0, 0.0]
    wrapped = band_indicator_values(
        np.array([0.0, 0.5]), np.array([0.9, 0.9]), 0.25, periodic=True
    )
    # wrap-around distance 0.1 is inside the periodic band
    assert list(wrapped) == [1.0, 0.0]
    g = Graphon.constant(1.0).banded(0.25, periodic=True)
    assert g.eval(0.05, 0.95) == 1.0
    assert not g.smooth


def test_banded_wrapper_multiplies():
    g = Graphon.constant(3.0).banded(0.2, periodic=True)
    assert g.eval(0.5, 0.55) == 3.0
    assert g.eval(0.05, 0.9) == 3.0  # wraps around
    assert g.eval(0.1, 0.5) == 0.0
    with pytest.raises(ValidationError):
        Graphon.constant(1.0).banded(0.0, periodic=True)
    with pytest.raises(ValidationError):
        Graphon.constant(1.0).banded(0.75, periodic=False)


def test_power_scale_preserves_exact_kinds():
    c = Graphon.constant(2.0).power_scale(4, 0.5)
    assert (c.cells, c.fn, c.form) == (((8.0,),), None, None)
    assert c.eval(0.2, 0.2) == pytest.approx(2.0**4 * 0.5)
    grid = Graphon.from_grid([0.0, 0.5, 1.0], [[1.0, 2.0], [2.0, 3.0]])
    squared = grid.power_scale(2, 1.0)
    assert squared.breaks == grid.breaks and squared.cells == ((1.0, 4.0), (4.0, 9.0))
    assert squared.eval(0.9, 0.9) == pytest.approx(9.0)
    smooth = Graphon.from_expression("4*x*y").power_scale(2, 2.0)
    assert smooth.eval(0.5, 0.5) == pytest.approx(2.0)
    assert smooth.smooth
    # the power's bound is |scale| * bound**exponent, the power's maximum on the check grid
    root = Graphon.from_expression("3*sqrt(x*y)")
    assert root.power_scale(3, -2.0).bound == 2.0 * root.bound**3 == 54.0
    with pytest.raises(NumericError, match="non-finite on the unit square"):
        Graphon.from_expression("1e200*x*y").power_scale(2, 1.0)


def test_power_scale_keeps_a_band():
    # an indicator to a power is itself: (c * x*y * band)^2 * s = s c^2 x^2 y^2 * band
    band = Graphon.from_expression("x*y").power_scale(1, 3.0).banded(0.25, periodic=True)
    squared = band.power_scale(2, 0.5)
    assert (squared.alpha, squared.periodic) == (0.25, True)
    x = np.array([0.1, 0.3, 0.5, 0.9, 0.05])
    y = np.array([0.2, 0.7, 0.6, 0.1, 0.95])
    inside = (np.abs(x - y) <= 0.25) | (np.abs(x - y) >= 0.75)
    np.testing.assert_allclose(squared.eval(x, y), 0.5 * 9.0 * (x * y) ** 2 * inside, rtol=1e-15)
    assert squared.form == {(2, 2): 1} and squared.cells == ((4.5,),)
    grid = Graphon.from_grid([0.0, 0.5, 1.0], [[1.0, 2.0], [2.0, 3.0]]).banded(0.3, False)
    cubed = grid.power_scale(3, 2.0)
    assert (cubed.alpha, cubed.periodic, cubed.cells) == (0.3, False, ((2.0, 16.0), (16.0, 54.0)))
    assert cubed.eval(0.4, 0.6) == 16.0 and cubed.eval(0.1, 0.9) == 0.0


def test_a_band_over_a_band_is_refused():
    band = Graphon.constant(1.0).banded(0.3, periodic=False)
    for periodic in (False, True):
        with pytest.raises(ValidationError, match="already has a band"):
            band.banded(0.2, periodic)


def test_kernel_objects_with_a_bound_are_refused():
    # a kernel's bound is measured, never declared
    for declared in ({"expression": "x*y", "bound": -1}, {"expression": "x*y", "bound": 0.0}):
        with pytest.raises(ValidationError, match="cannot interpret"):
            as_graphon(declared)


def test_as_graphon_coercion():
    assert as_graphon(2.0).eval(0.5, 0.5) == 2.0
    assert as_graphon("x*y").eval(0.5, 0.5) == 0.25
    g = Graphon.constant(1.0)
    assert as_graphon(g) is g
    with pytest.raises(ValidationError):
        as_graphon([1, 2, 3])
    # the grid, the one kernel object a config may hold
    grid = as_graphon({"breaks": [0.0, 0.5, 1.0], "cells": [[1.0, 2.0], [2.0, 3.0]]})
    assert grid.eval(0.25, 0.75) == 2.0
    for bad in ({"cells": [[1.0]]}, {"constant": 1.0, "expression": "x"}, {"constant": "1"},
                {"expression": 2.0}, {"expression": "x*y", "bound": "2"}, True,
                {"constant": 1.5}, {"expression": "x*y"}, {"expression": "x*y", "bound": 2.0}):
        with pytest.raises(ValidationError):
            as_graphon(bad)


def test_family_entries_and_rule():
    fam = GraphonFamily(entries={2: Graphon.constant(1.0)})
    assert fam.g(2).eval(0.5, 0.5) == 1.0
    assert fam.g(4) is None
    assert fam.bound(2) >= 1.0

    calls = []

    def rule(order):
        calls.append(order)
        return 2.0 / order

    ruled = CumulantSchedule("2 / order past a table", ((2, 1.5), (4, 0.0)), rule)
    assert ruled.value(2) == ruled.g(2).eval(0.1, 0.1) == ruled.bound(2) == 1.5  # a table order
    assert (ruled.value(4), ruled.g(4), ruled.bound(4)) == (0.0, None, 0.0)  # a listed zero
    assert ruled.value(6) == ruled.g(6).eval(0.1, 0.1) == ruled.bound(6) == pytest.approx(1 / 3)
    assert ruled.g(6) is ruled.g(6)
    assert calls == [6]  # the rule runs once per order, and never at a table order
    table = CumulantSchedule.from_dict({2: 1.0})
    for read in (table.value, table.g, table.bound):  # a missing order
        with pytest.raises(ValidationError, match="no cumulant of order 4"):
            read(4)

    with pytest.raises(ValidationError):
        GraphonFamily(entries={3: Graphon.constant(1.0)})


def test_family_banded_composes():
    fam = GraphonFamily(entries={2: Graphon.constant(2.0)}).banded(0.2, periodic=True)
    g = fam.g(2)
    assert g.eval(0.5, 0.55) == 2.0
    assert g.eval(0.1, 0.6) == 0.0
    assert fam.g(4) is None


def test_family_builds_each_member_once(monkeypatch):
    calls = []
    power_scale = Graphon.power_scale
    monkeypatch.setattr(Graphon, "power_scale",
                        lambda self, *args: calls.append(args) or power_scale(self, *args))
    fam = profile_family("1 + 0.5*cos(2*pi*(x-y))", CumulantSchedule.constant(1.0))
    graphon_series(fam, 10)
    assert len(calls) == 5  # one per order 2, 4, ..., 10, though beta_10 asks for all five
    assert fam.g(4) is fam.g(4)


def test_a_profile_series_checks_its_kernel_once(monkeypatch):
    # each power's bound is |scale| * bound**exponent: the check grid is read at construction
    calls = []
    checked = graphons._checked_bound
    monkeypatch.setattr(graphons, "_checked_bound",
                        lambda *args: calls.append(args) or checked(*args))
    graphon_series(profile_family("2*sqrt(x*y)", CumulantSchedule.constant(1.0)), 10)
    assert len(calls) == 1


def test_family_keeps_a_zero_member_but_not_an_error():
    built = []

    def rule(order):
        built.append(order)
        if order == 6:
            raise NumericError("too large")
        return None if order == 4 else Graphon.constant(1.0)

    fam = GraphonFamily(rule=rule)
    assert fam.g(4) is None and fam.g(4) is None
    for _ in range(2):
        with pytest.raises(NumericError):
            fam.g(6)
    assert fam.g(2) is fam.g(2)
    assert built == [4, 6, 6, 2]
