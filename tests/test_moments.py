"""Limit moments: schedules, kernels, bands, blocks, growth diagnostics."""

import math

import numpy as np
import pytest
from scipy import integrate

from esdlab.combinatorics import Word, catalan, count_ss_by_blocks
from esdlab.errors import ValidationError
from esdlab.graphons import Graphon, GraphonFamily
from esdlab.moments import (
    CumulantSchedule,
    MomentEntry,
    MomentSeries,
    carleman_partial_sum,
    constant_series,
    graphon_series,
    hankel_min_eigenvalue,
    homomorphism_density,
    moment_band,
    moment_block,
    moment_constant,
    moment_graphon,
    moment_sparse,
    moment_variance_profile,
    sparse_series,
)
from esdlab.quadrature import QuadratureConfig
from esdlab.trees import enumerate_trees, tree_from_word


def beta4_by_nested_quadrature(g2, g4):
    """Adaptive-quadrature oracle for the fourth moment of a kernel pair.

    The three trees of order four reduce to two scalar integrals: the doubled
    edge gives the plain integral of g4, while star and path both equal the
    integral of the squared row marginal of g2.
    """
    flat = integrate.dblquad(lambda y, x: g4(x, y), 0, 1, 0, 1, epsabs=1e-11)[0]

    def marginal(x):
        return integrate.quad(lambda y: g2(x, y), 0, 1, epsabs=1e-12)[0]

    squared = integrate.quad(lambda x: marginal(x) ** 2, 0, 1, epsabs=1e-11)[0]
    return flat + 2 * squared


def test_semicircle_moments_are_catalan():
    sched = CumulantSchedule.semicircle()
    for k in range(1, 8):
        assert moment_constant(sched, 2 * k) == pytest.approx(catalan(k))
    assert moment_constant(sched, 3) == 0.0
    assert moment_constant(CumulantSchedule.semicircle(c2=2.0), 4) == pytest.approx(8.0)


def test_constant_schedule_matches_sparse_polynomial():
    for lam in (0.5, 1.0, 2.0, 3.5):
        sched = CumulantSchedule.constant(lam)
        for two_k in (2, 4, 6, 8, 10, 12):
            assert moment_constant(sched, two_k) == pytest.approx(
                moment_sparse(lam, two_k).value
            )


def test_sparse_moment_frozen_values():
    assert moment_sparse(1.0, 2).value == 1.0
    assert moment_sparse(2.0, 4).value == pytest.approx(2 * 4 + 2)  # 2 lam^2 + lam
    six = moment_sparse(2.0, 6)
    assert six.coefficients == ((1, 1), (2, 6), (3, 5))
    assert six.value == pytest.approx(1 * 2 + 6 * 4 + 5 * 8)
    assert moment_sparse(2.0, 3).value == 0.0
    with pytest.raises(ValidationError):
        moment_sparse(-1.0, 4)


def test_sparse_coefficients_are_block_counts():
    for two_k in (2, 4, 6, 8, 10):
        table = count_ss_by_blocks(two_k)
        assert dict(moment_sparse(1.0, two_k).coefficients) == table


def test_missing_cumulant_raises():
    sched = CumulantSchedule.from_dict({2: 1.0})
    assert moment_constant(sched, 2) == 1.0
    with pytest.raises(ValidationError):
        moment_constant(sched, 4)


def test_star_and_path_densities_agree():
    fam = GraphonFamily(entries={2: Graphon.from_expression("4*x*y")})
    star = tree_from_word(Word.from_string("aabb"))
    path = tree_from_word(Word.from_string("abba"))
    ds = homomorphism_density(star, fam)
    dp = homomorphism_density(path, fam)
    assert ds.value == pytest.approx(4 / 3, abs=1e-10)
    assert dp.value == pytest.approx(4 / 3, abs=1e-10)


def test_constant_family_density_counts_edges():
    fam = GraphonFamily.from_constant_rule(lambda order: 1.7)
    for letters in ("aabb", "abba", "abbacc", "aabbcc"):
        tree = tree_from_word(Word.from_string(letters))
        edges = len(tree.edge_multiplicities())
        assert homomorphism_density(tree, fam).value == pytest.approx(1.7**edges)


def test_graphon_moment_equals_sum_of_tree_densities():
    fam = GraphonFamily(
        entries={
            2: Graphon.from_expression("1 + x*y"),
            4: Graphon.from_expression("0.5*(x + y)"),
            6: Graphon.constant(0.25),
        }
    )
    for two_k in (2, 4, 6):
        total = 0.0
        for tree in enumerate_trees(two_k):
            total += homomorphism_density(tree, fam).value
        entry = moment_graphon(fam, two_k)
        assert entry.value == pytest.approx(total, abs=1e-9)


def test_graphon_constant_family_matches_schedule():
    sched = CumulantSchedule.from_dict(
        {2: 1.3, 4: 0.4, 6: 0.2, 8: 0.1}, description="table"
    )
    fam = GraphonFamily.from_constant_rule(lambda order: sched.value(order) if order <= 8 else 0.0)
    for two_k in (2, 4, 6, 8):
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial"
        assert abs(entry.value - moment_constant(sched, two_k)) <= 1e-6


def test_row_constant_kernel_recovers_semicircle_prefix():
    fam = GraphonFamily(entries={2: Graphon.from_expression("1 + cos(2*pi*(x - y))")})
    b4 = moment_graphon(fam, 4)
    b6 = moment_graphon(fam, 6)
    assert b4.value == pytest.approx(2.0, abs=1e-8)
    assert b6.value == pytest.approx(5.0, abs=1e-6)


def test_beta4_decomposition_against_nested_quadrature():
    fam = GraphonFamily(
        entries={
            2: Graphon.from_expression("4*x*y"),
            4: Graphon.from_expression("0.5*(x + y)"),
        }
    )
    oracle = beta4_by_nested_quadrature(
        lambda x, y: 4 * x * y, lambda x, y: 0.5 * (x + y)
    )
    entry = moment_graphon(fam, 4)
    assert abs(entry.value - oracle) <= 1e-6


def test_graphon_moment_on_grid_is_deterministic_and_covers_closed_form():
    # m(x) = 2 - x is the row integral; the three-edge plane trees give two
    # stars-of-degree-three integrals of m^3 (15/4) and three of 29/8
    fam = GraphonFamily(
        entries={2: Graphon.from_expression("1 + ind(x + y < 1)")}
    )
    first = moment_graphon(fam, 6)
    again = moment_graphon(fam, 6)
    assert first == again
    assert first.provenance == "quadrature"
    assert abs(first.value - 147 / 8) <= first.error <= 0.02


def test_band_periodic_semicircle_closed_form():
    sched = CumulantSchedule.semicircle()
    for alpha in (0.1, 0.25, 0.5):
        for k in (1, 2, 3):
            entry = moment_band(sched, alpha, True, 2 * k)
            assert entry.provenance == "exact-combinatorial"
            assert entry.value == pytest.approx(catalan(k) * (2 * alpha) ** k)


def test_band_full_width_is_no_band():
    sched = CumulantSchedule.semicircle()
    for two_k in (2, 4, 6):
        banded = moment_band(sched, 0.5, True, two_k)
        assert banded.value == pytest.approx(moment_constant(sched, two_k))


def test_band_open_interval_second_moment():
    entry = moment_band(CumulantSchedule.semicircle(), 0.25, False, 2)
    expected = 2 * 0.25 - 0.25**2
    assert abs(entry.value - expected) <= 5 * max(entry.error, 1e-4)


def test_band_alpha_validation():
    sched = CumulantSchedule.semicircle()
    for alpha in (0.0, -0.1, 0.6):
        with pytest.raises(ValidationError):
            moment_band(sched, alpha, True, 2)


def test_block_second_moment_exact():
    masses = [0.25, 0.75]
    cells = [[2.0, 0.5], [0.5, 1.0]]
    entry = moment_block(masses, {2: cells}, 2)
    oracle = sum(
        masses[i] * masses[j] * cells[i][j] for i in range(2) for j in range(2)
    )
    assert entry.provenance == "exact-combinatorial"
    assert entry.value == pytest.approx(oracle)


def test_block_single_cell_is_constant_model():
    sched = CumulantSchedule.semicircle()
    for two_k in (2, 4, 6):
        entry = moment_block([1.0], {2: [[1.0]]}, two_k)
        assert entry.value == pytest.approx(moment_constant(sched, two_k))


def test_block_validation():
    with pytest.raises(ValidationError):
        moment_block([0.5, 0.4], {2: [[1.0, 0.0], [0.0, 1.0]]}, 2)  # masses short
    with pytest.raises(ValidationError):
        moment_block([0.5, 0.5], {2: [[1.0, 0.2], [0.3, 1.0]]}, 2)  # asymmetric
    with pytest.raises(ValidationError):
        moment_block([-0.5, 1.5], {2: [[1.0, 0.0], [0.0, 1.0]]}, 2)


def test_variance_profile_scaling():
    sched = CumulantSchedule.semicircle()
    flat = moment_variance_profile(Graphon.constant(1.0), sched, 6)
    assert flat.value == pytest.approx(catalan(3))
    for s in (0.5, 2.0):
        scaled = moment_variance_profile(Graphon.constant(s), sched, 6)
        assert scaled.value == pytest.approx(s**6 * catalan(3))


def test_variance_profile_indicator_support():
    sched = CumulantSchedule.semicircle()
    quarter = moment_variance_profile(
        Graphon.from_expression("ind(x < 0.5)*ind(y < 0.5)"), sched, 2
    )
    assert abs(quarter.value - 0.25) <= 5 * max(quarter.error, 1e-6)


def test_series_builders_and_lookup():
    series = constant_series(CumulantSchedule.semicircle(), 8)
    assert series.orders() == [2, 4, 6, 8]
    assert series.values() == [1.0, 2.0, 5.0, 14.0]
    assert series.moment(4) == 2.0
    assert series.moment(5) == 0.0  # odd orders vanish by symmetry

    sp = sparse_series(2.0, 6)
    assert sp.moment(6) == pytest.approx(66.0)

    fam = GraphonFamily.from_constant_rule(lambda order: 1.0 if order == 2 else 0.0)
    gs = graphon_series(fam, 6)
    assert gs.orders() == [2, 4, 6]
    assert gs.moment(6) == pytest.approx(catalan(3), abs=1e-9)


def test_series_rows_and_json():
    series = constant_series(CumulantSchedule.semicircle(), 4)
    rows = series.to_csv_rows()
    assert rows[0] == ["two_k", "beta", "error_estimate"]
    assert rows[1][0] == 2
    payload = series.to_json_dict()
    assert [e["two_k"] for e in payload["entries"]] == [2, 4]
    assert payload["entries"][0]["beta"] == 1.0


def test_explicit_entries_win_over_parity():
    series = MomentSeries(
        entries=(MomentEntry(3, 0.125, 0.01, "monte-carlo-simulation"),),
        description="simulated",
    )
    assert series.moment(3) == 0.125


def test_hankel_and_moment_inequalities():
    for series in (
        constant_series(CumulantSchedule.semicircle(), 12),
        sparse_series(1.5, 12),
        constant_series(CumulantSchedule.constant(0.7), 12),
    ):
        assert hankel_min_eigenvalue(series) >= -1e-8
        assert series.moment(4) >= series.moment(2) ** 2


def test_carleman_reference_verdicts():
    sc = carleman_partial_sum(CumulantSchedule.semicircle(), 8)
    assert sc.verdict == "diverging-trend"
    assert sc.alphas[:3] == (1.0, 3.0, 15.0)
    assert sc.partial_sums[-1] > 4.5

    lam = carleman_partial_sum(CumulantSchedule.constant(2.0), 8)
    assert lam.verdict == "diverging-trend"
    assert lam.alphas[1] == pytest.approx(14.0)

    fact = carleman_partial_sum(
        {2 * k: float(math.factorial(2 * k)) for k in range(1, 9)}, 8
    )
    assert fact.verdict == "inconclusive"

    sq = carleman_partial_sum(
        {2 * k: float(math.factorial(2 * k)) ** 2 for k in range(1, 9)}, 8
    )
    assert sq.verdict == "likely-fails"
    assert sq.slope < -1.3


def test_carleman_degenerate_schedule():
    report = carleman_partial_sum({2 * k: 0.0 for k in range(1, 9)}, 8)
    assert report.verdict == "divergent"
    assert math.isinf(report.partial_sums[-1])


def test_carleman_alpha4_decomposition():
    # order four splits into one block of four or two pairs (three pairings)
    report = carleman_partial_sum(CumulantSchedule.from_dict({2: 1.0, 4: 2.0, 6: 0.0, 8: 0.0}), 4)
    assert report.alphas[1] == pytest.approx(2.0 + 3.0)


def test_carleman_report_serialization():
    report = carleman_partial_sum(CumulantSchedule.semicircle(), 6)
    payload = report.to_json_dict()
    assert payload["verdict"] == report.verdict
    assert len(payload["orders"]) == 6
    assert len(payload["ss_restricted_terms"]) == len(report.ss_terms)
    assert len(report.ss_terms) <= 7  # enumeration stops at word length 14


def test_grid_rule_ignores_gauss_points():
    # two order-2 edges (star or path) each give the integral of m^2 = 7/3
    fam = GraphonFamily(entries={2: Graphon.from_expression("1 + ind(x + y < 1)")})
    base = moment_graphon(fam, 4)
    other = moment_graphon(fam, 4, config=QuadratureConfig(points=8))
    assert base == other
    assert abs(base.value - 14 / 3) <= base.error <= 3e-3
