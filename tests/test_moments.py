"""Limit moments: schedules, kernels, bands, blocks, Carleman partial sums."""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from esdlab import cells, quadrature
from esdlab.combinatorics import Word, catalan, count_ss_by_blocks
from esdlab.compare import family_from_config
from esdlab.errors import CapacityError, NumericError, ValidationError
from esdlab.graphons import Graphon, GraphonFamily, block_family, profile_family
from esdlab.models import ModelSpec, effective_cumulants
from esdlab.moments import (
    CumulantSchedule,
    MomentEntry,
    MomentSeries,
    carleman_partial_sum,
    graphon_series,
    moment_graphon,
)
from esdlab.trees import enumerate_trees, tree_from_word
from esdlab.treesum import tree_sum
from tree_oracle import homomorphism_density


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
        assert moment_graphon(sched, 2 * k).value == pytest.approx(catalan(k))
    assert moment_graphon(sched, 3).value == 0.0
    assert moment_graphon(CumulantSchedule.semicircle(c2=2.0), 4).value == pytest.approx(8.0)


def census_sum(weight: Fraction, two_k: int) -> Fraction:
    """Exact sum over SS words of weight^(block count)."""
    return sum(c * weight**b for b, c in count_ss_by_blocks(two_k).items())


def test_constant_schedule_matches_sparse_polynomial():
    # the tree sum and the census polynomial are both the correctly rounded exact sum
    for lam in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 7.25):
        sched = CumulantSchedule.constant(lam)
        for two_k in range(2, 21, 2):
            exact = float(census_sum(Fraction(lam), two_k))
            assert moment_graphon(sched, two_k).value == exact
    for k in range(1, 13):
        assert moment_graphon(CumulantSchedule.semicircle(), 2 * k).value == catalan(k)
    # C_2t = rate * atom^2t, exact in floats here, so beta_2k = atom^2k * sum_b |SS_b| rate^b
    atom, rate = 0.75, 1.5
    two_point = effective_cumulants(
        ModelSpec("triangular_twopoint", 1000, 1, {"atom": atom, "rate": rate}))
    # a periodic band over a constant C has the member 2 * alpha * C at every order
    band = CumulantSchedule.constant(1.5).banded(0.3, True)
    for two_k in range(2, 17, 2):
        want = Fraction(atom)**two_k * census_sum(Fraction(rate), two_k)
        assert moment_graphon(two_point, two_k).value == float(want)
        want = census_sum(2 * Fraction(0.3) * Fraction(1.5), two_k)
        assert moment_graphon(band, two_k).value == float(want)


def test_sparse_moment_frozen_values():
    assert moment_graphon(CumulantSchedule.constant(1.0), 2).value == 1.0
    assert moment_graphon(CumulantSchedule.constant(2.0), 4).value == 10.0  # 2 lam^2 + lam
    assert moment_graphon(CumulantSchedule.constant(2.0), 6).value == 66.0  # 1*2 + 6*4 + 5*8
    assert moment_graphon(CumulantSchedule.constant(2.0), 3).value == 0.0
    with pytest.raises(ValidationError):
        family_from_config({"kind": "sparse", "rate": -1.0})


def test_sparse_coefficients_are_block_counts():
    # beta_2k of the constant schedule lam is a polynomial in lam of degree k:
    # solving for it from k + 1 integer values gives |SS_b| as the coefficient of lam^b
    for two_k in (2, 4, 6, 8, 10):
        k = two_k // 2
        rows = [[Fraction(lam) ** b for b in range(k + 1)] + [
            Fraction(moment_graphon(CumulantSchedule.constant(float(lam)), two_k).value)]
            for lam in range(k + 1)]
        for i in range(k + 1):  # Gauss-Jordan elimination, exact
            rows[i] = [v / rows[i][i] for v in rows[i]]
            for j in range(k + 1):
                if j != i:
                    rows[j] = [a - rows[j][i] * b for a, b in zip(rows[j], rows[i])]
        coefficients = {b: row[-1] for b, row in enumerate(rows) if row[-1]}
        assert coefficients == count_ss_by_blocks(two_k)


def test_missing_cumulant_raises():
    sched = CumulantSchedule.from_dict({2: 1.0})
    assert moment_graphon(sched, 2).value == 1.0
    with pytest.raises(ValidationError):
        moment_graphon(sched, 4)


def test_star_and_path_densities_agree():
    fam = GraphonFamily(entries={2: Graphon.from_expression("4*x*y")})
    star = tree_from_word(Word.from_string("aabb"))
    path = tree_from_word(Word.from_string("abba"))
    ds = homomorphism_density(star, fam)
    dp = homomorphism_density(path, fam)
    assert ds.value == pytest.approx(4 / 3, abs=1e-10)
    assert dp.value == pytest.approx(4 / 3, abs=1e-10)


def test_constant_family_density_counts_edges():
    fam = CumulantSchedule("constant 1.7", rule=lambda order: 1.7)
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
    fam = CumulantSchedule("table to order 8",
                           rule=lambda order: sched.value(order) if order <= 8 else 0.0)
    for two_k in (2, 4, 6, 8):
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial"
        assert abs(entry.value - moment_graphon(sched, two_k).value) <= 1e-6


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
            entry = moment_graphon(sched.banded(alpha, True), 2 * k)
            assert entry.provenance == "exact-combinatorial"
            assert entry.value == pytest.approx(catalan(k) * (2 * alpha) ** k)


def test_band_full_width_is_no_band():
    sched = CumulantSchedule.semicircle()
    for two_k in (2, 4, 6):
        banded = moment_graphon(sched.banded(0.5, True), two_k)
        assert banded.value == pytest.approx(moment_graphon(sched, two_k).value)


def test_band_open_interval_second_moment():
    entry = moment_graphon(CumulantSchedule.semicircle().banded(0.25, False), 2)
    expected = 2 * 0.25 - 0.25**2
    assert abs(entry.value - expected) <= 5 * max(entry.error, 1e-4)


def test_unbanded_member_beside_an_open_band_integrates_over_all_of_0_1():
    # order 2 on the open band of half-width 1/4, with row integral m(x);
    # order 4 the constant 2 with no band. beta_4 = 2 int m^2 + int int 2,
    # int m^2 = 2 int_0^(1/4) (x + 1/4)^2 dx + 1/8 = 19/96
    band = CumulantSchedule.semicircle().banded(0.25, False).g(2)
    fam = GraphonFamily({2: band, 4: Graphon(cells=((2.0,),))})
    series = graphon_series(fam, 4)
    assert [(e.value, e.provenance) for e in series.entries] == [
        (7 / 16, "exact-combinatorial"), (float(Fraction(115, 48)), "exact-combinatorial")]


def test_a_one_cell_member_beside_an_open_band_sums_linearly_in_the_pieces(monkeypatch):
    # the member's window is all of [0, 1] on every piece; running sums of the
    # piece integrals take a fixed number of products per piece, where summing
    # every piece for every piece would take a number growing with the pieces
    products = 0

    def counted_mul(a, b):
        nonlocal products
        products += 1
        return a * b

    monkeypatch.setattr(cells, "mul", counted_mul)
    rng = np.random.default_rng(101)
    masses, upper = rng.dirichlet(np.ones(12)), rng.uniform(size=(12, 12))
    grid = block_family(masses.tolist(), {2: ((upper + upper.T) / 2).tolist()})
    one_cell = Graphon(cells=((1.5,),))
    sizes, per_piece = [], []
    for alpha in (0.01, 0.005):
        pieces = cells._Partition([grid.banded(alpha, False).g(2), one_cell])
        apply = cells._edge(one_cell, pieces)
        products = 0
        apply(pieces.one)
        sizes.append(len(pieces.left))
        per_piece.append(products / sizes[-1])
    assert sizes[1] > 1.9 * sizes[0] > 2000
    assert per_piece[1] == pytest.approx(per_piece[0], rel=0.05) and per_piece[1] <= 3


def test_band_alpha_validation():
    sched = CumulantSchedule.semicircle()
    for alpha in (0.0, -0.1, 0.6):
        with pytest.raises(ValidationError):
            moment_graphon(sched.banded(alpha, True), 2)


def test_block_second_moment_exact():
    masses = [0.25, 0.75]
    cells = [[2.0, 0.5], [0.5, 1.0]]
    entry = moment_graphon(block_family(masses, {2: cells}), 2)
    oracle = sum(
        masses[i] * masses[j] * cells[i][j] for i in range(2) for j in range(2)
    )
    assert entry.provenance == "exact-combinatorial"
    assert entry.value == pytest.approx(oracle)


def test_block_single_cell_is_constant_model():
    sched = CumulantSchedule.semicircle()
    for two_k in (2, 4, 6):
        entry = moment_graphon(block_family([1.0], {2: [[1.0]]}), two_k)
        assert entry.value == pytest.approx(moment_graphon(sched, two_k).value)


def test_block_validation():
    with pytest.raises(ValidationError):
        moment_graphon(block_family([0.5, 0.4], {2: [[1.0, 0.0], [0.0, 1.0]]}), 2)  # masses short
    with pytest.raises(ValidationError):
        moment_graphon(block_family([0.5, 0.5], {2: [[1.0, 0.2], [0.3, 1.0]]}), 2)  # asymmetric
    with pytest.raises(ValidationError):
        moment_graphon(block_family([-0.5, 1.5], {2: [[1.0, 0.0], [0.0, 1.0]]}), 2)


def test_variance_profile_scaling():
    sched = CumulantSchedule.semicircle()
    flat = moment_graphon(profile_family(Graphon.constant(1.0), sched), 6)
    assert flat.value == pytest.approx(catalan(3))
    for s in (0.5, 2.0):
        scaled = moment_graphon(profile_family(Graphon.constant(s), sched), 6)
        assert scaled.value == pytest.approx(s**6 * catalan(3))


def test_variance_profile_indicator_support():
    sched = CumulantSchedule.semicircle()
    quarter = moment_graphon(
        profile_family(Graphon.from_expression("ind(x < 0.5)*ind(y < 0.5)"), sched), 2
    )
    assert abs(quarter.value - 0.25) <= 5 * max(quarter.error, 1e-6)


def test_series_builders_and_lookup():
    series = graphon_series(CumulantSchedule.semicircle(), 8)
    assert series.orders() == [2, 4, 6, 8]
    assert series.values() == [1.0, 2.0, 5.0, 14.0]
    assert series.moment(4) == 2.0
    assert series.moment(5) == 0.0  # odd orders vanish by symmetry

    sp = graphon_series(CumulantSchedule.constant(2.0), 6)
    assert sp.moment(6) == pytest.approx(66.0)

    fam = CumulantSchedule("c2 = 1", rule=lambda order: 1.0 if order == 2 else 0.0)
    gs = graphon_series(fam, 6)
    assert gs.orders() == [2, 4, 6]
    assert gs.moment(6) == pytest.approx(catalan(3), abs=1e-9)


def test_series_rows_and_json():
    series = graphon_series(CumulantSchedule.semicircle(), 4)
    rows = series.to_csv_rows()
    assert rows[0] == ["two_k", "beta", "error_estimate"]
    assert rows[1][0] == 2
    payload = series.to_json_dict()
    assert [e["two_k"] for e in payload["entries"]] == [2, 4]
    assert payload["entries"][0]["beta"] == 1.0


def test_series_sums_each_run_of_one_rule_once(monkeypatch):
    # a series is one recursion per node rule: one partition of [0, 1] for a run of
    # exact orders, and one matrix per member per node set for a run on quadrature
    partitions, matrices = [], []
    matrix = quadrature.Nodes.matrix

    class CountedPartition(cells._Partition):
        def __init__(self, kernels):
            partitions.append(kernels)
            super().__init__(kernels)

    def counted_matrix(nodes, g):
        matrices.append(g)
        return matrix(nodes, g)

    monkeypatch.setattr(cells, "_Partition", CountedPartition)
    monkeypatch.setattr(quadrature.Nodes, "matrix", counted_matrix)
    rng = np.random.default_rng(101)
    masses, upper = rng.dirichlet(np.ones(12)), rng.uniform(size=(12, 12))
    banded = block_family(masses.tolist(), {2: ((upper + upper.T) / 2).tolist()}).banded(0.1, False)
    series = graphon_series(banded, 16)
    assert series.orders() == list(range(2, 17, 2))
    assert {e.provenance for e in series.entries} == {"exact-combinatorial"}
    assert len(partitions) == 1 and matrices == []

    step = graphon_series(profile_family("1 + ind(x + y < 1)", CumulantSchedule.semicircle()), 8)
    assert {e.provenance for e in step.entries} == {"quadrature"}
    assert len(partitions) == 1 and len(matrices) == 3  # three grids, one member


def test_explicit_entries_win_over_parity():
    series = MomentSeries(
        entries=(MomentEntry(3, 0.125, 0.01, "monte-carlo-simulation"),),
        description="simulated",
    )
    assert series.moment(3) == 0.125


def hankel_min_eigenvalue(series: MomentSeries) -> float:
    """Smallest eigenvalue of the Hankel matrix [beta_{i+j}], beta_0 = 1.

    A genuine moment sequence gives a positive semidefinite matrix; rounding
    and quadrature error can push the minimum slightly negative, so callers
    compare against a tolerance instead of zero.
    """
    top = max(series.orders())
    size = top // 2 + 1
    h = np.array([[series.moment(i + j) for j in range(size)] for i in range(size)])
    return float(np.linalg.eigvalsh(h)[0])


def test_hankel_and_moment_inequalities():
    for series in (
        graphon_series(CumulantSchedule.semicircle(), 12),
        graphon_series(CumulantSchedule.constant(1.5), 12),
        graphon_series(CumulantSchedule.constant(0.7), 12),
    ):
        assert hankel_min_eigenvalue(series) >= -1e-8
        assert series.moment(4) >= series.moment(2) ** 2


def test_open_band_break_slots_are_bounded(monkeypatch):
    # half-width 1/4 shifts each of the breaks 0 and 1 by -4..4 multiples: 18 slots
    band = GraphonFamily({2: Graphon.constant(1.0).banded(0.25, False)})
    monkeypatch.setattr(cells, "MAX_BREAK_SLOTS", 18)
    assert moment_graphon(band, 2).value == 1 - 0.75**2
    monkeypatch.setattr(cells, "MAX_BREAK_SLOTS", 17)
    with pytest.raises(CapacityError, match="more than 17 break slots"):
        moment_graphon(band, 2)


def test_carleman_reference_alphas():
    # alpha_2k sums the bounds over special symmetric words: Catalan numbers
    # for the semicircle, the rate-2 sparse limit moments for constant(2.0)
    sc = carleman_partial_sum(CumulantSchedule.semicircle(), 8)
    assert sc.alphas == tuple(float(catalan(k)) for k in range(1, 9))
    assert sc.partial_sums[-1] > 4.5

    lam = carleman_partial_sum(CumulantSchedule.constant(2.0), 8)
    assert lam.alphas[:4] == (2.0, 10.0, 66.0, 506.0)
    assert lam.alphas == tuple(graphon_series(CumulantSchedule.constant(2.0), 16).values())


def test_carleman_kernel_family_reads_its_bounds():
    # 4xy has bound 4 at order two and no higher members: the semicircle with c2 = 4
    kernel = carleman_partial_sum(GraphonFamily({2: Graphon.from_expression("4*x*y")}), 5)
    flat = carleman_partial_sum(CumulantSchedule.semicircle(4.0), 5)
    assert kernel == flat
    assert kernel.alphas[:3] == (4.0, 32.0, 320.0)


@pytest.mark.parametrize("big_k", [2, 3, 5, 8, 12])
def test_carleman_slope_matches_polyfit(big_k):
    # the least-squares slope in plain floats against np.polyfit over k >= K/2
    factorial = {2 * k: float(math.factorial(2 * k)) for k in range(1, big_k + 1)}
    for family in (CumulantSchedule.semicircle(), CumulantSchedule.constant(2.0),
                   CumulantSchedule.from_dict(factorial),
                   CumulantSchedule.from_dict({o: m**2 for o, m in factorial.items()})):
        report = carleman_partial_sum(family, big_k)
        ks = np.arange(1, big_k + 1, dtype=float)
        keep = ks >= big_k / 2.0
        reference = np.polyfit(np.log(ks[keep]), np.log(np.array(report.terms)[keep]), 1)[0]
        assert report.slope == pytest.approx(reference, rel=1e-12, abs=1e-12)
    assert math.isnan(carleman_partial_sum(CumulantSchedule.constant(2.0), 1).slope)


def test_carleman_degenerate_schedule():
    for family in (CumulantSchedule.from_dict({2 * k: 0.0 for k in range(1, 9)}),
                   GraphonFamily({2: 0.0})):
        report = carleman_partial_sum(family, 8)
        assert report.alphas == (0.0,) * 8
        assert all(map(math.isinf, report.terms))
        assert math.isinf(report.partial_sums[-1])
        assert math.isnan(report.slope)
    with pytest.raises(ValidationError, match="at least one order"):
        carleman_partial_sum(CumulantSchedule.semicircle(), 0)


def test_carleman_alpha4_decomposition():
    # order four is one block of four or two nested pairs (aabb, abba); the
    # crossing pairing abab is not special symmetric
    report = carleman_partial_sum(CumulantSchedule.from_dict({2: 1.0, 4: 2.0, 6: 0.0, 8: 0.0}), 4)
    assert report.alphas[1] == 2.0 + 2.0


def test_carleman_report_serialization():
    report = carleman_partial_sum(CumulantSchedule.semicircle(), 6)
    payload = report.to_json_dict()
    assert payload == {"orders": [2, 4, 6, 8, 10, 12], "alphas": list(report.alphas),
                       "terms": list(report.terms), "partial_sums": list(report.partial_sums),
                       "slope": report.slope}
    assert carleman_partial_sum(CumulantSchedule.semicircle(), 1).to_json_dict()["slope"] is None


def test_grid_rule_ignores_gauss_points():
    # two order-2 edges (star or path) each give the integral of m^2 = 7/3
    fam = GraphonFamily(entries={2: Graphon.from_expression("1 + ind(x + y < 1)")})
    base = moment_graphon(fam, 4)
    assert base.provenance == "quadrature"
    assert abs(base.value - 14 / 3) <= base.error <= 3e-3


def test_overflowing_moment_raises_instead_of_nan():
    # 2 * (1e300)^2 overflows at order four; no numpy warning escapes either
    assert moment_graphon(CumulantSchedule.constant(1e300), 2).value == 1e300
    with pytest.raises(NumericError, match="not finite"):
        moment_graphon(CumulantSchedule.constant(1e300), 8)


def test_carleman_raises_on_overflowing_bounds():
    with pytest.raises(NumericError, match="not finite"):
        carleman_partial_sum(CumulantSchedule.constant(1e300), 4)
    with pytest.raises(NumericError, match="not finite"):
        carleman_partial_sum(CumulantSchedule.from_dict({2: 1.0, 4: math.nan}), 2)


def test_banded_schedule_is_moment_band():
    banded = CumulantSchedule.semicircle().banded(0.25, True)
    entry = moment_graphon(banded, 4)
    kernel = GraphonFamily({2: Graphon.constant(1.0).banded(0.25, True)})
    assert entry == moment_graphon(kernel, 4)
    assert entry.value == 2 * 0.5**2


def test_tree_sum_releases_its_edge_callback_on_return():
    # kernel families hand tree_sum an edge callback that holds 8 MB kernel
    # matrices; they must go when the sum returns, not when the cyclic GC runs
    class Kernel:
        def apply(self, t, f):
            return f

    kernel = Kernel()
    alive = weakref.ref(kernel)
    gc.disable()
    try:
        assert tree_sum(3, kernel.apply, 1)[-1] == sum(count_ss_by_blocks(6).values())
        del kernel
        assert alive() is None
    finally:
        gc.enable()
