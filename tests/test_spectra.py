"""Spectra: eigenvalue extraction, distances, histograms, averaged moments."""

import numpy as np
import pytest

from esdlab.errors import CapacityError, NumericError, ValidationError
from esdlab.models import ModelSpec, effective_cumulants, sample, truncate, with_seed
from esdlab.spectra import (
    eesd_moments,
    eigenvalues,
    empirical_moments,
    histogram,
    moment_row,
    replicate_esds,
    semicircle_density,
    spectral_moments,
    wasserstein2,
)
from esdlab.spectra import _walk_moments


def test_known_spectra():
    e = eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert isinstance(e, np.ndarray)
    assert np.allclose(e, [1.0, 2.0, 3.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(eigenvalues(swap), [-1.0, 1.0])


def test_eigen_moments_match_traces():
    m = sample(ModelSpec("gaussian_wigner", 200, 3))
    e = eigenvalues(m)
    traced = empirical_moments(m, 10)
    power = np.eye(200)
    for k in range(1, 11):
        power = power @ m
        assert np.mean(e**k) == pytest.approx(np.trace(power) / 200, abs=1e-8)
        assert traced[k - 1] == pytest.approx(np.trace(power) / 200, abs=1e-8)


def test_trace_moments_agree_with_eigenvalue_moments():
    m = sample(ModelSpec("sparse_homogeneous", 150, 7, {"rate": 2.0}))
    e = eigenvalues(m)
    from_traces = empirical_moments(m, 6)
    from_esd = [np.mean(e**k) for k in range(1, 7)]
    assert np.allclose(from_traces, from_esd, atol=1e-8)


def residual_check(matrix: np.ndarray, pairs: int = 10, seed: int = 0) -> float:
    """Max ||Av - lambda v|| / ||A|| over randomly chosen eigenpairs."""
    matrix = np.asarray(matrix, dtype=float)
    values, vectors = np.linalg.eigh(matrix)
    scale = np.linalg.norm(matrix, 2) or 1.0
    picks = np.random.default_rng(seed).choice(len(values), size=min(pairs, len(values)),
                                               replace=False)
    worst = 0.0
    for i in picks:
        worst = max(worst, np.linalg.norm(matrix @ vectors[:, i] - values[i] * vectors[:, i]))
    return float(worst / scale)


def test_residuals_small_on_exact_decomposition():
    m = sample(ModelSpec("gaussian_wigner", 120, 9))
    assert residual_check(m) <= 1e-8


def test_eigenvalues_validation():
    with pytest.raises(ValidationError):
        eigenvalues(np.ones((2, 3)))
    bad = np.full((3, 3), np.nan)
    with pytest.raises(NumericError):
        eigenvalues(bad)


def test_wasserstein_basic_properties():
    a = np.array([0.0, 1.0])
    b = np.array([0.0, 1.0])
    assert wasserstein2(a, b) == 0.0
    shifted = np.array([0.5, 1.5])
    assert wasserstein2(a, shifted) == pytest.approx(0.5)
    assert wasserstein2(shifted, a) == pytest.approx(0.5)


def test_wasserstein_unequal_sizes_against_grid_oracle():
    rng = np.random.default_rng(5)
    a = np.sort(rng.normal(size=7))
    b = np.sort(rng.normal(size=13))

    # oracle: both quantile functions sampled on a very fine common grid
    grid = (np.arange(200_000) + 0.5) / 200_000
    qa = a[np.minimum((grid * 7).astype(int), 6)]
    qb = b[np.minimum((grid * 13).astype(int), 12)]
    oracle = np.sqrt(np.mean((qa - qb) ** 2))
    assert wasserstein2(a, b) == pytest.approx(oracle, abs=1e-4)


def test_wasserstein_sorts_its_inputs():
    assert wasserstein2(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    a, b = np.array([2.0, -1.0, 0.5]), np.array([0.3, 1.0, -2.0, 0.0, 4.0])
    assert wasserstein2(a, b) == wasserstein2(np.sort(a), np.sort(b))


def test_wasserstein_rejects_empty():
    with pytest.raises(ValidationError):
        wasserstein2(np.array([]), np.array([1.0]))


def test_coupling_bound_against_trace_difference():
    # d2(mu_A, mu_B)^2 <= (1/n) Tr (A-B)^2 for symmetric pairs
    for seed in range(12):
        a = sample(ModelSpec("gaussian_wigner", 40, seed))
        b = sample(ModelSpec("sparse_homogeneous", 40, seed + 100, {"rate": 2.0}))
        d2 = wasserstein2(eigenvalues(a), eigenvalues(b))
        bound = np.trace((a - b) @ (a - b)) / 40
        assert d2**2 <= bound + 1e-12


def test_histogram_invariants():
    e = eigenvalues(sample(ModelSpec("gaussian_wigner", 300, 21)))
    h = histogram(e)
    assert h.counts.sum() == 300
    widths = np.diff(h.edges)
    assert np.all(widths > 0)
    assert np.sum(h.density * widths) == pytest.approx(1.0, abs=1e-12)
    forced = histogram(e, bins=17)
    assert forced.counts.size == 17
    rows = forced.to_csv_rows()
    assert rows[0] == ["bin_left", "bin_right", "density"]
    assert len(rows) == 18


def test_histogram_of_unsorted_values():
    h = histogram(np.array([3, 1, 2, 0.5]), bins=2)
    assert h.edges.tolist() == [0.5, 1.75, 3.0]
    assert h.counts.tolist() == [2, 2]


def test_histogram_degenerate_spectrum():
    h = histogram(np.zeros(5))
    assert h.counts.sum() == 5
    assert h.edges[0] < 0.0 < h.edges[-1]


def test_semicircle_density_shape():
    from scipy import integrate

    x = np.linspace(-2.5, 2.5, 101)
    d = semicircle_density(x)
    assert np.all(d >= 0)
    assert d[0] == 0.0 and d[-1] == 0.0
    total = integrate.quad(lambda t: float(semicircle_density(np.array([t]))[0]), -2, 2)[0]
    assert total == pytest.approx(1.0, abs=1e-8)
    assert semicircle_density(np.array([0.0]), variance=1.0)[0] == pytest.approx(
        1 / np.pi
    )


def test_replicate_esds_deterministic_and_distinct():
    spec = ModelSpec("gaussian_wigner", 60, 31)
    first = replicate_esds(spec, 4)
    again = replicate_esds(spec, 4)
    for x, y in zip(first, again):
        assert np.array_equal(x, y)
    # replicates differ from each other
    assert not np.array_equal(first[0], first[1])


def test_eesd_moments_match_trace_powers_of_the_same_replicates():
    spec = ModelSpec("sparse_homogeneous", 120, 43, {"rate": 2.0})
    spectra = replicate_esds(spec, 5)
    # the child seeds _each_replicate derives from the spec's seed
    seeds = np.random.SeedSequence(spec.seed).generate_state(5, dtype=np.uint64)
    draws = [sample(with_seed(spec, int(seed))) for seed in seeds]
    assert all(np.array_equal(eigenvalues(d), e) for d, e in zip(draws, spectra))
    traces = np.array([empirical_moments(d, 6) for d in draws])
    walks = np.array([_walk_moments(d, 6) for d in draws])
    series = eesd_moments(spec, 6, replicates=5)
    assert series.values() == walks.mean(axis=0).tolist()
    assert np.allclose(series.values(), spectral_moments(spectra, 6).values(),
                       rtol=1e-12, atol=1e-14)
    assert np.allclose(series.values(), traces.mean(axis=0), rtol=1e-12, atol=1e-14)
    errors = [e.error for e in series.entries]
    assert np.allclose(errors, traces.std(axis=0, ddof=1) / np.sqrt(5), rtol=1e-9, atol=1e-14)


def test_spectral_moments_of_one_replicate_have_no_error():
    values = replicate_esds(ModelSpec("gaussian_wigner", 40, 3), 1)[0]
    series = spectral_moments([values], 4)
    assert series.values() == [float(np.mean(values**k)) for k in range(1, 5)]
    assert all(np.isnan(e.error) for e in series.entries)


def test_spectral_moments_that_overflow_raise():
    for spectra, k_max in (([np.array([1e300])], 2),  # a power
                           ([np.array([1.7e308])] * 2, 1),  # a mean
                           ([np.array([1e200]), np.array([-1e200])], 1)):  # a standard error
        with pytest.raises(NumericError, match="overflowed at k="):
            spectral_moments(spectra, k_max)


def test_eesd_moments_recover_semicircle_prefix():
    spec = ModelSpec("gaussian_wigner", 300, 37)
    series = eesd_moments(spec, 6, replicates=12)
    for two_k, target in ((2, 1.0), (4, 2.0), (6, 5.0)):
        value = series.moment(two_k)
        assert abs(value - target) <= 0.2, (two_k, value)
    assert series.moment(2) == pytest.approx(1.0, abs=0.05)


def test_eesd_odd_moments_near_zero():
    spec = ModelSpec("gaussian_wigner", 250, 41)
    series = eesd_moments(spec, 5, replicates=10)
    entries = {e.order: e for e in series.entries}
    for order in (1, 3, 5):
        e = entries[order]
        assert abs(e.value) <= 4 * max(e.error, 1e-3)
        assert e.provenance == "monte-carlo-simulation"


def test_eesd_budget_guard():
    spec = ModelSpec("gaussian_wigner", 4000, 1)
    with pytest.raises(CapacityError):
        eesd_moments(spec, 10, replicates=500)
    with pytest.raises(ValidationError):
        eesd_moments(ModelSpec("gaussian_wigner", 50, 1), 4, replicates=1)


def test_budget_counts_one_eigensolve_per_replicate():
    spec = ModelSpec("gaussian_wigner", 10, 1)
    assert len(replicate_esds(spec, 3, budget=3000.0)) == 3
    with pytest.raises(CapacityError):
        replicate_esds(spec, 3, budget=2999.0)
    # the moment order does not enter the cost
    assert len(eesd_moments(spec, 12, replicates=3, budget=3000.0).entries) == 12


def test_truncation_shrinks_spectral_distance():
    spec = ModelSpec("heavy_tailed", 150, 47, {"tail_index": 1.5})
    raw = sample(spec)
    clipped = truncate(raw, 5.0)
    d2 = wasserstein2(eigenvalues(raw), eigenvalues(clipped))
    bound = np.trace((raw - clipped) @ (raw - clipped)) / 150
    assert d2**2 <= bound + 1e-12


SOLVER_ZOO = [
    ModelSpec("gaussian_wigner", 300, 5),
    ModelSpec("triangular_twopoint", 250, 5, {"atom": 2.0, "rate": 1.5}),
    ModelSpec("sparse_homogeneous", 300, 5, {"rate": 2.0}),
    ModelSpec("sparse_inhomogeneous", 200, 5, {"prob": "(x + y)/(2*n)"}),
    ModelSpec("heavy_tailed", 150, 5, {"tail_index": 1.2}),
    ModelSpec("variance_profile", 200, 5, {"profile": "0.5 + 0.5*ind(x + y < 1)"}),
    ModelSpec("band", 200, 5, {"half_width": 0.2, "periodic": True}),
    ModelSpec("block", 200, 5, {"masses": [0.25, 0.75], "scales": [[2.0, 0.5], [0.5, 1.0]]}),
    # no entries between the blocks: two dense components
    ModelSpec("block", 120, 5, {"masses": [0.5, 0.5], "scales": [[1.0, 0.0], [0.0, 2.0]]}),
]


def _one_sided(lower: bool) -> np.ndarray:
    """Two 2x2 blocks joined by one entry that sits in a single triangle."""
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    m[0, 1] = m[1, 0] = m[2, 3] = m[3, 2] = 0.5
    m[(3, 0) if lower else (0, 3)] = 7.0
    return m


@pytest.mark.parametrize("matrix", [sample(spec) for spec in SOLVER_ZOO]
                         + [np.diag(np.arange(-3.0, 4.0)), np.zeros((5, 5)), np.zeros((0, 0)),
                            _one_sided(lower=True), _one_sided(lower=False)],
                         ids=[f"{spec.variant}-{spec.n}" for spec in SOLVER_ZOO]
                         + ["diagonal", "zero", "empty", "lower-only-link", "upper-only-link"])
def test_split_solve_matches_full_eigvalsh(matrix):
    # disconnected draws (block-120, the sparse one, diagonal, zero) get the same one solve
    assert eigenvalues(matrix).tobytes() == np.linalg.eigvalsh(matrix).tobytes()


def test_truncated_replicates_match_finite_n_truncated_cumulant():
    spec = ModelSpec("heavy_tailed", 120, 3, {"tail_index": 1.5})
    series = eesd_moments(spec, 2, replicates=8, truncation=1.0)
    beta_2 = series.entries[1]
    expected = effective_cumulants(spec, at_n=120, truncation=1.0).value(2)
    assert abs(beta_2.value - expected) <= 4 * beta_2.error
    # without truncation the same replicates are far heavier
    assert eesd_moments(spec, 2, replicates=8).entries[1].value > 5 * expected


def _sparse_zoo(n: int, zero_diagonal: bool) -> dict:
    rate = min(2.0, n)
    params = {
        "sparse_homogeneous": {"rate": rate},
        "sparse_inhomogeneous": {"prob": "(x + y)/(2*n)"},
        "triangular_twopoint": {"atom": 2.0, "rate": rate},
        "band": {"half_width": 0.3, "base": "sparse_homogeneous", "base_params": {"rate": rate}},
    }
    return {variant: sample(ModelSpec(variant, n, 11, p, zero_diagonal))
            for variant, p in params.items()}


@pytest.mark.parametrize("zero_diagonal", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 150])
def test_walk_sums_match_trace_powers(n, zero_diagonal):
    for name, draw in _sparse_zoo(n, zero_diagonal).items():
        for k_max in (1, 2, 5, 10):
            walks = _walk_moments(draw, k_max)
            traces = empirical_moments(draw, k_max)
            assert len(walks) == k_max
            for k, (w, t) in enumerate(zip(walks, traces), start=1):
                assert abs(w - t) <= 1e-12 * max(1.0, abs(t)), (name, k_max, k)


@pytest.mark.parametrize("n", [7, 150])
def test_walk_sums_of_zero_one_draws_are_exact(n):
    # an integer walk count divided once by n, against integer matrix powers
    for name in ("sparse_homogeneous", "sparse_inhomogeneous", "band"):
        matrix = _sparse_zoo(n, False)[name]
        assert set(np.unique(matrix)) <= {0.0, 1.0}
        power = np.eye(n, dtype=np.int64)
        for k, value in enumerate(_walk_moments(matrix, 10), start=1):
            power = power @ matrix.astype(np.int64)
            count = int(np.trace(power))
            assert round(value * n) == count, (name, k)
            assert value == count / n, (name, k)


def test_walk_sums_of_zero_and_diagonal_matrices():
    assert _walk_moments(np.zeros((5, 5)), 4) == [0.0] * 4
    assert moment_row(np.zeros((5, 5)), 4) == [0.0] * 4
    diagonal = np.arange(-3.0, 4.0)
    expected = [float(np.sum(diagonal**k) / 7) for k in range(1, 9)]
    assert _walk_moments(np.diag(diagonal), 8) == expected


def test_dense_or_wide_draws_take_the_eigenvalue_row():
    # more than n^2/8 nonzeros: dense
    dense = sample(ModelSpec("sparse_homogeneous", 60, 3, {"rate": 30.0}))
    assert np.count_nonzero(dense) > 60 * 60 / 8
    # few nonzeros, but a walk join (the first, forming W^2) of more than max(n^2/8, 2^16) entries
    wide = sample(ModelSpec("sparse_homogeneous", 300, 3, {"rate": 30.0}))
    assert np.count_nonzero(wide) <= 300 * 300 / 8
    assert _walk_moments(wide, 6) is None
    assert _walk_moments(wide, 2) is not None  # no join
    # joins forming W^2..W^4 fit, the one forming W^5 would not
    refused = sample(ModelSpec("sparse_homogeneous", 1000, 1, {"rate": 3.0}))
    assert _walk_moments(refused, 10) is None
    for matrix, k_max in ((dense, 6), (wide, 6), (refused, 10)):
        values = eigenvalues(matrix)
        assert moment_row(matrix, k_max) == [float(np.mean(values**k))
                                             for k in range(1, k_max + 1)]
    gaussian = sample(ModelSpec("gaussian_wigner", 40, 3))
    values = eigenvalues(gaussian)
    assert moment_row(gaussian, 4) == [float(np.mean(values**k)) for k in range(1, 5)]


@pytest.mark.parametrize("nonzeros, route", [(32, "_walk_moments"), (33, "eigenvalues")])
def test_moment_row_takes_walks_up_to_an_eighth_of_the_entries_nonzero(
        monkeypatch, nonzeros, route):
    import esdlab.spectra as spectra

    n = 16  # n^2/8 = 32
    matrix = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    matrix[rows[:16], cols[:16]] = matrix[cols[:16], rows[:16]] = 2.0
    matrix[0, 0] = nonzeros - 32  # one diagonal entry makes 33
    assert np.count_nonzero(matrix) == nonzeros
    taken = []

    def spy(name):
        original = getattr(spectra, name)

        def wrapper(*args):
            taken.append(name)
            return original(*args)
        return wrapper

    for name in ("_walk_moments", "eigenvalues"):
        monkeypatch.setattr(spectra, name, spy(name))
    row = moment_row(matrix, 6)
    assert taken == [route]
    assert row == (_walk_moments(matrix, 6) if route == "_walk_moments"
                   else [float(np.mean(eigenvalues(matrix)**k)) for k in range(1, 7)])


def _rate_two_draw():
    return sample(ModelSpec("sparse_homogeneous", 1000, 1, {"rate": 2.0}))


def test_rate_two_draw_takes_exact_walk_sums_at_order_ten(monkeypatch):
    import esdlab.spectra as spectra

    matrix = _rate_two_draw()
    taken = []

    def spy(name):
        original = getattr(spectra, name)

        def wrapper(*args):
            taken.append(name)
            return original(*args)
        return wrapper

    for name in ("_walk_moments", "eigenvalues"):
        monkeypatch.setattr(spectra, name, spy(name))
    row = moment_row(matrix, 10)
    assert taken == ["_walk_moments"]
    # float64 powers of a 0/1 matrix are exact integers below 2^53
    power = np.eye(len(matrix))
    for k, value in enumerate(row, start=1):
        power = power @ matrix
        count = np.trace(power)
        assert count < 2.0**53 and value == count / len(matrix), k


def test_walk_joins_stay_within_the_bound(monkeypatch):
    # every join is checked at its own size before np.unique merges it
    n = 1000
    limit = max(n * n // 8, 1 << 16)
    joined = []
    unique = np.unique

    def spy(array, *args, **kwargs):
        joined.append(array.size)
        return unique(array, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    rate_two = _rate_two_draw()
    rate_three = sample(ModelSpec("sparse_homogeneous", n, 1, {"rate": 3.0}))
    for matrix, k_max in ((rate_two, 10), (rate_two, 12), (rate_three, 10)):
        joined.clear()
        _walk_moments(matrix, k_max)
        assert joined and max(joined) <= limit, (k_max, joined)


def test_moment_row_validation():
    with pytest.raises(ValidationError):
        moment_row(np.ones((2, 3)), 2)
    with pytest.raises(ValidationError):
        moment_row(np.eye(2), 0)
    sparse_overflow = np.zeros((20, 20))
    sparse_overflow[0, 0] = 1e200
    with pytest.raises(NumericError):
        moment_row(sparse_overflow, 2)
    with pytest.raises(NumericError):
        _walk_moments(np.diag([1.0, np.inf]), 2)
