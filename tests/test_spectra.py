"""Spectra: eigenvalue extraction, distances, histograms, averaged moments."""

import numpy as np
import pytest

from esdlab.errors import CapacityError, NumericError, ValidationError
from esdlab.models import ModelSpec, sample, truncate, with_seed
from esdlab.spectra import (
    ESD,
    eesd_moments,
    eigenvalues,
    empirical_moment,
    empirical_moments,
    histogram,
    replicate_esds,
    residual_check,
    semicircle_density,
    spectral_moments,
    wasserstein2,
)


def test_known_spectra():
    e = eigenvalues(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(np.sort(e.eigenvalues), [1.0, 2.0, 3.0])
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(np.sort(eigenvalues(swap).eigenvalues), [-1.0, 1.0])


def test_eigen_moments_match_traces():
    m = sample(ModelSpec("gaussian_wigner", 200, 3)).matrix
    e = eigenvalues(m)
    power = np.eye(200)
    for k in range(1, 11):
        power = power @ m
        assert e.moment(k) == pytest.approx(np.trace(power) / 200, abs=1e-8)
        assert empirical_moment(m, k) == pytest.approx(np.trace(power) / 200, abs=1e-8)
    assert empirical_moments(m, 10) == [empirical_moment(m, k) for k in range(1, 11)]


def test_trace_moments_agree_with_eigenvalue_moments():
    m = sample(ModelSpec("sparse_homogeneous", 150, 7, {"rate": 2.0})).matrix
    e = eigenvalues(m)
    from_traces = empirical_moments(m, 6)
    from_esd = [e.moment(k) for k in range(1, 7)]
    assert np.allclose(from_traces, from_esd, atol=1e-8)


def test_residuals_small_on_exact_decomposition():
    m = sample(ModelSpec("gaussian_wigner", 120, 9)).matrix
    assert residual_check(m) <= 1e-8


def test_eigenvalues_validation():
    with pytest.raises(ValidationError):
        eigenvalues(np.ones((2, 3)))
    bad = np.full((3, 3), np.nan)
    with pytest.raises(NumericError):
        eigenvalues(bad)


def test_wasserstein_basic_properties():
    a = ESD(np.array([0.0, 1.0]), {})
    b = ESD(np.array([0.0, 1.0]), {})
    assert wasserstein2(a, b) == 0.0
    shifted = ESD(np.array([0.5, 1.5]), {})
    assert wasserstein2(a, shifted) == pytest.approx(0.5)
    assert wasserstein2(shifted, a) == pytest.approx(0.5)


def test_wasserstein_unequal_sizes_against_grid_oracle():
    rng = np.random.default_rng(5)
    a = ESD(np.sort(rng.normal(size=7)), {})
    b = ESD(np.sort(rng.normal(size=13)), {})

    # oracle: both quantile functions sampled on a very fine common grid
    grid = (np.arange(200_000) + 0.5) / 200_000
    qa = np.sort(a.eigenvalues)[np.minimum((grid * 7).astype(int), 6)]
    qb = np.sort(b.eigenvalues)[np.minimum((grid * 13).astype(int), 12)]
    oracle = np.sqrt(np.mean((qa - qb) ** 2))
    assert wasserstein2(a, b) == pytest.approx(oracle, abs=1e-4)


def test_wasserstein_rejects_empty():
    with pytest.raises(ValidationError):
        wasserstein2(ESD(np.array([]), {}), ESD(np.array([1.0]), {}))


def test_coupling_bound_against_trace_difference():
    # d2(mu_A, mu_B)^2 <= (1/n) Tr (A-B)^2 for symmetric pairs
    for seed in range(12):
        a = sample(ModelSpec("gaussian_wigner", 40, seed)).matrix
        b = sample(ModelSpec("sparse_homogeneous", 40, seed + 100, {"rate": 2.0})).matrix
        d2 = wasserstein2(eigenvalues(a), eigenvalues(b))
        bound = np.trace((a - b) @ (a - b)) / 40
        assert d2**2 <= bound + 1e-12


def test_histogram_invariants():
    e = eigenvalues(sample(ModelSpec("gaussian_wigner", 300, 21)).matrix)
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


def test_histogram_degenerate_spectrum():
    h = histogram(ESD(np.zeros(5), {}))
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
        assert np.array_equal(x.eigenvalues, y.eigenvalues)
    # replicates differ from each other
    assert not np.array_equal(first[0].eigenvalues, first[1].eigenvalues)


def test_eesd_moments_match_trace_powers_of_the_same_replicates():
    spec = ModelSpec("sparse_homogeneous", 120, 43, {"rate": 2.0})
    esds = replicate_esds(spec, 5)
    traces = np.array([empirical_moments(sample(with_seed(spec, e.source["seed"])), 6)
                       for e in esds])
    series = eesd_moments(spec, 6, replicates=5)
    assert series.values() == spectral_moments(esds, 6).values()
    assert np.allclose(series.values(), traces.mean(axis=0), rtol=1e-12, atol=1e-14)
    errors = [e.error for e in series.entries]
    assert np.allclose(errors, traces.std(axis=0, ddof=1) / np.sqrt(5), rtol=1e-9, atol=1e-14)


def test_spectral_moments_of_one_replicate_have_no_error():
    esd = replicate_esds(ModelSpec("gaussian_wigner", 40, 3), 1)[0]
    series = spectral_moments([esd], 4)
    assert series.values() == [esd.moment(k) for k in range(1, 5)]
    assert all(np.isnan(e.error) for e in series.entries)


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
    d2 = wasserstein2(eigenvalues(raw.matrix), eigenvalues(clipped.matrix))
    bound = np.trace((raw.matrix - clipped.matrix) @ (raw.matrix - clipped.matrix)) / 150
    assert d2**2 <= bound + 1e-12
