"""Matrix ensembles: reproducible sampling and entry-moment bookkeeping."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esdlab

from esdlab.errors import ValidationError
from esdlab.graphons import GraphonFamily, block_family
from esdlab.models import (
    VARIANTS,
    ModelSpec,
    _row_rngs,
    effective_cumulants,
    sample,
    truncate,
    with_seed,
)
from esdlab.moments import moment_graphon


def spec_zoo(n=60, seed=5):
    return [
        ModelSpec("gaussian_wigner", n, seed),
        ModelSpec("triangular_twopoint", n, seed, {"atom": 2.0, "rate": 1.5}),
        ModelSpec("sparse_homogeneous", n, seed, {"rate": 2.0}),
        ModelSpec("sparse_inhomogeneous", n, seed, {"prob": "(x + y)/(2*n)"}),
        ModelSpec("heavy_tailed", n, seed, {"tail_index": 1.2}),
        ModelSpec(
            "variance_profile", n, seed, {"profile": "0.5 + 0.5*ind(x + y < 1)"}
        ),
        ModelSpec("band", n, seed, {"half_width": 0.2, "periodic": True}),
        ModelSpec(
            "block",
            n,
            seed,
            {"masses": [0.25, 0.75], "scales": [[2.0, 0.5], [0.5, 1.0]]},
        ),
    ]


def test_every_variant_samples_symmetric_and_reproducible():
    assert {s.variant for s in spec_zoo()} == set(VARIANTS)
    for spec in spec_zoo():
        first = sample(spec)
        second = sample(spec)
        assert isinstance(first, np.ndarray) and first.dtype == np.float64
        assert np.array_equal(first, second)
        assert np.array_equal(first, first.T)
        assert np.all(np.isfinite(first))
        moved = sample(with_seed(spec, spec.seed + 1))
        assert not np.array_equal(first, moved)


def test_zero_diagonal_flag():
    for spec in spec_zoo():
        wiped = ModelSpec(
            spec.variant, spec.n, spec.seed, spec.params, zero_diagonal=True
        )
        m = sample(wiped)
        assert np.all(np.diag(m) == 0.0)
        off = sample(spec).copy()
        np.fill_diagonal(off, 0.0)
        assert np.array_equal(m, off)


def test_gaussian_entry_scale():
    n = 1500
    m = sample(ModelSpec("gaussian_wigner", n, 11))
    iu = np.triu_indices(n)
    terms = n * m[iu] ** 2
    stat = terms.mean()
    se = terms.std() / np.sqrt(terms.size)
    assert abs(stat - 1.0) <= 4 * se


def test_twopoint_values_and_moment():
    n = 1200
    atom, rate = 2.0, 1.5
    spec = ModelSpec("triangular_twopoint", n, 13, {"atom": atom, "rate": rate})
    m = sample(spec)
    assert set(np.unique(np.abs(m))) == {0.0, atom}
    iu = np.triu_indices(n)
    for two_k in (2, 4):
        terms = n * m[iu] ** two_k
        se = terms.std() / np.sqrt(terms.size)
        assert abs(terms.mean() - rate * atom**two_k) <= 4 * se
    sched = effective_cumulants(spec)
    assert sched.value(6) == pytest.approx(rate * atom**6)


def test_sparse_is_zero_one_with_expected_degree():
    n = 1000
    spec = ModelSpec("sparse_homogeneous", n, 17, {"rate": 2.0})
    m = sample(spec)
    assert set(np.unique(m)) == {0.0, 1.0}
    iu = np.triu_indices(n)
    terms = n * m[iu]
    se = terms.std() / np.sqrt(terms.size)
    assert abs(terms.mean() - 2.0) <= 4 * se


def test_inhomogeneous_probability_profile():
    n = 900
    spec = ModelSpec("sparse_inhomogeneous", n, 19, {"prob": "(x + y)/(2*n)"})
    m = sample(spec)
    assert set(np.unique(m)) <= {0.0, 1.0}
    # edge frequency in the corner blocks tracks (x + y)/2
    third = n // 3
    low = m[:third, :third].mean()
    high = m[-third:, -third:].mean()
    assert low < high
    fam = effective_cumulants(spec)
    assert isinstance(fam, GraphonFamily)
    kernel = fam.g(2)
    assert kernel.eval(0.25, 0.5) == pytest.approx((0.25 + 0.5) / 2, rel=1e-6)


def test_inhomogeneous_rejects_bad_probabilities():
    with pytest.raises(ValidationError):
        sample(ModelSpec("sparse_inhomogeneous", 50, 1, {"prob": "1.5"}))
    with pytest.raises(ValidationError):
        sample(ModelSpec("sparse_inhomogeneous", 50, 1, {"prob": "-x"}))


def test_inhomogeneous_rejects_a_nan_probability():
    # NaN fails both p >= 0 and p <= 1, so the range check refuses it, warnings or none
    spec = ModelSpec("sparse_inhomogeneous", 50, 1, {"prob": "sqrt(x - 0.5)/n"})
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match=r"leaves \[0,1\]"):
        sample(spec)


def test_heavy_tailed_truncation_identity():
    n, alpha = 800, 1.2
    spec = ModelSpec("heavy_tailed", n, 23, {"tail_index": alpha})
    raw = sample(spec)
    scaled = np.abs(raw[raw != 0.0]) * n ** (1 / alpha)
    assert scaled.min() >= 1.0 - 1e-12
    clipped = truncate(raw, 1.0)
    assert np.abs(clipped).max() <= 1.0
    iu = np.triu_indices(n)
    terms = n * clipped[iu] ** 2
    se = terms.std() / np.sqrt(terms.size)
    theory = effective_cumulants(spec, at_n=n, truncation=1.0).value(2)
    assert abs(terms.mean() - theory) <= 5 * se


def test_heavy_tailed_cumulants_vanish_when_truncation_cuts_every_entry():
    # the sampler's smallest |entry| is n^(-1/alpha) = 0.01 at alpha = 1.5, n = 1000
    spec = ModelSpec("heavy_tailed", 1000, 1, {"tail_index": 1.5})
    for b in (0.0, 0.005, 0.01):
        sched = effective_cumulants(spec, at_n=1000, truncation=b)
        assert [sched.value(two_k) for two_k in (2, 4, 6, 8)] == [0.0] * 4
    # above the cutoff the closed form stands, bit for bit
    for b, values in ((0.02, [0.12426406871192837, 2.7941125496954275e-05, 7.209138999323174e-09]),
                      (1.0, [2.6999999999999997, 0.599994, 0.333333333])):
        sched = effective_cumulants(spec, at_n=1000, truncation=b)
        assert [sched.value(two_k) for two_k in (2, 4, 6)] == values


def test_heavy_tailed_limit_cumulants():
    spec = ModelSpec("heavy_tailed", 100, 1, {"tail_index": 1.2})
    sched = effective_cumulants(spec, truncation=3.0)
    assert sched.value(2) == pytest.approx(1.2 / 0.8 * 3.0**0.8)
    with pytest.raises(ValidationError):
        effective_cumulants(spec)


def test_gaussian_cumulants_at_finite_n():
    # n E[x^(2k)] of an N(0, 1/n) entry is n^(1-k) (2k-1)!!
    spec = ModelSpec("gaussian_wigner", 10, 1)
    finite = effective_cumulants(spec, at_n=10)
    assert [finite.value(two_k) for two_k in (2, 4, 6)] == pytest.approx([1.0, 0.3, 0.15],
                                                                        rel=1e-15)
    assert effective_cumulants(spec).value(6) == 0.0  # the semicircle limit


def test_block_cumulants_at_finite_n():
    # entries s Z / sqrt(n): n E[x^(2k)] is s^(2k) n^(1-k) (2k-1)!! on each block pair
    scales = [[1, 0.5], [0.5, 2]]
    spec = ModelSpec("block", 10, 1, {"masses": [0.5, 0.5], "scales": scales})
    finite = effective_cumulants(spec, at_n=10)
    for two_k, gaussian in ((2, 1.0), (4, 0.3), (6, 0.15)):
        kernel = finite.g(two_k)
        for (i, x), (j, y) in itertools.product(enumerate((0.25, 0.75)), repeat=2):
            assert float(kernel.eval(x, y)) == pytest.approx(gaussian * scales[i][j] ** two_k,
                                                             rel=1e-12)
    # the block of scale 2 is a constant profile 2.0 over gaussian_wigner at n = 10
    profile = ModelSpec("variance_profile", 10, 1, {"profile": 2.0})
    assert float(finite.g(4).eval(0.75, 0.75)) == pytest.approx(
        float(effective_cumulants(profile, at_n=10).g(4).eval(0.75, 0.75)), rel=1e-12)
    assert effective_cumulants(spec).g(4) is None  # the limit keeps only the variances


def test_truncate_identities():
    base = sample(ModelSpec("gaussian_wigner", 80, 3))
    untouched = truncate(base, np.inf)
    assert np.array_equal(untouched, base)
    wiped = truncate(base, 0.0)
    assert np.all(wiped == 0.0)
    with pytest.raises(ValidationError):
        truncate(base, -1.0)


def test_band_support_pattern():
    n = 40
    for periodic in (False, True):
        spec = ModelSpec(
            "band", n, 29, {"half_width": 0.2, "periodic": periodic}
        )
        m = sample(spec)
        width = round(0.2 * n)
        i, j = np.indices((n, n))
        gap = np.abs(i - j)
        inside = gap <= width
        if periodic:
            inside |= gap >= n - width
        assert np.all(m[~inside] == 0.0)
        assert np.all(m[inside] != 0.0)  # gaussian base never lands on zero
        counts = np.count_nonzero(m, axis=1)
        if periodic:
            assert set(counts) == {2 * width + 1}


def test_band_over_sparse_base():
    spec = ModelSpec(
        "band",
        60,
        31,
        {
            "half_width": 0.1,
            "periodic": True,
            "base": "sparse_homogeneous",
            "base_params": {"rate": 3.0},
        },
    )
    m = sample(spec)
    assert set(np.unique(m)) <= {0.0, 1.0}
    fam = effective_cumulants(spec)
    assert isinstance(fam, GraphonFamily)


def test_block_structure_and_sizes():
    # largest-remainder rounding: thirds of ten split as 4, 3, 3
    spec = ModelSpec(
        "block",
        10,
        37,
        {
            "masses": [1 / 3, 1 / 3, 1 / 3],
            "scales": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        },
    )
    m = sample(spec)
    live = [np.count_nonzero(np.diag(m, 0)[s]) for s in (slice(0, 4), slice(4, 7), slice(7, 10))]
    assert np.all(m[:4, 4:] == 0.0)
    assert np.all(m[4:7, 7:] == 0.0)
    assert np.count_nonzero(m[:4, :4]) > 0
    assert live[0] > 0 or live[1] > 0 or live[2] > 0


def test_block_second_moment_matches_theory():
    n = 1200
    masses = [0.25, 0.75]
    scales = [[2.0, 0.5], [0.5, 1.0]]
    spec = ModelSpec("block", n, 41, {"masses": masses, "scales": scales})
    m = sample(spec)
    iu = np.triu_indices(n)
    terms = n * m[iu] ** 2
    se = terms.std() / np.sqrt(terms.size)
    theory = moment_graphon(block_family(masses, {2: np.square(scales).tolist()}), 2).value
    assert abs(terms.mean() - theory) <= 4 * se


def test_variance_profile_scaling():
    n = 1000
    spec = ModelSpec("variance_profile", n, 43, {"profile": "0.5"})
    m = sample(spec)
    iu = np.triu_indices(n)
    terms = n * m[iu] ** 2
    se = terms.std() / np.sqrt(terms.size)
    assert abs(terms.mean() - 0.25) <= 4 * se
    fam = effective_cumulants(spec)
    assert fam.g(2).eval(0.3, 0.7) == pytest.approx(0.25)


def test_parameter_validation():
    bad = [
        ("nonsense", 10, 1, {}),
        ("gaussian_wigner", 0, 1, {}),
        ("gaussian_wigner", 10, 1, {"rate": 1.0}),
        ("triangular_twopoint", 10, 1, {"atom": 0.0, "rate": 1.0}),
        ("triangular_twopoint", 10, 1, {"atom": 1.0, "rate": 11.0}),
        ("sparse_homogeneous", 10, 1, {"rate": 0.0}),
        ("sparse_inhomogeneous", 10, 1, {"prob": "import os"}),
        ("heavy_tailed", 10, 1, {"tail_index": 2.0}),
        ("heavy_tailed", 10, 1, {"tail_index": 0.0}),
        ("band", 10, 1, {"half_width": 0.0}),
        ("band", 10, 1, {"half_width": 0.7}),
        ("band", 10, 1, {"half_width": 0.2, "base": "heavy_tailed"}),
        ("block", 10, 1, {"masses": [0.5, 0.4], "scales": [[1.0, 0.0], [0.0, 1.0]]}),
        ("block", 10, 1, {"masses": [0.5, 0.5], "scales": [[1.0, 0.3], [0.2, 1.0]]}),
    ]
    for variant, n, seed, params in bad:
        with pytest.raises(ValidationError):
            ModelSpec(variant, n, seed, params)


def test_spec_json_round_trip():
    spec = ModelSpec(
        "band", 64, 9, {"half_width": 0.25, "periodic": True}, zero_diagonal=True
    )
    payload = spec.to_json_dict()
    clone = ModelSpec(**payload)
    assert clone == spec


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       st.integers(1, 9))
def test_rekeyed_row_stream_is_a_fresh_philox_stream(seed, rows, draws):
    # rows in any order, each read by both a uniform and a normal draw before the next
    for row, rng in zip(rows, _row_rngs(seed, rows)):
        fresh = np.random.Generator(np.random.Philox(key=np.array([seed, row], dtype=np.uint64)))
        assert np.array_equal(rng.random(draws), fresh.random(draws))
        assert np.array_equal(rng.standard_normal(draws), fresh.standard_normal(draws))


def test_models_import_no_theory_modules():
    # sampling needs the kernel builders of graphons, never the moment sums
    code = ("import sys, esdlab.models\n"
            "print(sorted(m for m in sys.modules if m.startswith('esdlab')))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(esdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = set(eval(done.stdout))
    assert "esdlab.graphons" in loaded
    for theory in ("moments", "quadrature", "trees", "treesum", "combinatorics"):
        assert f"esdlab.{theory}" not in loaded
