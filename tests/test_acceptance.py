"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest -v`` for the per-criterion pass/fail rollup, or add ``-s``
to see the verdict lines of passing criteria too. Statistical criteria use
the library's default seed and 4-standard-error tolerances, so they are
deterministic.
"""

import itertools
import json
import time

import numpy as np
from scipy import integrate

from esdlab.circuits import count_circuits
from esdlab.cli import main as cli_main
from esdlab.combinatorics import (
    Word,
    catalan,
    count_ss_by_blocks,
    enumerate_nc2,
    enumerate_partitions_brute,
    enumerate_ss,
    is_special_symmetric,
)
from esdlab.graphons import Graphon, GraphonFamily
from esdlab.models import ModelSpec, sample, truncate
from esdlab.moments import (
    CumulantSchedule,
    moment_constant,
    moment_graphon,
    moment_sparse,
)
from esdlab.models import DEFAULT_SEED
from esdlab.spectra import eesd_moments, eigenvalues, wasserstein2
from esdlab.trees import enumerate_trees, tree_from_word, word_from_tree


def _verdict(number, text, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {text}"
    print(line)
    assert ok, line


def test_criterion_01_catalan_diagonal():
    start = time.perf_counter()
    values = [count_ss_by_blocks(2 * k)[k] for k in range(1, 8)]
    elapsed = time.perf_counter() - start
    ok = values == [1, 2, 5, 14, 42, 132, 429] and elapsed < 10.0
    _verdict(1, f"pair-block counts are Catalan for k=1..7 ({elapsed:.2f}s)", ok)


def test_criterion_02_brute_force_oracle():
    start = time.perf_counter()
    ok = True
    for two_k in (2, 4, 6, 8, 10):
        brute = {
            w for w in enumerate_partitions_brute(two_k) if is_special_symmetric(w)
        }
        ok = ok and brute == set(enumerate_ss(two_k))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _verdict(2, f"brute-force filter equals enumerator for 2k <= 10 ({elapsed:.1f}s)", ok)


def test_criterion_03_noncrossing_pair_identity():
    ok = True
    for two_k in range(2, 13, 2):
        pair_ss = {
            w
            for w in enumerate_ss(two_k)
            if all(count == 2 for count in w.letter_counts())
        }
        ok = ok and pair_ss == set(enumerate_nc2(two_k))
    _verdict(3, "pair-matched words coincide with non-crossing pairings, 2k <= 12", ok)


def test_criterion_04_tree_bijection():
    ok = True
    for two_k in range(2, 13, 2):
        for word in enumerate_ss(two_k):
            ok = ok and word_from_tree(tree_from_word(word)) == word
        for tree in enumerate_trees(two_k):
            ok = ok and tree_from_word(word_from_tree(tree)) == tree
    _verdict(4, "word/tree round trips are identities over 2k <= 12", ok)


def test_criterion_05_circuit_counts():
    aa = Word.from_string("aa")
    ok = all(count_circuits(aa, n).count == n * n for n in range(1, 33))
    for length in range(1, 7):
        for word in enumerate_partitions_brute(length):
            if is_special_symmetric(word):
                continue
            b = word.n_letters
            for n in range(2, 7):
                ok = ok and count_circuits(word, n).count <= n**b
    _verdict(5, "aa fills n^2 for n <= 32; non-special words stay under n^b", ok)


def test_criterion_06_gaussian_semicircle_moments():
    spec = ModelSpec("gaussian_wigner", 1000, DEFAULT_SEED)
    series = eesd_moments(spec, 6, replicates=30)
    entries = {e.order: e for e in series.entries}
    zs = {
        two_k: (entries[two_k].value - target) / entries[two_k].error
        for two_k, target in ((2, 1.0), (4, 2.0), (6, 5.0))
    }
    ok = all(abs(z) <= 4.0 for z in zs.values())
    detail = ", ".join(f"z{k}={z:+.2f}" for k, z in zs.items())
    _verdict(6, f"gaussian n=1000 x30 matches 1, 2, 5 ({detail})", ok)


def test_criterion_07_sparse_fourth_moment():
    theory = moment_sparse(2.0, 4).value
    ok = theory == 10.0
    spec = ModelSpec("sparse_homogeneous", 1000, DEFAULT_SEED, {"rate": 2.0})
    series = eesd_moments(spec, 4, replicates=30)
    entry = {e.order: e for e in series.entries}[4]
    z = (entry.value - theory) / entry.error
    ok = ok and abs(z) <= 4.0
    _verdict(7, f"sparse rate 2 fourth moment matches 10 (z={z:+.2f})", ok)


def test_criterion_08_periodic_band_moments():
    # the retained diagonal adds exactly 1/n to the second moment, about
    # four standard errors at this scale, so the band law is checked on
    # the zero-diagonal variant
    spec = ModelSpec(
        "band",
        1000,
        DEFAULT_SEED,
        {"half_width": 0.25, "periodic": True},
        zero_diagonal=True,
    )
    series = eesd_moments(spec, 4, replicates=30)
    entries = {e.order: e for e in series.entries}
    zs = {
        two_k: (entries[two_k].value - target) / entries[two_k].error
        for two_k, target in ((2, 0.5), (4, 0.5))
    }
    ok = all(abs(z) <= 4.0 for z in zs.values())
    detail = ", ".join(f"z{k}={z:+.2f}" for k, z in zs.items())
    _verdict(8, f"periodic band alpha=0.25 matches 0.5, 0.5 ({detail})", ok)


def test_criterion_09_graphon_consistency():
    ok = True
    for sched in (CumulantSchedule.semicircle(), CumulantSchedule.constant(1.3)):
        fam = GraphonFamily.from_constant_rule(sched.value)
        for two_k in (2, 4, 6, 8):
            gap = abs(moment_graphon(fam, two_k).value - moment_constant(sched, two_k))
            ok = ok and gap <= 1e-6

    def beta4_oracle(g2, g4):
        flat = integrate.dblquad(lambda y, x: g4(x, y), 0, 1, 0, 1, epsabs=1e-11)[0]

        def marginal(x):
            return integrate.quad(lambda y: g2(x, y), 0, 1, epsabs=1e-12)[0]

        squared = integrate.quad(lambda x: marginal(x) ** 2, 0, 1, epsabs=1e-11)[0]
        return flat + 2 * squared

    kernel_pairs = [
        ("4*x*y", "1.0", lambda x, y: 4 * x * y, lambda x, y: 1.0),
        (
            "1 + cos(2*pi*(x - y))",
            "0.5*(x + y)",
            lambda x, y: 1 + np.cos(2 * np.pi * (x - y)),
            lambda x, y: 0.5 * (x + y),
        ),
        (
            "exp(-(x + y))",
            "x*y",
            lambda x, y: np.exp(-(x + y)),
            lambda x, y: x * y,
        ),
    ]
    worst = 0.0
    for s2, s4, f2, f4 in kernel_pairs:
        fam = GraphonFamily(
            entries={2: Graphon.from_expression(s2), 4: Graphon.from_expression(s4)}
        )
        gap = abs(moment_graphon(fam, 4).value - beta4_oracle(f2, f4))
        worst = max(worst, gap)
        ok = ok and gap <= 1e-6
    _verdict(9, f"kernel moments track exact values (worst gap {worst:.1e})", ok)


def test_criterion_10_coupling_bound():
    violations = 0
    checked = 0
    for seed in range(40):
        a = sample(ModelSpec("gaussian_wigner", 50, seed)).matrix
        b = sample(ModelSpec("sparse_homogeneous", 50, seed + 500, {"rate": 2.0})).matrix
        d2 = wasserstein2(eigenvalues(a), eigenvalues(b))
        checked += 1
        if d2**2 > np.trace((a - b) @ (a - b)) / 50 + 1e-12:
            violations += 1
    for seed in range(30):
        a = sample(ModelSpec("gaussian_wigner", 50, seed)).matrix
        b = sample(ModelSpec("gaussian_wigner", 50, seed + 1000)).matrix
        d2 = wasserstein2(eigenvalues(a), eigenvalues(b))
        checked += 1
        if d2**2 > np.trace((a - b) @ (a - b)) / 50 + 1e-12:
            violations += 1
    for seed in range(30):
        raw = sample(ModelSpec("heavy_tailed", 50, seed, {"tail_index": 1.5}))
        clipped = truncate(raw, 2.0)
        diff = raw.matrix - clipped.matrix
        d2 = wasserstein2(eigenvalues(raw.matrix), eigenvalues(clipped.matrix))
        checked += 1
        if d2**2 > np.trace(diff @ diff) / 50 + 1e-12:
            violations += 1
    ok = checked == 100 and violations == 0
    _verdict(10, f"coupling bound holds on all {checked} seeded pairs", ok)


def test_criterion_11_mismatch_is_flagged(capsys):
    code = cli_main(
        [
            "compare",
            "--theory-json",
            json.dumps({"kind": "sparse", "rate": 1.0}),
            "--model-json",
            json.dumps({"variant": "sparse_homogeneous", "params": {"rate": 2.0}}),
            "--n",
            "400",
            "--reps",
            "10",
            "--two-k",
            "4",
            "--reproducible",
        ]
    )
    out = capsys.readouterr().out
    passed = json.loads(out)["report"]["passed"]
    with capsys.disabled():
        _verdict(11, "deliberately wrong rate exits with comparison failure", code == 4 and passed is False)
