"""Error-bar coverage and parity of the limit-moment engine.

Each kernel check asks |value - truth| <= reported error, where the truth is
a closed form or an independent oracle, and caps the reported error so that
a large estimate cannot pass by itself. The only other allowance is
ROUNDING, relative, for values computed in a different order of floating-point
operations than the truth. Flat and census checks are exact.
"""

import math
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from esdlab.combinatorics import catalan, count_ss_by_blocks, enumerate_ss
from esdlab.graphons import (CumulantSchedule, Graphon, GraphonFamily, as_graphon, block_family,
                             profile_family)
from esdlab.moments import moment_graphon
from esdlab.quadrature import integrate_tree_sum
from esdlab.trees import enumerate_trees
from tree_oracle import exact_density, homomorphism_density

ROUNDING = 1e-12


def assert_covers(entry, truth, cap):
    assert entry.error <= cap, (entry, cap)
    assert abs(entry.value - truth) <= entry.error + ROUNDING * max(1.0, abs(truth)), (entry, truth)


def dyck_words(k):
    """Balanced up/down sequences of length 2k, one per plane tree with k edges."""
    if k == 0:
        yield ()
        return
    # first return decomposition: up, inner word, down, rest
    for inner in range(k):
        for left in dyck_words(inner):
            for right in dyck_words(k - 1 - inner):
                yield (True,) + left + (False,) + right


def rank_one_truth(k):
    """4^k sum over plane trees with k edges of prod over vertices 1/(degree + 1)."""
    total = Fraction(0)
    for steps in dyck_words(k):
        degree, stack = [0], [0]
        for up in steps:
            if up:
                degree[stack[-1]] += 1
                degree.append(1)
                stack.append(len(degree) - 1)
            else:
                stack.pop()
        term = Fraction(4**k)
        for d in degree:
            term /= d + 1
        total += term
    return total


@pytest.mark.parametrize("two_k", range(2, 13, 2))
def test_rank_one_against_plane_trees(two_k):
    fam = GraphonFamily(entries={2: Graphon.from_expression("4*x*y")})
    entry = moment_graphon(fam, two_k)
    assert entry.provenance == "exact-combinatorial" and entry.error == 0.0
    assert entry.value == float(rank_one_truth(two_k // 2))


def test_rank_one_truth_starts_right():
    assert rank_one_truth(1) == 1  # 4 * 1/2 * 1/2
    assert rank_one_truth(2) == Fraction(8, 3)  # star and path, 16 * 1/3 * 1/2 * 1/2 each


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_periodic_band_is_exact(alpha):
    for k in range(1, 7):
        entry = moment_graphon(CumulantSchedule.semicircle().banded(alpha, True), 2 * k)
        assert entry.provenance == "exact-combinatorial"
        assert_covers(entry, catalan(k) * (2 * alpha) ** k, cap=0.0)


@pytest.mark.parametrize("alpha", [0.2, 0.25, 0.3, 0.04, 0.01])
def test_open_band_low_orders(alpha):
    sched = CumulantSchedule.semicircle()
    # the row integral m(x) is x + alpha, 2 alpha, 1 - x + alpha on three pieces,
    # and beta_4 = 2 * int m^2 (star and path; the doubled edge has no order-4 kernel)
    a = Fraction(alpha)
    for two_k, truth in ((2, 2 * a - a**2), (4, 8 * a**2 - 20 * a**3 / 3)):
        entry = moment_graphon(sched.banded(alpha, False), two_k)
        assert entry.provenance == "exact-combinatorial" and entry.error == 0.0
        assert entry.value == float(truth)


def _band_over_blocks_truth(masses, cells, alpha):
    """beta_2 and beta_4 of a block grid of order-2 cells times an open band,
    in Fractions. The row integral m(x) is linear between the block breaks
    and their shifts by +-alpha, so on such a piece of length h with m1, m2,
    m3 its values at the quarter points, int m = h m2 and
    int m^2 = h (m2^2 + (m3 - m1)^2 / 3); beta_4 is 2 int m^2."""
    breaks = [0.0]  # as block_family builds them: float partial sums, the last one 1
    for mass in masses[:-1]:
        breaks.append(breaks[-1] + mass)
    breaks = [*map(Fraction, breaks), Fraction(1)]
    a = Fraction(alpha)

    def m(x):  # sum over blocks J of c(I, J) |[x - a, x + a] & J| for x inside block I
        i = bisect_right(breaks, x) - 1
        return sum(Fraction(cells[i][j]) * max(Fraction(0), min(hi, x + a) - max(lo, x - a))
                   for j, (lo, hi) in enumerate(zip(breaks, breaks[1:])))

    kinks = sorted({b + s for b in breaks for s in (-a, 0, a) if 0 <= b + s <= 1})
    beta_2 = beta_4 = Fraction(0)
    for lo, hi in zip(kinks, kinks[1:]):
        h = hi - lo
        m1, m2, m3 = (m(lo + h * t / 4) for t in (1, 2, 3))
        beta_2 += h * m2
        beta_4 += 2 * h * (m2**2 + (m3 - m1)**2 / 3)
    return beta_2, beta_4


def _random_blocks(d, seed):
    """Dirichlet masses and symmetric U(0, 1) cells of a d-block grid."""
    rng = np.random.default_rng(seed)
    masses = rng.dirichlet(np.ones(d))
    upper = np.triu(rng.uniform(size=(d, d)))
    return masses.tolist(), (upper + np.triu(upper, 1).T).tolist()


THREE_BLOCKS = ([0.3, 0.45, 0.25], [[1.5, 0.4, 0.9], [0.4, 0.8, 0.1], [0.9, 0.1, 2.0]])
TWELVE_BLOCKS = _random_blocks(12, 101)


@pytest.mark.parametrize("blocks, alpha", [
    (THREE_BLOCKS, 0.2), (THREE_BLOCKS, 0.25), (THREE_BLOCKS, 0.35),
    # 13 breaks, each shifted to up to 11 places: 143 break slots
    (TWELVE_BLOCKS, 0.1), (TWELVE_BLOCKS, 0.03),
], ids=["0.2", "0.25", "0.35", "12 blocks-0.1", "12 blocks-0.03"])
def test_band_over_blocks_low_orders(blocks, alpha):
    # block breaks that are not multiples of the half-width, so windows cross them
    masses, cells = blocks
    fam = block_family(masses, {2: cells}).banded(alpha, False)
    for two_k, truth in zip((2, 4), _band_over_blocks_truth(masses, cells, alpha)):
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial" and entry.error == 0.0
        assert entry.value == float(truth)


@pytest.mark.parametrize("alpha", [0.2, 0.25, 0.3])
def test_open_band_lies_within_the_grid_rule(alpha):
    # the uniform grids of esdlab.quadrature, still reached when called directly
    fam = CumulantSchedule.semicircle().banded(alpha, False)
    for two_k in range(2, 13, 2):
        members = {t: fam.g(2 * t) for t in range(1, two_k // 2 + 1)}
        grid = integrate_tree_sum({t: g for t, g in members.items() if g is not None}, two_k // 2)
        assert grid.method == "grid"
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial"
        assert_covers(grid, entry.value, cap=1e-4)


PIECE_FAMILIES = {
    "band_over_blocks": block_family([0.3, 0.7], {2: [[1.5, 0.4], [0.4, 0.8]],
                                                  4: [[2.0, 0.3], [0.3, 1.2]]}).banded(0.2, False),
    "band_over_polynomials": GraphonFamily({2: "1 + x*y", 4: "x + y"}).banded(0.25, False),
    "polynomial_and_grid": GraphonFamily({2: {"breaks": [0, 0.25, 1],
                                              "cells": [[1.5, 0.3], [0.3, 0.7]]},
                                          4: "(x + y)**2/4", 6: 0.5}),
    "polynomial_profile": profile_family("0.5 + 0.5*x*y", CumulantSchedule(
        "two cumulants", ((2, 1.0), (4, 3.0)), rule=lambda two_k: 0.0)),
}


@pytest.mark.parametrize("name", sorted(PIECE_FAMILIES))
def test_exact_pieces_lie_within_the_approximate_rules(name):
    # bands over grids and polynomials, and polynomials beside grids, against the
    # Gauss or grid rule of esdlab.quadrature on the same members
    fam = PIECE_FAMILIES[name]
    for two_k in range(2, 11, 2):
        members = {t: fam.g(2 * t) for t in range(1, two_k // 2 + 1)}
        approximate = integrate_tree_sum({t: g for t, g in members.items() if g is not None},
                                         two_k // 2)
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial" and entry.error == 0.0
        assert_covers(approximate, entry.value, cap=0.05)


def test_two_block_kernel_against_tree_densities():
    fam = block_family([0.3, 0.7], {2: [[1.5, 0.4], [0.4, 0.8]], 4: [[2.0, 0.3], [0.3, 1.2]]})
    for two_k in range(2, 11, 2):
        truth = math.fsum(homomorphism_density(t, fam).value for t in enumerate_trees(two_k))
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial"
        assert_covers(entry, truth, cap=0.0)


GRID = {"breaks": [0, 0.25, 1], "cells": [[1.5, 0.3], [0.3, 0.7]]}
CELL_FAMILIES = {
    "two_blocks": block_family([0.3, 0.7], {2: [[1.5, 0.4], [0.4, 0.8]],
                                            4: [[2.0, 0.3], [0.3, 1.2]]}),
    "three_blocks": block_family([0.1, 0.6, 0.3], {2: [[1.1, 0.2, 0.7], [0.2, 0.9, 0.35],
                                                       [0.7, 0.35, 1.3]]}),
    # a grid, a grid on other breaks and a constant: four cells between them
    "mixed_grids": GraphonFamily({2: GRID, 4: {"breaks": [0, 0.5, 0.6, 1.0],
                                                "cells": [[1, 2, 0.5], [2, 0.1, 3], [0.5, 3, 1]]},
                                  6: 0.3}),
    "profile_over_grid": profile_family(GRID, CumulantSchedule("two cumulants", ((2, 1.0), (4, 3.0)),
                                                              rule=lambda two_k: 0.0)),
}


@pytest.mark.parametrize("name", sorted(CELL_FAMILIES))
def test_block_and_grid_values_are_correctly_rounded(name):
    fam = CELL_FAMILIES[name]
    for two_k in range(2, 11, 2):
        truth = sum(exact_density(t, fam) for t in enumerate_trees(two_k))
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial" and entry.error == 0.0
        assert entry.value == float(truth), (two_k, entry.value, float(truth))


@pytest.mark.parametrize("c", [0.7, 1.0, 2.5])
def test_one_cell_grid_is_the_constant_schedule_bit_for_bit(c):
    cell = as_graphon({"breaks": [0, 1], "cells": [[c]]})
    for fam, flat in ((GraphonFamily({2: cell}), CumulantSchedule.semicircle(c)),
                      (GraphonFamily(rule=lambda order: cell), CumulantSchedule.constant(c))):
        for two_k in range(2, 13, 2):
            assert moment_graphon(fam, two_k) == moment_graphon(flat, two_k)


def test_indicator_kernel_second_moment():
    fam = GraphonFamily(entries={2: Graphon.from_expression("1 + ind(x + y < 1)")})
    entry = moment_graphon(fam, 2)
    assert entry.provenance == "quadrature"
    assert_covers(entry, 1.5, cap=1e-3)


def test_kinked_kernel_takes_the_grid():
    # m(x) = 1 - (x^2 + (1-x)^2)/2 = 1/2 + x - x^2, int m^2 = 1/4 + 1/2 - 1/2 + 1/5
    fam = GraphonFamily(entries={2: Graphon.from_expression("1 - abs(x - y)")})
    entry = moment_graphon(fam, 4)
    assert entry.provenance == "quadrature"
    assert_covers(entry, 2 * (1 / 4 + 1 / 2 - 1 / 2 + 1 / 5), cap=1e-4)


@lru_cache(maxsize=None)
def enumerated(two_k):
    """Block-size multisets and block counts of every SS word, by listing them."""
    sizes, blocks = Counter(), Counter()
    for word in enumerate_ss(two_k):
        sizes[tuple(sorted(word.letter_counts()))] += 1
        blocks[word.n_letters] += 1
    return sizes, blocks


@pytest.mark.parametrize("two_k", range(2, 17, 2))
def test_integer_schedule_matches_enumeration(two_k):
    sched = CumulantSchedule("t + 1", rule=lambda order: order // 2 + 1)
    sizes, _ = enumerated(two_k)
    truth = sum(count * math.prod(s // 2 + 1 for s in profile) for profile, count in sizes.items())
    assert moment_graphon(sched, two_k).value == truth


def test_census_matches_enumeration():
    _, blocks = enumerated(16)
    assert count_ss_by_blocks(16) == dict(sorted(blocks.items()))
    assert list(count_ss_by_blocks(16)) == sorted(blocks)
