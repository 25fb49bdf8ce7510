"""Error-bar coverage and parity of the limit-moment engine.

Each kernel check asks |value - truth| <= reported error, where the truth is
a closed form or an independent oracle, and caps the reported error so that
a large estimate cannot pass by itself. The only other allowance is
ROUNDING, relative, for values computed in a different order of floating-point
operations than the truth. Flat and census checks are exact.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from esdlab.combinatorics import catalan, count_ss_by_blocks, enumerate_ss
from esdlab.graphons import Graphon, GraphonFamily
from esdlab.moments import (CumulantSchedule, block_family, homomorphism_density, moment_band,
                            moment_constant, moment_graphon)
from esdlab.trees import enumerate_trees

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
    assert entry.provenance == "quadrature"
    assert_covers(entry, float(rank_one_truth(two_k // 2)), cap=1e-9)


def test_rank_one_truth_starts_right():
    assert rank_one_truth(1) == 1  # 4 * 1/2 * 1/2
    assert rank_one_truth(2) == Fraction(8, 3)  # star and path, 16 * 1/3 * 1/2 * 1/2 each


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_periodic_band_is_exact(alpha):
    for k in range(1, 7):
        entry = moment_band(CumulantSchedule.semicircle(), alpha, True, 2 * k)
        assert entry.provenance == "exact-combinatorial"
        assert_covers(entry, catalan(k) * (2 * alpha) ** k, cap=0.0)


@pytest.mark.parametrize("alpha", [0.2, 0.25, 0.3])
def test_open_band_low_orders(alpha):
    sched = CumulantSchedule.semicircle()
    # the row integral m(x) is x + alpha, 2 alpha, 1 - x + alpha on three pieces,
    # and beta_4 = 2 * int m^2 (star and path; the doubled edge has no order-4 kernel)
    second = moment_band(sched, alpha, False, 2)
    assert second.provenance == "quadrature"
    assert_covers(second, 2 * alpha - alpha**2, cap=1e-12)
    fourth = moment_band(sched, alpha, False, 4)
    assert_covers(fourth, 8 * alpha**2 - 20 * alpha**3 / 3, cap=1e-5)


def test_two_block_kernel_against_tree_densities():
    fam = block_family([0.3, 0.7], {2: [[1.5, 0.4], [0.4, 0.8]], 4: [[2.0, 0.3], [0.3, 1.2]]})
    for two_k in range(2, 11, 2):
        truth = math.fsum(homomorphism_density(t, fam).value for t in enumerate_trees(two_k))
        entry = moment_graphon(fam, two_k)
        assert entry.provenance == "exact-combinatorial"
        assert_covers(entry, truth, cap=0.0)


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
    assert moment_constant(sched, two_k) == truth


def test_census_matches_enumeration():
    _, blocks = enumerated(16)
    assert count_ss_by_blocks(16) == dict(sorted(blocks.items()))
    assert list(count_ss_by_blocks(16)) == sorted(blocks)
