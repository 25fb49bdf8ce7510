"""Circuit counts over finite vertex sets and occurrence labelling."""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esdlab.circuits import (
    CircuitCount,
    classify_occurrences,
    count_circuits,
    ratio_table,
)
from esdlab.combinatorics import Word, enumerate_partitions_brute, is_special_symmetric
from esdlab.errors import CapacityError, ValidationError


def brute_count(word, n):
    """Count circuits by trying every vertex assignment directly."""
    k = len(word.letters)
    total = 0
    for pi in itertools.product(range(n), repeat=k):
        walk = pi + (pi[0],)
        edges = {}
        ok = True
        for i, letter in enumerate(word.letters):
            edge = frozenset((walk[i], walk[i + 1])) if walk[i] != walk[i + 1] else (walk[i],)
            owner = edges.setdefault(edge, letter)
            if owner != letter:
                ok = False
                break
        if not ok:
            continue
        # every letter must label a distinct edge, and identical letters
        # must reuse their edge
        by_letter = {}
        for i, letter in enumerate(word.letters):
            edge = frozenset((walk[i], walk[i + 1])) if walk[i] != walk[i + 1] else (walk[i],)
            by_letter.setdefault(letter, set()).add(edge)
        if all(len(v) == 1 for v in by_letter.values()) and len(
            {next(iter(v)) for v in by_letter.values()}
        ) == len(by_letter):
            total += 1
    return total


@functools.cache
def walk_census(length, n):
    """Tally all n^length closed walks by the word their edge repeats spell.

    A second brute force, vectorized: every walk lies in exactly one Pi(w),
    so the tally of word w is |Pi(w)| at size n.
    """
    walks = np.indices((n,) * length).reshape(length, -1)
    heads = np.roll(walks, -1, axis=0)
    edges = np.minimum(walks, heads) * n + np.maximum(walks, heads)
    letters = np.ones_like(edges)
    top = np.ones_like(edges[0])
    for j in range(1, length):
        fresh = np.ones(edges.shape[1], dtype=bool)
        for i in range(j):
            same = fresh & (edges[i] == edges[j])
            letters[j] = np.where(same, letters[i], letters[j])
            fresh &= ~same
        top += fresh
        letters[j] = np.where(fresh, top, letters[j])
    # one integer key per walk: its letters as digits in base length + 1
    keys = (letters * (length + 1) ** np.arange(length)[:, None]).sum(axis=0)
    keys, counts = np.unique(keys, return_counts=True)
    words = (keys[None, :] // (length + 1) ** np.arange(length)[:, None]) % (length + 1)
    return {Word(tuple(int(v) for v in w)): int(c) for w, c in zip(words.T, counts)}


def lagrange_at(xs, ys, x):
    """Value at x of the polynomial through the points (xs, ys), exactly."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        term = Fraction(yi)
        for j, xj in enumerate(xs):
            if j != i:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


@st.composite
def canonical_words(draw, min_length=1, max_length=6):
    letters = []
    for _ in range(draw(st.integers(min_length, max_length))):
        letters.append(draw(st.integers(1, max(letters, default=0) + 1)))
    return Word(tuple(letters))


def test_single_pair_word_counts_all_ordered_pairs():
    aa = Word.from_string("aa")
    for n in range(1, 9):
        assert count_circuits(aa, n).count == n * n


def test_alternating_word_has_no_circuits():
    abab = Word.from_string("abab")
    for n in range(2, 7):
        assert count_circuits(abab, n).count == 0


def test_frozen_pair_counts():
    for letters in ("aabb", "abba"):
        w = Word.from_string(letters)
        assert [count_circuits(w, n).count for n in range(2, 7)] == [
            n * n * (n - 1) for n in range(2, 7)
        ]


def test_counts_match_brute_force():
    words = ["aa", "aaaa", "aabb", "abba", "abab", "abcabc", "aabbcc"]
    for letters in words:
        w = Word.from_string(letters)
        for n in (2, 3, 4):
            assert count_circuits(w, n).count == brute_count(w, n), (letters, n)


def test_walk_census_matches_brute_count():
    for length in range(1, 6):
        for n in range(1, 5):
            census = walk_census(length, n)
            assert sum(census.values()) == n**length
            for word in enumerate_partitions_brute(length):
                assert census.get(word, 0) == brute_count(word, n), (word, n)


def test_counts_match_brute_force_for_every_short_word():
    for length in range(1, 8):
        for n in range(1, 5):
            census = walk_census(length, n)
            for word in enumerate_partitions_brute(length):
                assert count_circuits(word, n).count == census.get(word, 0), (word, n)


def test_counts_extrapolate_the_brute_force_polynomial():
    # a circuit of a word with b letters uses at most b+1 vertices, so
    # |Pi(w)| is a polynomial in n of degree <= b+1 fixed by n = 1..b+2
    far = 40
    for length in range(1, 7):
        for word in enumerate_partitions_brute(length):
            sizes = range(1, word.n_letters + 3)
            counts = [walk_census(length, n).get(word, 0) for n in sizes]
            expected = lagrange_at(sizes, counts, far)
            assert count_circuits(word, far, budget=10**12).count == expected, word


def test_closed_forms_at_a_million_vertices():
    n = 10**6
    assert count_circuits(Word.from_string("aa"), n, budget=10**18).count == n**2
    for letters in ("aabb", "abba"):
        w = Word.from_string(letters)
        assert count_circuits(w, n, budget=10**18).count == n * n * (n - 1)


@settings(max_examples=30, deadline=None)
@given(canonical_words(min_length=7, max_length=9), st.integers(1, 3))
def test_counts_match_brute_count_on_random_long_words(word, n):
    # lengths beyond the exhaustive check above
    assert count_circuits(word, n).count == brute_count(word, n)


def test_long_word_at_small_n_stops_at_n_vertices():
    # K2 has 3 edges, so 20 distinct letters have no circuit; the search
    # must not walk canonical circuits that need more than n vertices
    word = Word.from_string("abcdefghijklmnopqrst")
    assert count_circuits(word, 2).count == 0
    assert count_circuits(Word.from_string("abcdefghijklmnop"), 3).count == 0


def test_non_ss_words_are_subleading():
    # non special symmetric words never reach the n^(b+1) growth rate
    for length in range(2, 7):
        for word in enumerate_partitions_brute(length):
            if is_special_symmetric(word):
                continue
            b = word.n_letters
            for n in range(2, 7):
                assert count_circuits(word, n).count <= n**b


def test_ss_ratio_approaches_one_from_below():
    for letters in ("aabb", "abba", "abccba"):
        w = Word.from_string(letters)
        ratios = [count_circuits(w, n).ratio for n in (4, 8, 16, 32)]
        assert all(isinstance(r, Fraction) for r in ratios)
        assert all(0 < r < 1 for r in ratios)
        assert ratios == sorted(ratios)


def test_result_record_fields():
    res = count_circuits(Word.from_string("abba"), 5)
    assert isinstance(res, CircuitCount)
    assert res.word == Word.from_string("abba")
    assert res.n == 5
    assert res.count == 100
    assert res.ratio == Fraction(100, 125)


def test_ratio_table_shape():
    rows = ratio_table(Word.from_string("aabb"), [2, 3, 4])
    assert [r.n for r in rows] == [2, 3, 4]
    assert [r.count for r in rows] == [4, 18, 48]


def test_occurrence_labels_against_first_traversal():
    w = Word.from_string("aabbaabb")
    pi = (1, 2, 1, 3, 1, 2, 1, 3, 1)
    labels = classify_occurrences(w, pi)
    assert labels == {2: "C2", 4: "C2", 5: "C1", 6: "C2", 7: "C1", 8: "C2"}


def test_occurrence_labels_against_previous_traversal():
    # relative to the previous traversal every revisit of an undirected
    # edge in a closed walk alternates direction
    w = Word.from_string("aabbaabb")
    pi = (1, 2, 1, 3, 1, 2, 1, 3, 1)
    labels = classify_occurrences(w, pi, relative_to="previous")
    assert set(labels) == {2, 4, 5, 6, 7, 8}
    assert set(labels.values()) == {"C2"}


def test_loop_edges_label_as_both():
    assert classify_occurrences(Word.from_string("aa"), (1, 1, 1)) == {2: "both"}


def test_classify_rejects_non_circuits():
    w = Word.from_string("aabb")
    with pytest.raises(ValidationError):
        classify_occurrences(w, (1, 2, 1, 3, 2))  # does not close
    with pytest.raises(ValidationError):
        classify_occurrences(w, (1, 2, 3, 4, 1))  # letters do not repeat edges
    with pytest.raises(ValidationError):
        classify_occurrences(w, (1, 2, 1))  # wrong length


@pytest.mark.parametrize("length,n", [(L, n) for L in range(1, 6) for n in range(1, 4)])
def test_every_closed_walk_lies_in_exactly_one_pi(length, n):
    tally = {}
    for walk in itertools.product(range(n), repeat=length):
        pi = walk + walk[:1]
        members = []
        for w in enumerate_partitions_brute(length):
            try:
                classify_occurrences(w, pi)
            except ValidationError:
                continue
            members.append(w)
        assert len(members) == 1, (pi, members)
        tally[members[0]] = tally.get(members[0], 0) + 1
    assert tally == walk_census(length, n)


def test_budget_guard():
    # 15 generating steps at n = 16 bound the search by 16!, about 2.1e13
    with pytest.raises(CapacityError):
        count_circuits(Word.from_string("abcdefghijklmnop"), 16)
    # 8! = 40,320 canonical assignments at any n >= 8
    wide = Word.from_string("abcdefgh")
    assert count_circuits(wide, 50).count == 32_914_862_904_000
    # small case is fine even for the same word
    count_circuits(wide, 3)


def test_count_validation():
    with pytest.raises(ValidationError):
        count_circuits(Word.from_string("aa"), 0)
