"""Word/partition plumbing and the special symmetric enumeration."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esdlab.combinatorics import (
    BRUTE_FORCE_MAX_K,
    SSClassification,
    Word,
    catalan,
    classify,
    count_ss_by_blocks,
    enumerate_nc2,
    enumerate_partitions_brute,
    enumerate_ss,
    is_even,
    is_special_symmetric,
    is_symmetric,
    partition_from_word,
    word_from_partition,
)
from esdlab.errors import CapacityError, ValidationError


def test_word_partition_round_trip_examples():
    assert str(word_from_partition([{1, 3}, {2, 4, 5}])) == "ababb"
    assert str(word_from_partition([{1}, {2}, {3}])) == "abc"
    assert str(word_from_partition([{1, 2, 7}, {3, 6}, {4, 5}])) == "aabccba"

    for letters in ("a", "aa", "abab", "aabccba", "abcabc"):
        w = Word.from_string(letters)
        assert word_from_partition(partition_from_word(w)) == w


def test_word_canonical_form_enforced():
    # letters must appear in first-use order starting from "a"
    with pytest.raises(ValidationError):
        Word.from_string("ba")
    with pytest.raises(ValidationError):
        Word.from_string("acb")
    with pytest.raises(ValidationError):
        Word.from_string("")
    # canonical words are fine, including the 12-letter alphabet edge
    Word.from_string("abcdefghijkl")


def test_partition_must_cover_without_overlap():
    with pytest.raises(ValidationError):
        word_from_partition([{1, 2}, {2, 3}])
    with pytest.raises(ValidationError):
        word_from_partition([{1}, {3}])
    with pytest.raises(ValidationError):
        word_from_partition([{1}, set(), {2}])


def test_letter_counts_and_blocks():
    w = Word.from_string("aabccba")
    assert w.n_letters == 3
    assert w.letter_counts() == (3, 2, 2)
    assert partition_from_word(w) == ((1, 2, 7), (3, 6), (4, 5))


def test_evenness_predicate():
    assert is_even(Word.from_string("aabb"))
    assert is_even(Word.from_string("abacbc"))
    assert not is_even(Word.from_string("abc"))
    assert not is_even(Word.from_string("aabac"))


def test_symmetry_predicate():
    # every letter must occupy as many odd as even positions
    assert is_symmetric(Word.from_string("aabb"))
    assert is_symmetric(Word.from_string("abba"))
    assert not is_symmetric(Word.from_string("abab"))
    assert not is_symmetric(Word.from_string("a"))


def test_ss_frozen_small_sets():
    assert [str(w) for w in enumerate_ss(2)] == ["aa"]
    assert [str(w) for w in enumerate_ss(4)] == ["aaaa", "aabb", "abba"]
    ss6 = [str(w) for w in enumerate_ss(6)]
    assert len(ss6) == 12
    assert ss6 == sorted(ss6)
    assert "aabbcc" in ss6 and "abccba" in ss6 and "aaaaaa" in ss6
    assert "abcabc" not in ss6


def test_classification_hierarchy_exhaustive():
    # special symmetric => symmetric => even, across every partition word
    # up to length 8
    for length in range(1, 9):
        for word in enumerate_partitions_brute(length):
            c = classify(word)
            assert isinstance(c, SSClassification)
            if c.is_special_symmetric:
                assert c.is_symmetric
            if c.is_symmetric:
                assert c.is_even
            assert c.is_even == is_even(word)
            assert c.is_symmetric == is_symmetric(word)
            assert c.is_special_symmetric == is_special_symmetric(word)


def test_brute_filter_matches_fast_enumeration():
    for two_k in (2, 4, 6, 8):
        brute = [w for w in enumerate_partitions_brute(two_k) if is_special_symmetric(w)]
        assert brute == list(enumerate_ss(two_k))


def test_enumeration_is_sorted_and_duplicate_free():
    for two_k in (2, 4, 6, 8, 10):
        words = [w.letters for w in enumerate_ss(two_k)]
        assert words == sorted(set(words))


def test_long_enumeration_matches_the_census():
    # longer than the brute-force and ordering checks above reach
    words = list(enumerate_ss(14))
    letters = [w.letters for w in words]
    assert letters == sorted(set(letters))
    assert all(is_special_symmetric(w) for w in words)
    tally = {}
    for w in words:
        tally[w.n_letters] = tally.get(w.n_letters, 0) + 1
    assert tally == count_ss_by_blocks(14)


@st.composite
def restricted_growth(draw):
    letters = []
    for _ in range(draw(st.integers(1, 12))):
        letters.append(draw(st.integers(1, max(letters, default=0) + 1)))
    return Word(tuple(letters))


@given(restricted_growth())
def test_word_partition_round_trip_on_random_words(word):
    assert word_from_partition(partition_from_word(word)) == word


def test_odd_counts_are_empty():
    assert count_ss_by_blocks(3) == {}
    assert count_ss_by_blocks(7) == {}


def test_odd_lengths_have_no_ss_words():
    for length in (1, 3, 5, 7):
        assert list(enumerate_ss(length)) == []


def test_count_by_blocks_frozen_tables():
    assert count_ss_by_blocks(2) == {1: 1}
    assert count_ss_by_blocks(4) == {1: 1, 2: 2}
    assert count_ss_by_blocks(6) == {1: 1, 2: 6, 3: 5}
    assert count_ss_by_blocks(8) == {1: 1, 2: 14, 3: 28, 4: 14}
    assert count_ss_by_blocks(14) == {
        1: 1,
        2: 126,
        3: 1190,
        4: 3248,
        5: 3731,
        6: 2002,
        7: 429,
    }


def test_pair_block_counts_are_catalan():
    for k in range(1, 8):
        assert count_ss_by_blocks(2 * k)[k] == catalan(k)


def test_nc2_matches_pair_ss_words():
    for k in range(1, 7):
        nc2 = list(enumerate_nc2(2 * k))
        assert len(nc2) == catalan(k)
        assert len(set(nc2)) == len(nc2)
        pair_ss = {
            w
            for w in enumerate_ss(2 * k)
            if all(count == 2 for count in w.letter_counts())
        }
        assert set(nc2) == pair_ss


def test_nc2_against_crossing_oracle():
    # independent check: a pair partition is non-crossing iff no two blocks
    # {a,c} and {b,d} interleave as a < b < c < d
    def crossings(word):
        blocks = partition_from_word(word)
        found = 0
        for s, t in itertools.combinations(blocks, 2):
            a, c = sorted(s)
            b, d = sorted(t)
            if a < b < c < d or b < a < d < c:
                found += 1
        return found

    for k in range(1, 6):
        expected = {
            w
            for w in enumerate_partitions_brute(2 * k)
            if all(count == 2 for count in w.letter_counts()) and crossings(w) == 0
        }
        assert set(enumerate_nc2(2 * k)) == expected


def test_catalan_values():
    assert [catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_capacity_and_validation_errors():
    with pytest.raises(ValidationError):
        list(enumerate_ss(0))
    with pytest.raises(ValidationError):
        list(enumerate_partitions_brute(0))
    with pytest.raises(CapacityError):
        list(enumerate_partitions_brute(BRUTE_FORCE_MAX_K + 1))
    with pytest.raises(ValidationError):
        count_ss_by_blocks(-2)
