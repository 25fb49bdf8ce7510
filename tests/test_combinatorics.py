"""Word/partition plumbing and the special symmetric enumeration."""

import itertools
import os
import pickle
import string
import subprocess
import sys
from pathlib import Path

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
import esdlab
from esdlab.errors import CapacityError, ValidationError

import ss_oracle


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


def test_words_compare_sort_and_hash_by_their_letters():
    aaaa, aabb, abba = (Word.from_string(t) for t in ("aaaa", "aabb", "abba"))
    assert sorted([abba, aabb, aaaa, Word((1, 1, 2, 2))]) == [aaaa, aabb, aabb, abba]
    assert Word((1, 1, 2, 2)) == aabb and hash(Word((1, 1, 2, 2))) == hash(aabb)
    assert Word([1, 1, 2, 2]) == aabb and hash(Word([1, 1, 2, 2])) == hash(aabb)
    assert len({aaaa, aabb, abba, Word((1, 1, 2, 2))}) == 3
    assert aabb < abba <= abba and abba > aabb >= aabb
    assert Word((1, 2)) < Word((1, 2, 1))
    assert repr(aabb) == "Word(letters=(1, 1, 2, 2))"


def test_a_word_is_not_a_tuple():
    assert Word((1, 1)) != (1, 1)
    assert Word((1, 1)) != ((1, 1),)
    assert (1, 1) != Word((1, 1))
    with pytest.raises(TypeError):
        Word((1, 1)) < (1, 2)


def test_words_are_immutable():
    w = Word.from_string("abba")
    with pytest.raises(AttributeError):
        w.letters = (1, 1)
    with pytest.raises(AttributeError):
        w.extra = 1
    with pytest.raises(AttributeError):
        del w.letters
    assert w.letters == (1, 2, 2, 1)
    assert pickle.loads(pickle.dumps(w)) == w


def test_words_past_26_letters_print_in_comma_form():
    letters = tuple(range(1, 28))
    assert str(Word(letters[:26])) == string.ascii_lowercase
    assert str(Word(letters)) == ",".join(str(v) for v in letters)
    assert Word.from_string(str(Word(letters))) == Word(letters)
    # more than 26 positions but at most 26 letters still prints as letters
    assert str(Word((1,) * 30 + (2,))) == "a" * 30 + "b"


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
            assert c.is_special_symmetric == ss_oracle.is_special_symmetric(word)


def test_brute_filter_matches_fast_enumeration():
    for two_k in (2, 4, 6, 8):
        brute = [w for w in enumerate_partitions_brute(two_k)
                 if ss_oracle.is_special_symmetric(w)]
        assert brute == list(enumerate_ss(two_k))


def test_walk_agrees_with_block_removal_oracle():
    # the tree walk against the paper's definition, odd lengths included
    for length in range(1, 11):
        for word in enumerate_partitions_brute(length):
            assert is_special_symmetric(word) == ss_oracle.is_special_symmetric(word), word


def test_enumeration_is_sorted_and_duplicate_free():
    for two_k in (2, 4, 6, 8, 10):
        words = [w.letters for w in enumerate_ss(two_k)]
        assert words == sorted(set(words))


def test_long_enumeration_matches_the_census():
    # longer than the brute-force and ordering checks above reach
    words = list(enumerate_ss(14))
    letters = [w.letters for w in words]
    assert letters == sorted(set(letters))
    assert all(ss_oracle.is_special_symmetric(w) for w in words)
    tally = {}
    for w in words:
        tally[w.n_letters] = tally.get(w.n_letters, 0) + 1
    assert tally == count_ss_by_blocks(14)


def test_enumerated_words_pass_validation():
    # enumerate_ss builds its words unchecked; Word() checks them again
    for w in enumerate_ss(12):
        assert w == Word(w.letters)


def test_enumeration_is_lazy():
    # listing every word of length 60 would never finish or fit in memory
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from esdlab.combinatorics import enumerate_ss\n"
            "print(next(enumerate_ss(60)))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(esdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "a" * 60 + "\n"


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
