"""Colored rooted trees and the bijection with special symmetric words."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esdlab.combinatorics import Word, count_ss_by_blocks, enumerate_ss
from esdlab.errors import ValidationError
from esdlab.trees import (
    ColoredTree,
    enumerate_trees,
    tree_from_word,
    validate_tree,
    word_from_tree,
)


def leaf(color):
    return ColoredTree(color=color, children=())


def test_known_small_trees():
    star = tree_from_word(Word.from_string("aabb"))
    assert star.to_text() == "(0(1)(2))"
    assert star.edge_multiplicities() == {(0, 1): 1, (0, 2): 1}

    path = tree_from_word(Word.from_string("abba"))
    assert path.to_text() == "(0(1(2)))"
    assert path.edge_multiplicities() == {(0, 1): 1, (1, 2): 1}

    # a block of four letters doubles up the single edge
    doubled = tree_from_word(Word.from_string("aaaa"))
    assert doubled.to_text() == "(0(1)(1))"
    assert doubled.edge_multiplicities() == {(0, 1): 2}


def test_word_tree_round_trip_everywhere():
    for two_k in range(2, 13, 2):
        for word in enumerate_ss(two_k):
            tree = tree_from_word(word)
            assert validate_tree(tree).passed
            assert word_from_tree(tree) == word
        for tree in enumerate_trees(two_k):
            assert tree_from_word(word_from_tree(tree)) == tree


SS_WORDS_TO_12 = [word for two_k in range(2, 13, 2) for word in enumerate_ss(two_k)]


@given(st.sampled_from(SS_WORDS_TO_12))
def test_word_tree_word_round_trip_on_random_words(word):
    assert word_from_tree(tree_from_word(word)) == word


def test_enumeration_counts_match_word_counts():
    for two_k in range(2, 13, 2):
        trees = list(enumerate_trees(two_k))
        assert len(trees) == sum(count_ss_by_blocks(two_k).values())
        assert len(set(trees)) == len(trees)
        # color count tracks block count
        by_colors = {}
        for tree in trees:
            colors = {c for c, _ in _walk(tree)}
            by_colors[len(colors) - 1] = by_colors.get(len(colors) - 1, 0) + 1
        assert by_colors == count_ss_by_blocks(two_k)


def _walk(tree, depth=0):
    yield tree.color, depth
    for child in tree.children:
        yield from _walk(child, depth + 1)


def test_edge_multiplicities_sum_to_half_length():
    for two_k in range(2, 11, 2):
        for tree in enumerate_trees(two_k):
            assert sum(tree.edge_multiplicities().values()) == two_k // 2


def test_json_round_trip():
    for word in enumerate_ss(8):
        tree = tree_from_word(word)
        payload = tree.to_json()
        assert set(payload) == {"color", "children"}
        assert ColoredTree.from_json(payload) == tree


def test_text_rendering_is_nested_parens():
    tree = tree_from_word(Word.from_string("abbacc"))
    assert tree.to_text() == "(0(1(2))(3))"
    # text form is stable under round trip through json
    assert ColoredTree.from_json(tree.to_json()).to_text() == tree.to_text()


def test_validate_tree_reports_problems_without_raising():
    report = validate_tree(leaf(1))
    assert not report.passed
    assert not report.root_ok
    assert report.messages

    gap = ColoredTree(color=0, children=(leaf(2),))
    assert not validate_tree(gap).colors_contiguous

    # same color hanging off two different parents at two depths
    tangled = ColoredTree(
        color=0,
        children=(
            ColoredTree(color=1, children=(leaf(2),)),
            leaf(2),
        ),
    )
    report = validate_tree(tangled)
    assert not report.passed
    assert not report.parent_colors_ok
    assert not report.depths_ok

    good = tree_from_word(Word.from_string("aabbcc"))
    assert validate_tree(good).passed
    assert validate_tree(good).messages == ()


def test_tree_from_word_rejects_non_ss_input():
    for letters in ("abab", "abc", "aab"):
        with pytest.raises(ValidationError):
            tree_from_word(Word.from_string(letters))


def test_enumerate_trees_rejects_bad_lengths():
    with pytest.raises(ValidationError):
        list(enumerate_trees(0))
    assert list(enumerate_trees(3)) == []
