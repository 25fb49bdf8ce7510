"""Colored rooted trees and the bijection with special symmetric words."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from esdlab.combinatorics import Word, count_ss_by_blocks, enumerate_ss
from esdlab.errors import ValidationError
from esdlab.trees import ColoredTree, enumerate_trees, tree_from_word, word_from_tree


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
            assert word_from_tree(tree_from_word(word)) == word
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


def test_text_rendering_is_nested_parens():
    tree = tree_from_word(Word.from_string("abbacc"))
    assert tree.to_text() == "(0(1(2))(3))"


def node(color, *children):
    return ColoredTree(color, children)


REJECTED_TREES = {
    "root_not_color_0": node(5, leaf(1)),
    "lone_root_not_color_0": leaf(1),
    "color_gap": node(0, leaf(2)),
    # color 2 hangs off a color-1 node and off a color-3 node, both at depth 2
    "parents_of_two_colors": node(0, node(1, leaf(2)), node(3, leaf(2))),
    # color 2 at depth 2 under color 1, and at depth 1 under the root
    "two_depths": node(0, node(1, leaf(2)), leaf(2)),
    "color_parents_itself": node(0, node(1, leaf(1))),
    "second_color_0": node(0, leaf(0)),
    "deep_second_color_0": node(0, node(1, leaf(0))),
    # a valid coloring, numbered 2 before 1: the tree of "aabb" is (0(1)(2))
    "not_first_appearance_order": node(0, leaf(2), leaf(1)),
}


@pytest.mark.parametrize("tree", REJECTED_TREES.values(), ids=REJECTED_TREES.keys())
def test_word_from_tree_rejects_invalid_trees(tree):
    with pytest.raises(ValidationError):
        word_from_tree(tree)


def test_tree_from_word_rejects_non_ss_input():
    for letters in ("abab", "abc", "aab"):
        with pytest.raises(ValidationError):
            tree_from_word(Word.from_string(letters))


def test_enumerate_trees_rejects_bad_lengths():
    with pytest.raises(ValidationError):
        list(enumerate_trees(0))
    assert list(enumerate_trees(3)) == []
