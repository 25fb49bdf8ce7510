"""Colored rooted plane trees in bijection with special symmetric words.

A word of length 2k in the special symmetric class corresponds to a closed
depth-first walk on an ordered rooted tree with k edges: each edge is labeled
by the color of its child endpoint and is traversed exactly twice (down, then
later up), and the word reads off the edge labels in walk order.  The root
has color 0 and the remaining colors are numbered by first appearance in the
walk, which is also first-appearance order of the letters.

Valid colorings satisfy three properties:

(a) the root is the unique node of color 0 and colors are used contiguously;
(b) nodes sharing a color have parents sharing a color;
(c) nodes sharing a color sit at the same depth.

Because of (b)+(c) a color can never parent itself, so the walk is decodable
from the word alone: a letter equal to the current node's color closes that
node (step up), anything else opens a child (step down).  Holding each
color to the parent color it first opened under gives (b), and (c) with it.
This walk decides membership (:func:`esdlab.combinatorics.is_special_symmetric`)
and lists the class (:func:`esdlab.combinatorics.enumerate_ss`), whose words
:func:`enumerate_trees` decodes. :func:`word_from_tree` checks a tree by the
same decoding: the tree's walk must spell a special symmetric word that
decodes back to the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .combinatorics import Word, enumerate_ss, is_special_symmetric
from .errors import ValidationError


@dataclass(frozen=True)
class ColoredTree:
    """One node of an ordered rooted tree; the whole tree is its root node."""

    color: int
    children: tuple["ColoredTree", ...] = ()

    def edge_multiplicities(self) -> dict[tuple[int, int], int]:
        """Count tree edges per (parent color, child color) pair."""
        mult: dict[tuple[int, int], int] = {}

        def visit(node: ColoredTree) -> None:
            for child in node.children:
                key = (node.color, child.color)
                mult[key] = mult.get(key, 0) + 1
                visit(child)

        visit(self)
        return mult

    def to_text(self) -> str:
        """Canonical balanced-parentheses form, e.g. "(0(1)(1(2))(3))"."""
        inner = "".join(child.to_text() for child in self.children)
        return f"({self.color}{inner})"


def _decode(word: Word) -> ColoredTree:
    """Rebuild the tree of a special symmetric word by its depth-first walk."""
    stack: list[tuple[int, list[ColoredTree]]] = [(0, [])]
    for letter in word.letters:
        if stack[-1][0] == letter:
            color, kids = stack.pop()
            stack[-1][1].append(ColoredTree(color, tuple(kids)))
        else:
            stack.append((letter, []))
    assert len(stack) == 1, "walk did not return to the root"
    return ColoredTree(0, tuple(stack[0][1]))


def tree_from_word(word: Word) -> ColoredTree:
    """Build the colored tree of a special symmetric word.

    Walk the word left to right keeping a stack of open nodes.  A letter
    equal to the color on top of the stack closes that node; any other letter
    opens a new child of that color.  Each pair of traversals of an edge
    therefore consumes two equal letters, one on the way down and one on the
    way up.

    >>> tree_from_word(Word.from_string("aaabbacc")).to_text()
    '(0(1)(1(2))(3))'
    """
    if not is_special_symmetric(word):
        raise ValidationError(f"word {word} is not special symmetric")
    return _decode(word)


def word_from_tree(tree: ColoredTree) -> Word:
    """Read a tree back into its word via the depth-first closed walk.

    Each edge contributes its child's color twice, once when stepping down
    and once when stepping up. The tree must decode from that word, which
    also refuses a valid coloring not numbered by first appearance.
    """
    letters: list[int] = []

    def visit(node: ColoredTree) -> None:
        for child in node.children:
            letters.append(child.color)
            visit(child)
            letters.append(child.color)

    visit(tree)
    word = Word(tuple(letters))
    if not (is_special_symmetric(word) and _decode(word) == tree):
        raise ValidationError(f"{tree.to_text()} is not the colored tree of a special "
                              "symmetric word")
    return word


def enumerate_trees(two_k: int) -> Iterator[ColoredTree]:
    """All valid colored trees with two_k/2 edges, in the order of their words.

    Odd two_k yields nothing.
    """
    for word in enumerate_ss(two_k):
        yield _decode(word)
