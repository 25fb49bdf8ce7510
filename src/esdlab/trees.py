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
node (step up), anything else opens a child (step down).  The words are
listed by :func:`esdlab.combinatorics.enumerate_ss`, which runs this walk;
:func:`enumerate_trees` decodes them.
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

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "children": [child.to_json() for child in self.children],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ColoredTree":
        try:
            color = int(data["color"])
            children = tuple(cls.from_json(child) for child in data.get("children", []))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed tree JSON: {exc}") from exc
        return cls(color, children)

    def to_text(self) -> str:
        """Canonical balanced-parentheses form, e.g. "(0(1)(1(2))(3))"."""
        inner = "".join(child.to_text() for child in self.children)
        return f"({self.color}{inner})"


@dataclass(frozen=True)
class TreeReport:
    """Per-property validation outcome for a colored tree."""

    root_ok: bool
    colors_contiguous: bool
    parent_colors_ok: bool
    depths_ok: bool
    messages: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.root_ok and self.colors_contiguous and self.parent_colors_ok and self.depths_ok


def validate_tree(tree: ColoredTree) -> TreeReport:
    """Check the coloring properties one by one; returns a report, never raises."""
    parent_colors: dict[int, set[int]] = {}
    depths: dict[int, set[int]] = {}
    counts: dict[int, int] = {}

    def visit(node: ColoredTree, depth: int, parent: int | None) -> None:
        counts[node.color] = counts.get(node.color, 0) + 1
        depths.setdefault(node.color, set()).add(depth)
        if parent is not None:
            parent_colors.setdefault(node.color, set()).add(parent)
        for child in node.children:
            visit(child, depth + 1, node.color)

    visit(tree, 0, None)

    messages = []
    root_ok = tree.color == 0 and counts.get(0, 0) == 1
    if not root_ok:
        messages.append(f"root must be the unique color-0 node (root color {tree.color}, color-0 count {counts.get(0, 0)})")
    colors = sorted(counts)
    colors_contiguous = colors == list(range(len(colors)))
    if not colors_contiguous:
        messages.append(f"colors must be 0..b without gaps, got {colors}")
    bad_parents = {c: sorted(ps) for c, ps in parent_colors.items() if len(ps) > 1}
    parent_colors_ok = not bad_parents
    if bad_parents:
        messages.append(f"same-colored nodes with differently colored parents: {bad_parents}")
    bad_depths = {c: sorted(ds) for c, ds in depths.items() if len(ds) > 1}
    depths_ok = not bad_depths
    if bad_depths:
        messages.append(f"same-colored nodes at different depths: {bad_depths}")
    return TreeReport(root_ok, colors_contiguous, parent_colors_ok, depths_ok, tuple(messages))


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
    and once when stepping up.  Colors are renumbered by first appearance in
    the walk, so trees whose colors already follow that order (everything
    produced by this module) round-trip exactly.
    """
    report = validate_tree(tree)
    if not report.passed:
        raise ValidationError("invalid colored tree: " + "; ".join(report.messages))
    letters: list[int] = []

    def visit(node: ColoredTree) -> None:
        for child in node.children:
            letters.append(child.color)
            visit(child)
            letters.append(child.color)

    visit(tree)
    relabel: dict[int, int] = {}
    for value in letters:
        if value not in relabel:
            relabel[value] = len(relabel) + 1
    return Word(tuple(relabel[v] for v in letters))


def enumerate_trees(two_k: int) -> Iterator[ColoredTree]:
    """All valid colored trees with two_k/2 edges, in the order of their words.

    Odd two_k yields nothing.
    """
    for word in enumerate_ss(two_k):
        yield _decode(word)
