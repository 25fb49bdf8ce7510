"""Canonical words, set partitions of [k], and the special symmetric class.

A word is a string over letters 1, 2, 3, ... (printed as a, b, c, ...) in
which letter i+1 can only appear after letter i has appeared.  Positions
sharing a letter form a block, so canonical words are exactly the restricted
growth strings and encode set partitions of {1, ..., k} with blocks numbered
by first appearance.  Example: aabccba is the partition
{{1,2,7},{3,6},{4,5}}.

A :class:`Word` is an immutable record that compares, sorts and hashes by
its letters; calling ``Word(...)`` checks that they are canonical.

The module provides the predicates used to stratify words (even, symmetric,
special symmetric), the census of special symmetric words by block count
(from the color-class recursion, no enumeration) and three enumerators.
One depth-first walk on colored trees (see :mod:`esdlab.trees`) decides the
special symmetric class (``is_special_symmetric``) and lists it
(``ss_letters``, wrapped by ``enumerate_ss``).

* ``enumerate_partitions_brute``: every canonical word of length k, in
  lexicographic order (Bell-number growth, capped at k = 12).  This is the
  slow oracle.
* ``enumerate_ss``: only the special symmetric words, generated directly by
  the walk, so the cost is linear in the output size instead of the Bell
  number.  From a node of color c the next letter closes that node (c
  itself), opens a child of an existing color whose parent color is c, or
  opens a child of a fresh color.  A color's parent color fixes its depth,
  so the walk keeps no depth map.  The walk yields letter tuples, in the
  same lexicographic order as a recursive walk; ``enumerate_ss`` wraps them
  into words unchecked (the walk only spells canonical words), and
  ``esdlab ss --list`` spells them straight to text.
* ``enumerate_nc2``: non-crossing pair partitions, generated independently
  from balanced bracket sequences with an explicit stack.  Used as an oracle
  for the identity "special symmetric pair partitions = non-crossing pair
  partitions".
"""

from __future__ import annotations

import string
from functools import total_ordering
from typing import Iterable, Iterator, NamedTuple

from .errors import CapacityError, ValidationError
from .treesum import tree_sum

#: Brute-force enumeration beyond this length is refused (Bell(13) > 2.7e7).
BRUTE_FORCE_MAX_K = 12

_LETTERS = string.ascii_lowercase
# letter v (1..26) as the byte of its ascii letter
_ASCII_LETTERS = bytes.maketrans(bytes(range(1, 27)), _LETTERS.encode())


@total_ordering
class Word:
    """A canonical word (restricted growth string) over positive integers.

    ``letters`` is 1-based: the first letter is always 1 and every new letter
    is exactly one larger than the maximum seen so far. Words are immutable;
    they compare, sort and hash by their letters, and never equal a tuple.

    >>> str(Word((1, 1, 2, 2)))
    'aabb'
    """

    __slots__ = ("letters",)
    letters: tuple[int, ...]

    def __init__(self, letters: Iterable[int]):
        letters = tuple(letters)  # a list would be mutable and unhashable
        seen_max = 0
        for pos, letter in enumerate(letters):
            if not isinstance(letter, int) or letter < 1:
                raise ValidationError(
                    f"letters must be positive integers, got {letter!r} at position {pos + 1}"
                )
            if letter > seen_max + 1:
                raise ValidationError(
                    f"word is not canonical: letter {letter} at position {pos + 1} "
                    f"appears before letter {seen_max + 1}"
                )
            seen_max = max(seen_max, letter)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def from_string(cls, text: str) -> "Word":
        """Parse either ascii form ("aabb") or comma-separated ints ("1,1,2,2")."""
        text = text.strip()
        if not text:
            raise ValidationError("empty word")
        try:
            if "," in text or text[0].isdigit():
                return cls(tuple(int(part) for part in text.split(",")))
            return cls(tuple(_LETTERS.index(ch) + 1 for ch in text if not ch.isspace()))
        except ValueError:
            raise ValidationError(f"word {text!r} is neither letters a-z nor comma-separated "
                                  "integers") from None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Word")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Word")

    def __reduce__(self):
        return Word, (self.letters,)

    def __repr__(self) -> str:
        return f"Word(letters={self.letters!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters < other.letters

    def __hash__(self) -> int:
        return hash((self.letters,))

    def __str__(self) -> str:
        return spell(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def n_letters(self) -> int:
        """Number of distinct letters (blocks), usually written b."""
        return max(self.letters, default=0)

    def letter_counts(self) -> tuple[int, ...]:
        """Occurrences of each letter, indexed by letter-1."""
        counts = [0] * self.n_letters
        for v in self.letters:
            counts[v - 1] += 1
        return tuple(counts)


def spell(letters: tuple[int, ...]) -> str:
    """Canonical letters as text: a-z, or comma-separated integers past 26 letters."""
    # a canonical word of at most 26 positions has at most 26 letters
    if len(letters) <= 26 or max(letters) <= 26:
        return bytes(letters).translate(_ASCII_LETTERS).decode()
    return ",".join(map(str, letters))


def _canonical_word(letters: tuple[int, ...]) -> Word:
    """A Word from letters known to be canonical, skipping the validation."""
    word = object.__new__(Word)
    object.__setattr__(word, "letters", letters)
    return word


class SSClassification(NamedTuple):
    """Stratification flags for one word."""

    is_even: bool
    is_symmetric: bool
    is_special_symmetric: bool
    block_count: int


def validate_partition(blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """Check that blocks are disjoint and cover 1..k; return them canonically.

    Canonical form: each block sorted ascending, blocks ordered by smallest
    element.  Raises ValidationError on overlaps or gaps.
    """
    cleaned = []
    for block in blocks:
        block = sorted(block)
        if not block:
            raise ValidationError("empty block in partition")
        cleaned.append(tuple(block))
    cleaned.sort(key=lambda b: b[0])
    elements = sorted(v for block in cleaned for v in block)
    k = len(elements)
    if elements != list(range(1, k + 1)):
        raise ValidationError(
            f"blocks must partition 1..k exactly; flattened elements are {elements}"
        )
    return tuple(cleaned)


def word_from_partition(blocks: Iterable[Iterable[int]]) -> Word:
    """Canonical word of a set partition.

    >>> str(word_from_partition([{1, 3}, {2, 4, 5}]))
    'ababb'
    """
    canonical = validate_partition(blocks)
    k = sum(len(block) for block in canonical)
    letters = [0] * k
    for index, block in enumerate(canonical, start=1):
        for position in block:
            letters[position - 1] = index
    return Word(tuple(letters))


def partition_from_word(word: Word) -> tuple[tuple[int, ...], ...]:
    """Blocks of the partition encoded by a canonical word.

    >>> partition_from_word(Word.from_string("aabccba"))
    ((1, 2, 7), (3, 6), (4, 5))
    """
    blocks: list[list[int]] = [[] for _ in range(word.n_letters)]
    for position, letter in enumerate(word.letters, start=1):
        blocks[letter - 1].append(position)
    return tuple(tuple(block) for block in blocks)


def is_even(word: Word) -> bool:
    """True iff every letter occurs an even number of times."""
    return all(count % 2 == 0 for count in word.letter_counts())


def is_symmetric(word: Word) -> bool:
    """True iff each letter occurs equally often in odd and even positions.

    Positions are 1-based over the whole word, so abbbba is symmetric while
    ababcc is even but not symmetric.
    """
    balance = [0] * word.n_letters
    for position, letter in enumerate(word.letters, start=1):
        balance[letter - 1] += 1 if position % 2 else -1
    return all(v == 0 for v in balance)


def is_special_symmetric(word: Word) -> bool:
    """Membership in the special symmetric class SS(k).

    The paper's definition removes blocks: the last block must be a union of
    even-length intervals of consecutive positions, the gaps between them
    must hold an even number of elements of every other block, and the word
    left without the last block (relabeled to 1..k') must again pass.  The
    tree walk decides it in O(k): a letter equal to the open color on top
    closes that node, any other opens a child, and a color must always open
    under the color it first opened under; the word passes when the walk
    ends at the root, so odd lengths never do.
    ``test_walk_agrees_with_block_removal_oracle`` checks the walk against
    the definition (``tests/ss_oracle.py``) on every word of length <= 10.

    >>> is_special_symmetric(Word.from_string("aabbaabb"))
    True
    >>> is_special_symmetric(Word.from_string("abab"))
    False
    """
    path = [0]  # the open colors, root first
    parent = {}
    for letter in word.letters:
        if letter == path[-1]:
            path.pop()
        elif parent.setdefault(letter, path[-1]) == path[-1]:
            path.append(letter)
        else:
            return False
    return len(path) == 1


def classify(word: Word) -> SSClassification:
    """Evaluate all three predicates at once."""
    even = is_even(word)
    symmetric = is_symmetric(word)
    special = is_special_symmetric(word)
    # The class inclusions are a theorem; a violation here means a bug.
    assert not special or symmetric, f"SS word {word} not symmetric"
    assert not symmetric or even, f"symmetric word {word} not even"
    return SSClassification(even, symmetric, special, word.n_letters)


def enumerate_partitions_brute(k: int) -> Iterator[Word]:
    """All canonical words of length k in lexicographic order.

    This walks every restricted growth string, so it costs the Bell number
    B_k; inputs above k=12 are refused.

    >>> [str(w) for w in enumerate_partitions_brute(3)]
    ['aaa', 'aab', 'aba', 'abb', 'abc']
    """
    if k < 1:
        raise ValidationError(f"word length must be >= 1, got {k}")
    if k > BRUTE_FORCE_MAX_K:
        raise CapacityError(
            f"brute-force enumeration of length {k} exceeds the Bell-number cap "
            f"(max {BRUTE_FORCE_MAX_K}); use enumerate_ss for the special symmetric subset"
        )
    prefix = [0] * k

    def extend(depth: int, used: int) -> Iterator[Word]:
        if depth == k:
            yield Word(tuple(prefix))
            return
        for letter in range(1, used + 2):
            prefix[depth] = letter
            yield from extend(depth + 1, max(used, letter))

    yield from extend(0, 0)


def ss_letters(two_k: int) -> Iterator[tuple[int, ...]]:
    """The letters of every special symmetric word of length two_k, lexicographically.

    The walk offers its moves in letter order: closing the current node
    (its own color, smaller than any of its children's), then the existing
    child colors, then the fresh one.  It runs on an explicit stack of
    frames (letters, open path, parent colors, downs taken), pushing each
    frame's moves in reverse so they pop in that order; once all two_k/2
    downs are taken only closing moves remain, and they are appended at
    once.  The walk is lazy: it holds one frame per pending move, never the
    whole list.  Odd lengths yield nothing (the class is empty), mirroring
    the mathematical convention rather than raising.

    >>> list(ss_letters(4))
    [(1, 1, 1, 1), (1, 1, 2, 2), (1, 2, 2, 1)]
    """
    if two_k < 1:
        raise ValidationError(f"word length must be >= 1, got {two_k}")
    if two_k % 2:
        return
    k = two_k // 2
    # the root (color 0) is the only open node and has no parent color
    stack: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]] = [
        ((), (0,), (-1,), 0)]
    while stack:
        letters, path, parent, downs = stack.pop()
        if downs == k:  # close every open node, deepest first
            yield letters + path[:0:-1]
            continue
        here = path[-1]
        fresh = len(parent)
        stack.append((letters + (fresh,), path + (fresh,), parent + (here,), downs + 1))
        for color in range(fresh - 1, here, -1):
            if parent[color] == here:
                stack.append((letters + (color,), path + (color,), parent, downs + 1))
        if here:
            stack.append((letters + (here,), path[:-1], parent, downs))


def enumerate_ss(two_k: int) -> Iterator[Word]:
    """All special symmetric words of length two_k, lexicographically, as ``Word`` records.

    Every complete walk of :func:`ss_letters` is a distinct canonical word,
    so the words are built without re-validation.

    >>> [str(w) for w in enumerate_ss(4)]
    ['aaaa', 'aabb', 'abba']
    """
    return map(_canonical_word, ss_letters(two_k))


def count_ss_by_blocks(two_k: int) -> dict[int, int]:
    """Count special symmetric words of length two_k per block count b.

    Each block is a color class of the word's tree, so with weight lam per
    class the color-class recursion gives sum_b count_b * lam^b. Evaluated
    at an integer lam above every count, the counts are its digits in base
    lam. The entry at b = two_k/2 is the Catalan number.

    >>> count_ss_by_blocks(4)
    {1: 1, 2: 2}
    """
    if two_k < 1:
        raise ValidationError(f"word length must be >= 1, got {two_k}")
    if two_k % 2:
        return {}
    base = tree_sum(two_k // 2, lambda t, f: f, 1)[-1] + 1
    packed = tree_sum(two_k // 2, lambda t, f: base * f, 1)[-1]
    counts: dict[int, int] = {}
    for b in range(two_k // 2 + 1):
        packed, counts[b] = divmod(packed, base)
    return {b: c for b, c in counts.items() if c}


def enumerate_nc2(two_k: int) -> Iterator[Word]:
    """Non-crossing pair partitions of 1..two_k as canonical words.

    Independent of the special symmetric machinery: generates balanced
    bracket sequences and pairs positions with an explicit stack.

    >>> sorted(str(w) for w in enumerate_nc2(4))
    ['aabb', 'abba']
    """
    if two_k < 1:
        raise ValidationError(f"word length must be >= 1, got {two_k}")
    if two_k % 2:
        return
    k = two_k // 2
    steps = [False] * two_k

    def brackets(pos: int, opened: int, depth: int) -> Iterator[Word]:
        if pos == two_k:
            stack: list[int] = []
            pairs = []
            for index, is_open in enumerate(steps, start=1):
                if is_open:
                    stack.append(index)
                else:
                    pairs.append((stack.pop(), index))
            yield word_from_partition(pairs)
            return
        if opened < k:
            steps[pos] = True
            yield from brackets(pos + 1, opened + 1, depth + 1)
        if depth > 0:
            steps[pos] = False
            yield from brackets(pos + 1, opened, depth - 1)

    yield from brackets(0, 0, 0)


def catalan(k: int) -> int:
    """k-th Catalan number (C_0 = 1)."""
    value = 1
    for i in range(k):
        value = value * 2 * (2 * i + 1) // (i + 2)
    return value
