"""Exact circuit counting for words at any matrix size n.

A circuit is a map pi: {0..k} -> {1..n} with pi(0) = pi(k).  For a word w of
length k, Pi(w) collects the circuits whose edge pattern matches the word:
positions i and j carry the same letter exactly when the unordered vertex
pairs {pi(i-1), pi(i)} and {pi(j-1), pi(j)} coincide.

Membership in Pi(w) does not change when the vertices are relabelled, so the
search runs up to relabelling: vertices are named 0, 1, ... in order of first
appearance, and the walk starts at vertex 0. It keeps the vertex it is at and
one table from each letter to its unordered edge, numbered by first
appearance as the letters are. A repeated letter crosses its edge from
whichever end the walk is at; a new letter takes an edge that no other letter
holds, to a vertex already used or the next fresh one, if fewer than n are
used, and only to vertex 0 at the last step. A circuit counts when the walk
ends at vertex 0. Each such canonical circuit with m distinct vertices stands
for n(n-1)...(n-m+1) circuits over {1..n}, so one search, capped at the
largest n asked for, tallies them by m and serves every n (``ratio_table``;
``count_circuits`` is its one-n case). Once n exceeds the number of letters
the search depends on the word alone, so a count costs the same at every
larger n and stays an exact integer.

The capacity guard (``budget``) checks the size of that search: before its
s-th generating step at most s vertices are in use, so the step offers at
most min(s + 1, n) of them, and the product of these bounds the canonical
assignments.  Like the search, the bound stops growing with n.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import perm
from typing import NamedTuple, Sequence

from .combinatorics import Word
from .defaults import DEFAULT_CIRCUIT_BUDGET
from .errors import CapacityError, ValidationError


class CircuitCount(NamedTuple):
    word: Word
    n: int
    count: int
    #: count / n^(b+1), kept exact so ratio tables cannot lie about monotonicity
    ratio: Fraction


def _budget_estimate(word: Word, n: int) -> int:
    """Bound on the canonical assignments: the product of min(s + 1, n) over
    the generating steps s = 1, 2, ... (first occurrences of a letter before
    the last position, whose vertex is forced back to pi(0)).

    ``budget`` is checked against this bound.
    """
    k = len(word)
    seen = set()
    estimate = step = 1
    for position, letter in enumerate(word.letters, start=1):
        if letter not in seen and position < k:
            estimate *= min(step + 1, n)
            step += 1
        seen.add(letter)
    return estimate


def count_circuits(word: Word, n: int, budget: int = DEFAULT_CIRCUIT_BUDGET) -> CircuitCount:
    """Exact |Pi(word)| for matrices of size n: the one-n case of ratio_table.

    >>> count_circuits(Word.from_string("aa"), 5).count
    25
    """
    return ratio_table(word, [n], budget=budget)[0]


def classify_occurrences(
    word: Word, pi: Sequence[int], relative_to: str = "first"
) -> dict[int, str]:
    """Label each repeated letter occurrence of a circuit as C1, C2 or both.

    C1 means the occurrence traverses the same ordered vertex pair as the
    reference occurrence, C2 the reversed pair, "both" when the edge is a
    loop so the two readings coincide.  The reference is the letter's first
    occurrence by default; ``relative_to="previous"`` compares against the
    immediately preceding occurrence instead (successive appearances in a
    top-count circuit of a special symmetric word are all C2 in that sense).

    Raises ValidationError if pi does not belong to Pi(word).
    """
    if relative_to not in ("first", "previous"):
        raise ValidationError(f"relative_to must be 'first' or 'previous', got {relative_to!r}")
    k = len(word)
    pi = tuple(pi)
    if len(pi) != k + 1:
        raise ValidationError(f"circuit must have length {k + 1}, got {len(pi)}")
    if pi[0] != pi[k]:
        raise ValidationError("circuit must be closed: pi(0) != pi(k)")
    # pi is in Pi(word) exactly when its unordered edges, numbered by first
    # appearance (a loop is its own edge), spell the word
    number: dict[tuple[int, int], int] = {}
    spelled = tuple(number.setdefault((min(a, b), max(a, b)), len(number) + 1)
                    for a, b in zip(pi, pi[1:]))
    if spelled != word.letters:
        raise ValidationError(f"circuit {pi} is not in Pi({word})")

    labels: dict[int, str] = {}
    reference: dict[int, tuple[int, int]] = {}
    for i, (letter, step) in enumerate(zip(word.letters, zip(pi, pi[1:])), start=1):
        if letter in reference:  # step is its reference edge, in the same or reversed order
            labels[i] = "both" if step[0] == step[1] else "C1" if step == reference[letter] else "C2"
        if letter not in reference or relative_to == "previous":
            reference[letter] = step
    return labels


def ratio_table(word: Word, n_values: Sequence[int], budget: int = DEFAULT_CIRCUIT_BUDGET) -> list[CircuitCount]:
    """count_circuits at each n of ``n_values``, in order with repeats kept, for
    convergence tables: every n passes the guard before one search, capped at the
    largest n, tallies canonical circuits by vertex number m for sum c_m perm(n, m)."""
    for n in n_values:
        if n < 1:
            raise ValidationError(f"n must be >= 1, got {n}")
        estimate = _budget_estimate(word, n)
        if estimate > budget:
            raise CapacityError(
                f"counting circuits for {word} at n={n} may explore ~{estimate} "
                f"assignments (budget {budget}); raise the budget to proceed"
            )
    top = max(n_values, default=1)
    k, letters = len(word), word.letters
    edges: list[tuple[int, int]] = []  # letter - 1 -> its unordered edge
    taken: set[tuple[int, int]] = set()  # the same edges, to look up
    # canonical circuits by the number m of distinct vertices they use
    by_vertices: Counter[int] = Counter()

    def walk(i: int, at: int, m: int) -> None:
        if i == k:
            by_vertices[m] += at == 0  # a circuit ends where it started
            return
        letter = letters[i]
        if letter <= len(edges):  # cross the letter's edge from the end the walk is at
            u, v = edges[letter - 1]
            if at == u or at == v:
                walk(i + 1, u + v - at, m)
            return
        # a used vertex, or the next fresh one while fewer than top are used
        for value in (0,) if i == k - 1 else range(min(m + 1, top)):
            edge = (at, value) if at <= value else (value, at)
            if edge not in taken:  # else that edge belongs to a different letter
                edges.append(edge)
                taken.add(edge)
                walk(i + 1, value, max(m, value + 1))
                edges.pop()
                taken.remove(edge)

    walk(0, 0, 1)
    b = word.n_letters
    counts = [(n, sum(c * perm(n, m) for m, c in by_vertices.items())) for n in n_values]
    return [CircuitCount(word, n, count, Fraction(count, n ** (b + 1))) for n, count in counts]
