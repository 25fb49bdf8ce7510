"""Exact circuit counting for words at any matrix size n.

A circuit is a map pi: {0..k} -> {1..n} with pi(0) = pi(k).  For a word w of
length k, Pi(w) collects the circuits whose edge pattern matches the word:
positions i and j carry the same letter exactly when the unordered vertex
pairs {pi(i-1), pi(i)} and {pi(j-1), pi(j)} coincide.

Membership in Pi(w) does not change when the vertices are relabelled, so the
search runs up to relabelling: vertices are named 0, 1, ... in order of first
appearance, pi(0) is vertex 0, and the endpoint of each letter's first
occurrence is either a vertex already used or the next fresh one, if fewer
than n are used; every other value is forced by the edge it must repeat.
Each such canonical circuit with m distinct vertices stands for
n(n-1)...(n-m+1) circuits over {1..n}.  Once n exceeds the number of
letters the search depends on the word alone, so a count costs the same at
every larger n and stays an exact integer.

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
    """Exact |Pi(word)| for matrices of size n.

    >>> count_circuits(Word.from_string("aa"), 5).count
    25
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    estimate = _budget_estimate(word, n)
    if estimate > budget:
        raise CapacityError(
            f"counting circuits for {word} at n={n} may explore ~{estimate} "
            f"assignments (budget {budget}); raise the budget to proceed"
        )
    k = len(word)
    letters = word.letters
    pi = [0] * (k + 1)  # canonical vertex names, pi(0) = 0
    # letter -> its established edge as the ordered pair seen first
    first_edge: dict[int, tuple[int, int]] = {}
    used_edges: set[tuple[int, int]] = set()
    # canonical circuits by the number m of distinct vertices they use
    by_vertices: Counter[int] = Counter()

    def assign(i: int, m: int) -> None:
        if i == k + 1:
            by_vertices[m] += 1
            return
        letter = letters[i - 1]
        prev = pi[i - 1]
        if letter in first_edge:
            u, v = first_edge[letter]
            if prev == u:
                value = v
            elif prev == v:
                value = u
            else:
                return
            if i == k and value != pi[0]:
                return
            pi[i] = value
            assign(i + 1, m)
            return
        # a used vertex, or the next fresh one while fewer than n are used
        candidates = (pi[0],) if i == k else range(min(m + 1, n))
        for value in candidates:
            edge = (prev, value) if prev <= value else (value, prev)
            if edge in used_edges:
                continue  # that edge belongs to a different letter
            first_edge[letter] = (prev, value)
            used_edges.add(edge)
            pi[i] = value
            assign(i + 1, max(m, value + 1))
            del first_edge[letter]
            used_edges.remove(edge)

    assign(1, 1)
    count = sum(c * perm(n, m) for m, c in by_vertices.items())

    b = word.n_letters
    return CircuitCount(word, n, count, Fraction(count, n ** (b + 1)))


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
    """count_circuits across several n, for convergence tables."""
    return [count_circuits(word, n, budget=budget) for n in n_values]
