"""One recursion over the color classes of colored trees.

A colored tree is an ordered rooted tree whose non-root nodes are split into
color classes; the nodes of one class share a parent class and a depth. Every
limit moment is a weighted sum over these trees in which each class of t
nodes contributes an edge weight of order 2t, so the sum factorises over
classes and never needs the trees themselves.

Let F(s, e) be the weighted sum over everything that hangs below a class of
s nodes when e edges lie below it. The class's N children are N ordered slots
shared among its s nodes, C(N+s-1, s-1) ways, and the slots are split into
child classes. A child class of t nodes contributes its order-2t edge weight
applied to its own F(t, .), and beta_{2j} is F(1, j) for the root's class,
integrated over the root's variable where there is one. F(1, j) reads only
the weights of orders up to 2j, and one run to order 2k memoises it for every
j <= k, so a whole moment series is one run.

The recursion is generic over the message type: anything with ``+``, ``*``
between messages and ``*`` by a Python int. The census by block count
passes Python ints, the exact kernel families (flat schedules included, on
one cell) pass piecewise polynomials with integer coefficients over one
denominator, and the rest pass vectors on quadrature nodes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional, TypeVar

M = TypeVar("M")


def tree_sum(k: int, edge: Callable[[int, M], Optional[M]], one: M) -> list[M]:
    """F(1, j) for j = 1..k: the root class's weighted sums over colored trees with j edges.

    ``edge(t, f)`` applies the order-2t edge weight to the message ``f`` of a
    child class of t nodes, or returns None when that order is absent (its
    trees then contribute nothing). ``one`` is the unit message.
    """
    zero = one * 0

    @lru_cache(maxsize=None)
    def below(s: int, e: int):
        if e == 0:
            return one
        total = zero
        for slots in range(1, e + 1):
            total = total + math.comb(slots + s - 1, s - 1) * split(slots, e - slots)
        return total

    @lru_cache(maxsize=None)
    def hang(t: int, e: int):
        return edge(t, below(t, e))

    @lru_cache(maxsize=None)
    def split(slots: int, e: int):
        # set partitions of the slots; the class holding the first slot has t of them
        if slots == 0:
            return one if e == 0 else zero
        total = zero
        for t in range(1, slots + 1):
            ways = math.comb(slots - 1, t - 1)
            for e1 in range(e + 1):
                weight = hang(t, e1)
                if weight is not None:
                    total = total + ways * (weight * split(slots - t, e - e1))
        return total

    try:
        return [below(1, j) for j in range(1, k + 1)]
    finally:
        # the three closures refer to one another; left as a cycle they would keep
        # ``edge`` (and the kernel matrices it holds) alive until the cyclic GC runs
        del below, hang, split
