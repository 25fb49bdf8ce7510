"""Limiting moment sequences of generalized Wigner ensembles.

Every even moment is a sum over the special symmetric words of that length,
which are the colored trees of :mod:`esdlab.trees`: one color per block, and
an edge factor per color class of order twice its size. Odd moments vanish.
No tree is listed: :func:`esdlab.treesum.tree_sum` sums over color classes.

:mod:`esdlab.graphons` builds every kernel family (schedules, bands,
blocks, variance profiles); this module only sums them.
:func:`graphon_series` is the one entry point for every limit moment, as in
``graphon_series(block_family(masses, cells), 4)``, and
:func:`moment_graphon` is the last entry of a series. The members up to each
order pick its node rule (:func:`esdlab.graphons.node_rule`), which takes no
settings and only moves from "cells" to "gauss" to "grid" as orders grow, so
a series is at most three runs, each summed by one recursion at its top
order. Runs on the exact rule are summed in rationals by
:func:`esdlab.cells.cell_sum` and rounded once, so their moments are correctly
rounded, with error 0: a :class:`~esdlab.graphons.CumulantSchedule` (the
family of constants C_{2t}) and a periodic band over constants on one cell;
blocks, grids, polynomial kernels in x and y, and open bands over any of
these on the pieces between the grids' breaks and the band's shifts of them.
Every other family (transcendental, ``ind`` or ``abs`` kernels, periodic
bands over a non-constant base, bands of two widths) is summed on quadrature
nodes by :func:`esdlab.quadrature.integrate_tree_sum`. A sum that overflows
raises NumericError instead of returning inf or nan.

:func:`carleman_partial_sum` sums a family's bounds max |g_{2k}| as the
series of their schedule, over the same special symmetric words.

No numpy is loaded here: :func:`graphon_series` imports
:mod:`esdlab.quadrature` only past the exact rule, so ``moments`` on
``semicircle``, ``constant``, ``schedule``, ``sparse``, a
``band`` over them (periodic or open), ``block``, a ``graphon`` of
constants, grids and polynomials, a ``profile`` over a grid or a
polynomial, or a ``model`` of ``gaussian_wigner``, ``triangular_twopoint``,
``sparse_homogeneous``, ``block``, an open ``band`` over these, or
``sparse_inhomogeneous`` with a polynomial ``prob`` needs no numpy.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

from .errors import NumericError, ValidationError
from .graphons import CumulantSchedule, GraphonFamily, node_rule, require_even_order

EXACT = "exact-combinatorial"
QUADRATURE = "quadrature"


class MomentEntry(NamedTuple):
    order: int
    value: float
    error: float
    provenance: str


class MomentSeries(NamedTuple):
    """Even moments beta_2, beta_4, ... with per-entry provenance."""

    entries: tuple[MomentEntry, ...]
    description: str = ""

    def orders(self) -> list[int]:
        return [e.order for e in self.entries]

    def values(self) -> list[float]:
        return [e.value for e in self.entries]

    def moment(self, order: int) -> float:
        if order == 0:
            return 1.0
        for e in self.entries:
            if e.order == order:
                return e.value
        if order % 2:
            return 0.0
        raise ValidationError(f"series has no entry of order {order}")

    def to_json_dict(self) -> dict:
        return {
            "description": self.description,
            "entries": [
                {"two_k": e.order, "beta": e.value,
                 "error_estimate": e.error, "provenance": e.provenance}
                for e in self.entries
            ],
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["two_k", "beta", "error_estimate"]]
        rows += [[e.order, repr(e.value), repr(e.error)] for e in self.entries]
        return rows


# -- graphon families (tree integrals) --------------------------------------

def graphon_series(family: GraphonFamily, two_k_max: int) -> MomentSeries:
    """beta_2, beta_4, ..., up to two_k_max: sums of homomorphism densities over
    all colored trees of each order.

    The members up to each order pick its node rule, which only moves from
    "cells" to "gauss" to "grid" as members join: a series is at most three
    runs, each summed once at its top order from the members up to it, and
    the lower orders of a run read only their own members. On "cells" the
    color-class recursion runs in rationals, in :func:`esdlab.cells.cell_sum`
    on the pieces of [0, 1]; on "gauss" or "grid"
    :func:`esdlab.quadrature.integrate_tree_sum` runs it on the rule's nodes. A
    value or error estimate that is not finite raises NumericError.
    """
    members, tops = {}, {}  # the top order of each run, in the order the runs come
    for t in range(1, two_k_max // 2 + 1):
        if (g := family.g(2 * t)) is not None:
            members[t] = g
        tops[node_rule(members.values())] = t
    entries: list[MomentEntry] = []
    for rule, top in tops.items():
        upto = {t: g for t, g in members.items() if t <= top}
        if rule == "cells":
            from .cells import cell_sum

            sums = [(exact, 0.0) for exact in cell_sum(upto, top)]  # rounded once, below
        else:
            from .quadrature import integrate_tree_sum  # loads numpy

            sums = [(r.value, r.error) for r in integrate_tree_sum(upto, top, rule)]
        for j in range(len(entries) + 1, top + 1):
            what = f"beta_{2 * j} of {family.description!r}"
            try:
                value, error = map(float, sums[j - 1])
            except OverflowError:
                raise NumericError(f"{what} is not finite in floating point") from None
            if not (math.isfinite(value) and math.isfinite(error)):
                raise NumericError(f"{what} is not finite (value {value!r}, error {error!r})")
            entries.append(MomentEntry(2 * j, value, error, EXACT if rule == "cells" else QUADRATURE))
    return MomentSeries(tuple(entries), family.description)


def moment_graphon(family: GraphonFamily, two_k: int) -> MomentEntry:
    """beta_{two_k}: the last entry of :func:`graphon_series`; odd orders are 0."""
    if two_k % 2:
        return MomentEntry(two_k, 0.0, 0.0, EXACT)
    require_even_order(two_k)
    return graphon_series(family, two_k).entries[-1]


# -- Carleman diagnostics -----------------------------------------------------

class CarlemanReport(NamedTuple):
    """Partial sums of alpha_{2k}^(-1/2k) and their fitted log-log slope.

    Divergence of the full series is what the moment-determinacy condition
    needs; a finite table only shows its partial sums. ``slope`` is the
    least-squares slope of log term against log k over the upper half of the
    orders, NaN when a term is infinite or there is only one order; terms
    falling slower than 1/k (slope above -1) form a divergent series.
    """

    orders: tuple[int, ...]
    alphas: tuple[float, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    slope: float

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "alphas": list(self.alphas),
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "slope": None if math.isnan(self.slope) else self.slope,
        }


def carleman_partial_sum(family: GraphonFamily, big_k: int) -> CarlemanReport:
    """Carleman partial sums for the bounds M_{2k} = max |g_{2k}| of a family's members.

    alpha_{2k} is the limit moment of the schedule of constants M_{2k}: the
    sum over special symmetric words of the product of M over their blocks,
    which bounds the family's beta_{2k}. A term is infinite where alpha
    vanishes, and an alpha that is not finite raises NumericError.

    M_{2k} is Graphon.bound, the maximum of |g| on the cells or, for a
    function kernel, on the 29 x 29 graphons.CHECK_GRID only. A peak between grid
    points is missed, and then the alphas are not upper bounds:
    exp(-1000*(x-0.01)**2 - 1000*(y-0.01)**2) has bound 0.8187, but
    g(0.01, 0.01) = 1.
    """
    from statistics import linear_regression

    if big_k < 1:
        raise ValidationError(f"need at least one order, got K={big_k}")
    orders = tuple(range(2, 2 * big_k + 1, 2))
    schedule = CumulantSchedule("Carleman bounds", rule=family.bound)
    alphas = tuple(graphon_series(schedule, 2 * big_k).values())
    terms = tuple(math.inf if a == 0.0 else a ** (-1.0 / o) for o, a in zip(orders, alphas))
    first = (big_k + 1) // 2  # the least-squares fit runs over k >= K / 2
    logs = [math.log(k) for k in range(first, big_k + 1)], [math.log(t) for t in terms[first - 1:]]
    slope = math.nan if big_k == 1 or math.inf in terms else linear_regression(*logs).slope
    return CarlemanReport(orders, alphas, terms, tuple(accumulate(terms)), slope)
