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
blocks, grids, polynomial kernels in x and y, and open bands of any
half-width over any of these on the pieces between the grids' breaks and the
band's shifts of them. Every other family (transcendental, ``ind`` or ``abs``
kernels, periodic bands over a non-constant base, bands of two widths) is
summed on quadrature nodes by :func:`esdlab.quadrature.integrate_tree_sum`. A
sum that overflows raises NumericError instead of returning inf or nan.

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
from typing import Callable, Mapping, NamedTuple, Sequence

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

def _bound_lookup(source) -> Callable[[int], float]:
    if isinstance(source, GraphonFamily):
        return source.bound
    if isinstance(source, Mapping):
        return lambda two_k: abs(float(source.get(two_k, 0.0)))
    if callable(source):
        return lambda two_k: abs(float(source(two_k)))
    raise ValidationError(f"cannot read moment bounds from {type(source).__name__}")


class CarlemanReport(NamedTuple):
    """Partial sums of alpha_{2k}^(-1/2k) and a growth-trend verdict.

    Divergence of the full series is what the moment-determinacy condition
    needs; a finite table can only indicate a trend. ``verdict`` is one of
    divergent (an alpha vanished, so terms hit the infinity sentinel),
    diverging-trend, inconclusive, likely-fails. The ss_terms column repeats
    the computation with the partition sum restricted to special symmetric
    partitions.
    """

    orders: tuple[int, ...]
    alphas: tuple[float, ...]
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    slope: float
    verdict: str
    ss_terms: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {
            "orders": list(self.orders),
            "alphas": list(self.alphas),
            "terms": list(self.terms),
            "partial_sums": list(self.partial_sums),
            "slope": None if math.isnan(self.slope) else self.slope,
            "verdict": self.verdict,
            "ss_restricted_terms": list(self.ss_terms),
        }


def carleman_partial_sum(source, big_k: int) -> CarlemanReport:
    """Carleman diagnostic for moment bounds M_{2k} (odd bounds zero).

    alpha_{2k} sums the product of M over the blocks of every partition of
    [2k] into even blocks; splitting off the block of the first element gives
    alpha_n = sum_j C(n-1, j-1) M_j alpha_{n-j}. An alpha in either column
    that is not finite raises NumericError.
    """
    if big_k < 1:
        raise ValidationError(f"need at least one order, got K={big_k}")
    bound_of = _bound_lookup(source)
    by_size = [1.0]
    for n in range(1, 2 * big_k + 1):
        by_size.append(sum(math.comb(n - 1, j - 1) * bound_of(j) * by_size[n - j]
                           for j in range(2, n + 1, 2)))
    orders = tuple(range(2, 2 * big_k + 1, 2))
    alphas = tuple(by_size[2::2])
    for two_k, alpha in zip(orders, alphas):
        if not math.isfinite(alpha):
            raise NumericError(f"Carleman alpha_{two_k} = {alpha!r} is not finite")
    ss = graphon_series(CumulantSchedule("Carleman bounds", rule=bound_of), 2 * big_k)
    terms, ss_terms = (tuple(math.inf if a == 0.0 else a ** (-1.0 / two_k)
                             for two_k, a in zip(orders, column))
                       for column in (alphas, ss.values()))
    slope, verdict = _trend(terms)
    return CarlemanReport(orders, alphas, terms, tuple(accumulate(terms)), slope, verdict,
                          ss_terms)


def _trend(terms: Sequence[float]) -> tuple[float, str]:
    """Log-log slope of the term sequence and the verdict it implies.

    Terms falling slower than 1/k form a divergent series; the slope -1
    boundary is undecidable from a table, hence a dead band around it. The
    band is wide and asymmetric because factorial-growth bound sequences
    approach slope -1 from above very slowly: at tabletop K they fit near
    -0.86, while anything with finite exponential moments stays above -0.65
    and determinacy-breaking growth like ((2k)!)^2 falls below -1.6.
    """
    if any(math.isinf(t) for t in terms):
        return math.nan, "divergent"
    if len(terms) < 2:
        return math.nan, "inconclusive"
    # least-squares line through (log k, log term) over k >= len(terms) / 2
    first = (len(terms) + 1) // 2
    xs = [math.log(k) for k in range(first, len(terms) + 1)]
    ys = [math.log(t) for t in terms[first - 1:]]
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    slope = (math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
             / math.fsum((x - x_mean) ** 2 for x in xs))
    if slope >= -0.75:
        return slope, "diverging-trend"
    if slope > -1.3:
        return slope, "inconclusive"
    return slope, "likely-fails"
