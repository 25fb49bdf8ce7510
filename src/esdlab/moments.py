"""Limiting moment sequences of generalized Wigner ensembles.

Every even moment is a sum over the special symmetric words of that length,
which are the colored trees of :mod:`esdlab.trees`: one color per block, and
an edge factor per color class of order twice its size. Odd moments vanish.
No tree is listed: :func:`esdlab.treesum.tree_sum` sums over color classes.

:func:`moment_graphon` is the one entry point for every limit moment. It
passes vectors on the nodes of one quadrature rule, chosen once per moment
from the kinds of the members up to that order (see :mod:`esdlab.quadrature`);
a class of t nodes applies the matrix of its order-2t member to its message.
A cumulant schedule is a family of constants, which takes the exact
one-node rule, so its moments are plain float sums of C_{2t} products. Only
the sparse polynomial stays in integers: its coefficients are the census by
block count (see :func:`esdlab.combinatorics.count_ss_by_blocks`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .combinatorics import count_ss_by_blocks
from .errors import ValidationError
from .graphons import Graphon, GraphonFamily, as_graphon
from .quadrature import (DEFAULT_CONFIG, IntegralResult, Nodes, QuadratureConfig,
                         integrate_edge_product, integrate_on_nodes)
from .trees import ColoredTree
from .treesum import tree_sum

EXACT = "exact-combinatorial"
QUADRATURE = "quadrature"


def _require_even_order(two_k: int) -> None:
    if two_k < 2 or two_k % 2:
        raise ValidationError(f"even order >= 2 required, got {two_k}")


@dataclass(frozen=True)
class CumulantSchedule:
    """Limits C_{2k} of n * E[entry^(2k)], one per even order."""

    description: str
    table: tuple[tuple[int, float], ...] = ()
    rule: Optional[Callable[[int], float]] = None

    def value(self, two_k: int) -> float:
        _require_even_order(two_k)
        for order, c in self.table:
            if order == two_k:
                return c
        if self.rule is not None:
            return float(self.rule(two_k))
        raise ValidationError(
            f"schedule {self.description!r} has no cumulant of order {two_k}")

    @classmethod
    def from_dict(cls, values: Mapping[int, float], description: str = "table") -> "CumulantSchedule":
        table = []
        for order, c in sorted(values.items()):
            _require_even_order(int(order))
            table.append((int(order), float(c)))
        return cls(description, tuple(table))

    @classmethod
    def semicircle(cls, c2: float = 1.0) -> "CumulantSchedule":
        return cls(f"semicircle c2={c2}", ((2, float(c2)),), rule=lambda two_k: 0.0)

    @classmethod
    def constant(cls, lam: float) -> "CumulantSchedule":
        return cls(f"constant {lam}", rule=lambda two_k: float(lam))

    def as_family(self) -> GraphonFamily:
        return GraphonFamily.from_constant_rule(self.value, self.description)


@dataclass(frozen=True)
class MomentEntry:
    order: int
    value: float
    error: float
    provenance: str


@dataclass(frozen=True)
class MomentSeries:
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


def hankel_min_eigenvalue(series: MomentSeries) -> float:
    """Smallest eigenvalue of the Hankel matrix [beta_{i+j}], beta_0 = 1.

    A genuine moment sequence gives a positive semidefinite matrix; rounding
    and quadrature error can push the minimum slightly negative, so callers
    compare against a tolerance instead of zero.
    """
    top = max(series.orders())
    size = top // 2 + 1
    h = np.array([[series.moment(i + j) for j in range(size)] for i in range(size)])
    return float(np.linalg.eigvalsh(h)[0])


# -- constant schedules (exact) ---------------------------------------------

def moment_constant(schedule: CumulantSchedule, two_k: int) -> float:
    """Exact limit moment: sum over SS words of the block-size cumulant product."""
    return moment_graphon(schedule.as_family(), two_k).value


@dataclass(frozen=True)
class SparseMoment:
    """beta_{2k} of the sparse limit as a polynomial in the mean degree."""

    order: int
    coefficients: tuple[tuple[int, int], ...]  # (block count b, |SS_b|)
    value: float


def moment_sparse(lam: float, two_k: int) -> SparseMoment:
    """Sum of lam^b over SS words, grouped by block count b."""
    if lam < 0:
        raise ValidationError(f"mean degree must be nonnegative, got {lam}")
    if two_k % 2:
        return SparseMoment(two_k, (), 0.0)
    _require_even_order(two_k)
    coefficients = tuple(sorted(count_ss_by_blocks(two_k).items()))
    value = float(sum(c * lam**b for b, c in coefficients))
    return SparseMoment(two_k, coefficients, value)


# -- graphon families (tree integrals) --------------------------------------

def homomorphism_density(tree: ColoredTree, family: GraphonFamily,
                         config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralResult:
    """Integral over [0,1]^colors of the product of edge kernels of one tree.

    The kernel on the edge into color c has order twice the number of c-colored
    nodes; a missing family member makes the whole term zero.
    """
    factors: dict[int, Graphon] = {}
    parent: dict[int, int] = {}
    for (par, child), mult in tree.edge_multiplicities().items():
        kernel = family.g(2 * mult)
        if kernel is None:
            return IntegralResult(0.0, 0.0, "exact")
        factors[child] = kernel
        parent[child] = par
    return integrate_edge_product(factors, parent, len(factors) + 1, config)


def moment_graphon(family: GraphonFamily, two_k: int,
                   config: QuadratureConfig = DEFAULT_CONFIG) -> MomentEntry:
    """Sum of homomorphism densities over all colored trees of the given order.

    The members up to order two_k pick one node rule; on its nodes each member
    is a matrix and the color-class recursion sums every tree at once.
    """
    if two_k % 2:
        return MomentEntry(two_k, 0.0, 0.0, EXACT)
    _require_even_order(two_k)
    k = two_k // 2
    members = {t: family.g(2 * t) for t in range(1, k + 1)}
    members = {t: g for t, g in members.items() if g is not None}

    def evaluate(nodes: Nodes) -> float:
        kernels = {t: nodes.matrix(g) for t, g in members.items()}

        def edge(t: int, f: np.ndarray) -> Optional[np.ndarray]:
            kernel = kernels.get(t)
            return None if kernel is None else kernel @ (nodes.w * f)

        return float(np.sum(nodes.w * tree_sum(k, edge, np.ones_like(nodes.w))))

    result = integrate_on_nodes(evaluate, members.values(), config)
    provenance = EXACT if result.method == "exact" else QUADRATURE
    return MomentEntry(two_k, result.value, result.error, provenance)


# -- specializations ---------------------------------------------------------

def _coerce_family(source) -> GraphonFamily:
    if isinstance(source, GraphonFamily):
        return source
    if isinstance(source, CumulantSchedule):
        return source.as_family()
    raise ValidationError(f"expected a graphon family or cumulant schedule, got {type(source).__name__}")


def moment_band(source, alpha: float, periodic: bool, two_k: int,
                config: QuadratureConfig = DEFAULT_CONFIG) -> MomentEntry:
    """Moments after multiplying every kernel by a band indicator."""
    return moment_graphon(_coerce_family(source).banded(alpha, periodic), two_k, config)


def block_family(alphas: Sequence[float], cells_by_order: Mapping[int, object]) -> GraphonFamily:
    """Piecewise-constant family on the partition of [0,1] with the given masses."""
    alphas = np.asarray(list(alphas), dtype=float)
    if len(alphas) == 0 or np.any(alphas <= 0):
        raise ValidationError("block masses must be positive")
    if abs(alphas.sum() - 1.0) > 1e-12:
        raise ValidationError(f"block masses must sum to 1, got {alphas.sum()!r}")
    breaks = np.concatenate([[0.0], np.cumsum(alphas)])
    breaks[-1] = 1.0
    entries = {}
    for order, cells in cells_by_order.items():
        _require_even_order(int(order))
        entries[int(order)] = Graphon.from_grid(breaks, cells, label=f"block order {order}")
    return GraphonFamily(entries, description=f"{len(alphas)} blocks")


def moment_block(alphas: Sequence[float], cells_by_order: Mapping[int, object],
                 two_k: int, config: QuadratureConfig = DEFAULT_CONFIG) -> MomentEntry:
    """Exact moments for blockwise-constant kernels (no quadrature error)."""
    return moment_graphon(block_family(alphas, cells_by_order), two_k, config)


def profile_family(sigma, schedule: CumulantSchedule) -> GraphonFamily:
    """Family sigma(x,y)^(2k) * C_{2k} for a variance-profile ensemble."""
    profile = as_graphon(sigma)

    def make(order: int) -> Optional[Graphon]:
        c = schedule.value(order)
        return None if c == 0 else profile.power_scale(order, c)

    return GraphonFamily(rule=make, description=f"profile({profile.label}) x {schedule.description}")


def moment_variance_profile(sigma, schedule: CumulantSchedule, two_k: int,
                            config: QuadratureConfig = DEFAULT_CONFIG) -> MomentEntry:
    return moment_graphon(profile_family(sigma, schedule), two_k, config)


# -- series builders ---------------------------------------------------------

def constant_series(schedule: CumulantSchedule, two_k_max: int) -> MomentSeries:
    return graphon_series(schedule.as_family(), two_k_max)


def sparse_series(lam: float, two_k_max: int) -> MomentSeries:
    entries = tuple(MomentEntry(two_k, moment_sparse(lam, two_k).value, 0.0, EXACT)
                    for two_k in range(2, two_k_max + 1, 2))
    return MomentSeries(entries, f"sparse lambda={lam}")


def graphon_series(family: GraphonFamily, two_k_max: int,
                   config: QuadratureConfig = DEFAULT_CONFIG) -> MomentSeries:
    entries = tuple(moment_graphon(family, two_k, config)
                    for two_k in range(2, two_k_max + 1, 2))
    return MomentSeries(entries, family.description)


# -- Carleman diagnostics -----------------------------------------------------

def _bound_lookup(source) -> Callable[[int], float]:
    if isinstance(source, GraphonFamily):
        return source.bound
    if isinstance(source, CumulantSchedule):
        return lambda two_k: abs(source.value(two_k))
    if isinstance(source, Mapping):
        return lambda two_k: abs(float(source.get(two_k, 0.0)))
    if callable(source):
        return lambda two_k: abs(float(source(two_k)))
    raise ValidationError(f"cannot read moment bounds from {type(source).__name__}")


@dataclass(frozen=True)
class CarlemanReport:
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
    alpha_n = sum_j C(n-1, j-1) M_j alpha_{n-j}.
    """
    if big_k < 1:
        raise ValidationError(f"need at least one order, got K={big_k}")
    bound_of = _bound_lookup(source)
    by_size = [1.0]
    for n in range(1, 2 * big_k + 1):
        by_size.append(sum(math.comb(n - 1, j - 1) * bound_of(j) * by_size[n - j]
                           for j in range(2, n + 1, 2)))
    orders, alphas, terms, sums = [], [], [], []
    running = 0.0
    for k in range(1, big_k + 1):
        two_k = 2 * k
        alpha = by_size[two_k]
        term = math.inf if alpha == 0.0 else alpha ** (-1.0 / two_k)
        running += term
        orders.append(two_k)
        alphas.append(alpha)
        terms.append(term)
        sums.append(running)

    ss_terms = []
    for two_k in orders:
        alpha = moment_graphon(GraphonFamily.from_constant_rule(bound_of), two_k).value
        ss_terms.append(math.inf if alpha == 0.0 else alpha ** (-1.0 / two_k))

    slope, verdict = _trend(terms)
    return CarlemanReport(tuple(orders), tuple(alphas), tuple(terms), tuple(sums),
                          slope, verdict, tuple(ss_terms))


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
    ks = np.arange(1, len(terms) + 1, dtype=float)
    keep = ks >= len(terms) / 2.0
    if keep.sum() < 2:
        keep[-2:] = True
    logs = np.log(np.asarray(terms, dtype=float)[keep])
    slope = float(np.polyfit(np.log(ks[keep]), logs, 1)[0])
    if slope >= -0.75:
        return slope, "diverging-trend"
    if slope > -1.3:
        return slope, "inconclusive"
    return slope, "likely-fails"
