"""Eigenvalue statistics: spectra, moments, histograms, and the d2 metric.

Simulation has one replicate loop: each replicate gets a child seed, is
sampled once and truncated if asked, and is measured once (the budget counts
one n^3 eigensolve each, an upper bound). replicate_esds measures spectra,
and simulate's moments are mean(eigenvalues**k) of them. eesd_moments, the
moments compare reads, needs no spectrum: moment_row sums a sparse draw's
closed walks over its nonzeros (_walk_moments), exactly for integer entries,
and gives a dense draw the eigenvalue means. eigenvalues runs one eigensolve
per connected component of the graph whose edges are the matrix's nonzero
pairs, labelled by component_labels over those pairs: a matrix with several
components is block-diagonal up to a permutation, and its spectrum is the
union of the blocks' spectra, so a sparse draw solves a few smaller blocks
while a connected one goes to a single full solve. empirical_moments
computes the same moments from traces of dense matrix powers
(tr(M^(a+b)) = sum(M^a * M^b), so only half the powers are formed); the tests
use it to cross-check the other two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TypeVar

import numpy as np

from .defaults import DEFAULT_EESD_BUDGET
from .errors import CapacityError, NumericError, ValidationError
from .models import ModelSpec, SampledMatrix, sample, truncate, with_seed
from .moments import MomentEntry, MomentSeries

SIMULATION = "monte-carlo-simulation"
T = TypeVar("T")

# A draw with more than n^2 / _SPARSE_SHARE nonzeros is dense and goes to the
# eigensolver. A walk join may hold max(n^2 / _SPARSE_SHARE, _MIN_JOIN) entries,
# a bound each join is checked against at its own size before it is built.
# At about 85 bytes of peak memory per entry (sparse_homogeneous, n = 1000),
# a join at that bound takes 1.3 n x n matrices, near the eigvalsh working copy
# it replaces (1.1 matrices), or under 6 MB when n is small.
_SPARSE_SHARE = 8
_MIN_JOIN = 1 << 16


@dataclass(frozen=True)
class ESD:
    """Sorted spectrum of one matrix, with where-it-came-from metadata."""

    eigenvalues: np.ndarray
    source: dict

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def moment(self, k: int) -> float:
        return float(np.mean(self.eigenvalues**k))


def _as_matrix(m) -> tuple[np.ndarray, dict]:
    if isinstance(m, SampledMatrix):
        meta = m.spec.to_json_dict()
        if m.truncated_at is not None:
            meta["truncated_at"] = m.truncated_at
        return m.matrix, meta
    matrix = np.asarray(m, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"need a square matrix, got shape {matrix.shape}")
    return matrix, {"variant": "raw"}


def component_labels(matrix: np.ndarray) -> np.ndarray:
    """Label each index by the smallest index of its connected component.

    Two indices are linked when the entry between them is nonzero in either
    triangle, so the graph's edges are the matrix's nonzero pairs, read in
    both directions. Min-label propagation with pointer jumping: each round
    every index takes the smallest label over its edges and its own, every
    root adopts the smallest label its members saw, and labels jump to their
    roots. The rounds stop when no index sees a label smaller than its own,
    or when every label is 0. When row 0 or column 0 links index 0 to every
    other index, as in a dense draw, the labels are all 0 without a round.
    """
    if len(matrix) == 0 or ((matrix[0, 1:] != 0) | (matrix[1:, 0] != 0)).all():
        return np.zeros(len(matrix), dtype=int)
    rows, cols = np.nonzero(matrix != 0)
    heads, tails = np.concatenate((rows, cols)), np.concatenate((cols, rows))
    labels = np.arange(len(matrix))
    while labels.any():
        seen = labels.copy()
        np.minimum.at(seen, heads, labels[tails])
        if np.array_equal(seen, labels):
            break
        np.minimum.at(labels, labels.copy(), seen)
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    return labels


def eigenvalues(m) -> ESD:
    """Full spectrum of a symmetric matrix, ascending, one solve per connected component.

    A connected matrix goes whole to one eigvalsh call. Otherwise each
    component's principal submatrix is solved, components of equal size in
    one stacked call, and the union of their spectra is sorted.
    """
    matrix, meta = _as_matrix(m)
    if not np.all(np.isfinite(matrix)):
        raise NumericError("matrix has non-finite entries")
    labels = component_labels(matrix)
    if not labels.any():
        return ESD(np.linalg.eigvalsh(matrix), meta)
    # components contiguous and members ascending, so each block's lower triangle,
    # the part eigvalsh reads, holds entries of the matrix's lower triangle
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)[labels[order]]
    parts = []
    for size in np.unique(sizes):
        members = order[sizes == size].reshape(-1, size)
        blocks = matrix[members[:, :, None], members[:, None, :]]
        parts.append(np.linalg.eigvalsh(blocks).ravel())
    return ESD(np.sort(np.concatenate(parts)), meta)


def require_moment_order(k: int) -> None:
    """Reject a moment order below 1; callers check before sampling anything."""
    if k < 1:
        raise ValidationError(f"moment order must be >= 1, got {k}")


def empirical_moments(m, k_max: int) -> list[float]:
    """(1/n) tr(M^k) for k = 1..k_max, via half powers."""
    matrix, _ = _as_matrix(m)
    require_moment_order(k_max)
    n = matrix.shape[0]
    powers = {1: matrix}
    for a in range(2, (k_max + 1) // 2 + 1):
        powers[a] = powers[a - 1] @ matrix
    out = []
    for k in range(1, k_max + 1):
        a, b = k // 2, (k + 1) // 2
        if a == 0:
            value = np.trace(matrix)
        else:
            value = np.sum(powers[a] * powers[b])
        if not np.isfinite(value):
            raise NumericError(f"trace power overflowed at k={k}")
        out.append(float(value / n))
    return out


def moment_row(m, k_max: int) -> list[float]:
    """(1/n) tr(M^k), k = 1..k_max, of one symmetric replicate: by walks when M is sparse.

    A matrix with more than n^2/8 nonzeros, or with a walk join of more than
    max(n^2/8, 2^16) entries (_walk_moments), gets mean(eigenvalues**k)
    instead, bit for bit the row spectral_moments reads from its spectrum.
    """
    matrix, _ = _as_matrix(m)
    require_moment_order(k_max)
    n = len(matrix)
    nonzero = matrix != 0
    row = (_walk_moments(matrix, k_max, nonzero)
           if np.count_nonzero(nonzero) <= n * n // _SPARSE_SHARE else None)
    if row is not None:
        return row
    esd = eigenvalues(m)
    return [esd.moment(k) for k in range(1, k_max + 1)]


@np.errstate(over="ignore", invalid="ignore")  # an overflow raises NumericError below
def _walk_moments(matrix: np.ndarray, k_max: int,
                  nonzero: Optional[np.ndarray] = None) -> Optional[list[float]]:
    """(1/n) tr(W^k) for k = 1..k_max of a symmetric W, summed over closed walks on its nonzeros.

    The nonzeros (of ``nonzero``, the mask W != 0 if the caller has made it)
    are sorted flat keys i*n + j with a CSR row pointer. W^a,
    a <= ceil(k_max/2), joins each entry (i, m) of W^(a-1) with row m of W;
    equal keys merge by np.unique and bincount, and merged zeros are dropped.
    tr(W^k) is the sum of W^floor(k/2) * W^ceil(k/2) over common keys (W^0
    the identity), which needs W symmetric. Integer entries thus give exact
    sums (below 2^53), divided once by n.

    The join forming W^a holds one entry per key (i, m) of W^(a-1) and nonzero
    of row m, a size read from the degrees before the join is built. Each join
    is checked at its own size: at the first that passes max(n^2/8, 2^16) the
    sum returns None, so no larger join is ever made.

    The 3-cycle has tr(A^k) = 2^k + 2(-1)^k:

    >>> cycle = np.ones((3, 3)) - np.eye(3)
    >>> _walk_moments(cycle, 6)
    [0.0, 2.0, 2.0, 6.0, 10.0, 22.0]
    """
    n = len(matrix)
    flat = np.flatnonzero(matrix != 0 if nonzero is None else nonzero)  # faster than np.nonzero
    rows, cols = np.divmod(flat, n)
    values = np.take(matrix, flat)
    if not np.all(np.isfinite(values)):
        raise NumericError("matrix has non-finite entries")
    row_start = np.searchsorted(rows, np.arange(n + 1))
    degree = np.diff(row_start)
    limit = max(n * n // _SPARSE_SHARE, _MIN_JOIN)
    powers = [(np.arange(n) * (n + 1), np.ones(n)), (flat, values)]
    for _ in range(2, (k_max + 1) // 2 + 1):
        keys, weights = powers[-1]
        mid = keys % n
        counts = degree[mid]
        total = int(counts.sum())
        if total > limit:
            return None
        # entry e of the power meets the nonzeros row_start[mid[e]] onwards of row mid[e]
        src = np.repeat(np.arange(len(keys)), counts)
        at = np.arange(total) - np.repeat(np.cumsum(counts) - counts - row_start[mid], counts)
        joined = (keys - mid)[src] + cols[at]
        products = weights[src] * values[at]
        del src, at
        keys, where = np.unique(joined, return_inverse=True)
        del joined
        weights = np.bincount(where, weights=products, minlength=len(keys))
        del where, products
        kept = weights != 0
        powers.append((keys[kept], weights[kept]))
    out = []
    for k in range(1, k_max + 1):
        (keys_a, weights_a), (keys_b, weights_b) = powers[k // 2], powers[(k + 1) // 2]
        _, at_a, at_b = np.intersect1d(keys_a, keys_b, assume_unique=True, return_indices=True)
        value = np.dot(weights_a[at_a], weights_b[at_b])
        if not np.isfinite(value):
            raise NumericError(f"walk sum overflowed at k={k}")
        out.append(float(value / n))
    return out


def wasserstein2(e1: ESD, e2: ESD) -> float:
    """Quadratic coupling distance between two empirical spectra.

    Equal sizes reduce to the root mean square gap of sorted lists; unequal
    sizes use the exact integral of the quantile-function difference, which
    is piecewise constant on the merged grid {i/n} union {j/m}.
    """
    a, b = e1.eigenvalues, e2.eigenvalues
    if len(a) == 0 or len(b) == 0:
        raise ValidationError("cannot compare an empty spectrum")
    if len(a) == len(b):
        return float(np.sqrt(np.mean((a - b) ** 2)))
    grid = np.union1d(np.arange(1, len(a) + 1) / len(a), np.arange(1, len(b) + 1) / len(b))
    widths = np.diff(np.concatenate([[0.0], grid]))
    mids = grid - widths / 2
    qa = a[np.minimum((mids * len(a)).astype(int), len(a) - 1)]
    qb = b[np.minimum((mids * len(b)).astype(int), len(b) - 1)]
    return float(np.sqrt(np.sum(widths * (qa - qb) ** 2)))


@dataclass(frozen=True)
class Histogram:
    """Density-normalized eigenvalue histogram."""

    edges: np.ndarray
    counts: np.ndarray

    @property
    def density(self) -> np.ndarray:
        total = self.counts.sum()
        return self.counts / (total * np.diff(self.edges))

    def to_csv_rows(self) -> list[list]:
        rows = [["bin_left", "bin_right", "density"]]
        dens = self.density
        for i in range(len(self.counts)):
            rows.append([repr(float(self.edges[i])), repr(float(self.edges[i + 1])),
                         repr(float(dens[i]))])
        return rows

    def to_json_dict(self) -> dict:
        return {"edges": [float(v) for v in self.edges],
                "counts": [int(c) for c in self.counts],
                "density": [float(d) for d in self.density]}


def histogram(e: ESD, bins: Optional[int] = None) -> Histogram:
    """Histogram with Freedman-Diaconis width unless a bin count is given."""
    values = e.eigenvalues
    if len(values) == 0:
        raise ValidationError("cannot histogram an empty spectrum")
    lo, hi = float(values[0]), float(values[-1])
    if lo == hi:
        edges = np.array([lo - 0.5, hi + 0.5])
    elif bins is not None:
        if bins < 1:
            raise ValidationError(f"need at least one bin, got {bins}")
        edges = np.linspace(lo, hi, bins + 1)
    else:
        edges = np.histogram_bin_edges(values, bins="fd")
    counts, edges = np.histogram(values, bins=edges)
    return Histogram(edges, counts)


def semicircle_density(x, variance: float = 1.0) -> np.ndarray:
    """Density of the semicircle law with the given variance (radius 2*sqrt(v))."""
    if variance <= 0:
        raise ValidationError(f"variance must be positive, got {variance}")
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.maximum(4 * variance - x**2, 0.0)) / (2 * np.pi * variance)


def _each_replicate(spec: ModelSpec, replicates: int, budget: float,
                    truncation: Optional[float], measure: Callable[[SampledMatrix], T]) -> list[T]:
    """measure(draw) for each replicate's draw, in order; seeds and truncation as in
    eesd_moments. The budget counts one n^3 eigensolve per replicate."""
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    cost = replicates * float(spec.n) ** 3
    if cost > budget:
        raise CapacityError(
            f"estimated cost {cost:.2g} exceeds budget {budget:.2g}; "
            "lower n or replicates, or raise the budget")
    child_seeds = np.random.SeedSequence(spec.seed).generate_state(replicates, dtype=np.uint64)
    out = []
    for child in child_seeds:
        sampled = sample(with_seed(spec, int(child)))
        if truncation is not None:
            sampled = truncate(sampled, truncation)
        out.append(measure(sampled))
        del sampled  # so the next draw is made with no matrix held
    return out


def _moment_series(rows: Sequence[Sequence[float]], description: str) -> MomentSeries:
    """Means over replicate rows of moments k = 1, 2, ..., with standard errors.

    One replicate has no standard error; its errors are NaN.
    """
    table = np.array(rows)
    means = table.mean(axis=0)
    errors = (table.std(axis=0, ddof=1) / np.sqrt(len(table)) if len(table) > 1
              else np.full(len(means), np.nan))
    entries = tuple(MomentEntry(k, float(means[k - 1]), float(errors[k - 1]), SIMULATION)
                    for k in range(1, len(means) + 1))
    return MomentSeries(entries, description)


def replicate_esds(spec: ModelSpec, replicates: int,
                   budget: float = DEFAULT_EESD_BUDGET) -> list[ESD]:
    """Spectra of independent replicates, each sampled once and solved once.

    Seeds as in eesd_moments.
    """
    return _each_replicate(spec, replicates, budget, None, eigenvalues)


def spectral_moments(esds: Sequence[ESD], k_max: int, description: str = "") -> MomentSeries:
    """Replicate means of mean(eigenvalues**k), k = 1..k_max, with standard errors.

    One replicate has no standard error; its errors are NaN.
    """
    require_moment_order(k_max)
    return _moment_series([[e.moment(k) for k in range(1, k_max + 1)] for e in esds],
                          description)


def eesd_moments(spec: ModelSpec, k_max: int, replicates: int,
                 budget: float = DEFAULT_EESD_BUDGET,
                 truncation: Optional[float] = None) -> MomentSeries:
    """Replicate means and standard errors of (1/n) tr(M^k), k = 1..k_max.

    Each replicate's row is moment_row of its draw. Replicates get independent
    seeds derived from the spec's own seed, so the call is reproducible; pass
    ``with_seed(spec, s)`` for another root. A truncation level B zeroes every
    entry with |x| > B (models.truncate) before the row is taken.
    """
    if replicates < 2:
        raise ValidationError("need at least 2 replicates for a standard error")
    require_moment_order(k_max)
    rows = _each_replicate(spec, replicates, budget, truncation,
                           lambda draw: moment_row(draw, k_max))
    return _moment_series(rows, f"eesd {spec.variant} n={spec.n} reps={replicates}")
