"""Eigenvalue statistics: spectra, moments, histograms, and the d2 metric.

Simulation has one replicate pipeline: replicate_esds derives a child seed per
replicate, samples it once and solves it once (the budget counts one n^3
eigensolve each), and every simulated moment is mean(eigenvalues**k) of those
spectra. empirical_moments computes the same moments independently from traces
of matrix powers (tr(M^(a+b)) = sum(M^a * M^b), so only half the powers are
formed); the tests use it to cross-check the eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, NumericError, ValidationError
from .models import ModelSpec, SampledMatrix, sample, with_seed
from .moments import MomentEntry, MomentSeries

SIMULATION = "monte-carlo-simulation"

# replicates * n^3 flop-scale guard for replicate_esds (one eigensolve per replicate)
DEFAULT_EESD_BUDGET = 4.0e12


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
    return matrix, {"variant": "raw"}


def eigenvalues(m) -> ESD:
    """Full spectrum of a symmetric matrix, ascending."""
    matrix, meta = _as_matrix(m)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"need a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise NumericError("matrix has non-finite entries")
    return ESD(np.linalg.eigvalsh(matrix), meta)


def residual_check(matrix: np.ndarray, pairs: int = 10, seed: int = 0) -> float:
    """Max ||Av - lambda v|| / ||A|| over randomly chosen eigenpairs."""
    matrix = np.asarray(matrix, dtype=float)
    values, vectors = np.linalg.eigh(matrix)
    scale = np.linalg.norm(matrix, 2) or 1.0
    picks = np.random.default_rng(seed).choice(len(values), size=min(pairs, len(values)),
                                               replace=False)
    worst = 0.0
    for i in picks:
        worst = max(worst, np.linalg.norm(matrix @ vectors[:, i] - values[i] * vectors[:, i]))
    return float(worst / scale)


def require_moment_order(k: int) -> None:
    """Reject a moment order below 1; callers check before sampling anything."""
    if k < 1:
        raise ValidationError(f"moment order must be >= 1, got {k}")


def empirical_moment(m, k: int) -> float:
    """(1/n) tr(M^k) by repeated multiplication (no eigendecomposition)."""
    require_moment_order(k)
    return empirical_moments(m, k)[k - 1]


def empirical_moments(m, k_max: int) -> list[float]:
    """(1/n) tr(M^k) for k = 1..k_max, via half powers."""
    matrix, _ = _as_matrix(m)
    require_moment_order(k_max)
    n = matrix.shape[0]
    powers = {1: matrix}
    for a in range(2, (k_max + 2) // 2 + 1):
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


def replicate_esds(spec: ModelSpec, replicates: int, seed: Optional[int] = None,
                   budget: float = DEFAULT_EESD_BUDGET) -> list[ESD]:
    """Spectra of independent replicates, each sampled once and solved once.

    Replicates get independent derived seeds; with seed=None the spec's own
    seed is the root, so the call is reproducible either way.
    """
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    cost = replicates * float(spec.n) ** 3
    if cost > budget:
        raise CapacityError(
            f"estimated cost {cost:.2g} exceeds budget {budget:.2g}; "
            "lower n or replicates, or raise the budget")
    root = spec.seed if seed is None else seed
    child_seeds = np.random.SeedSequence(root).generate_state(replicates, dtype=np.uint64)
    return [eigenvalues(sample(with_seed(spec, int(s)))) for s in child_seeds]


def spectral_moments(esds: Sequence[ESD], k_max: int, description: str = "") -> MomentSeries:
    """Replicate means of mean(eigenvalues**k), k = 1..k_max, with standard errors.

    One replicate has no standard error; its errors are NaN.
    """
    require_moment_order(k_max)
    table = np.array([[e.moment(k) for k in range(1, k_max + 1)] for e in esds])
    means = table.mean(axis=0)
    errors = (table.std(axis=0, ddof=1) / np.sqrt(len(esds)) if len(esds) > 1
              else np.full(k_max, np.nan))
    entries = tuple(MomentEntry(k, float(means[k - 1]), float(errors[k - 1]), SIMULATION)
                    for k in range(1, k_max + 1))
    return MomentSeries(entries, description)


def eesd_moments(spec: ModelSpec, k_max: int, replicates: int,
                 seed: Optional[int] = None,
                 budget: float = DEFAULT_EESD_BUDGET) -> MomentSeries:
    """Replicate means and standard errors of the spectral moments, k = 1..k_max."""
    if replicates < 2:
        raise ValidationError("need at least 2 replicates for a standard error")
    require_moment_order(k_max)
    return spectral_moments(replicate_esds(spec, replicates, seed, budget), k_max,
                            f"eesd {spec.variant} n={spec.n} reps={replicates}")
