"""Samplers for the random-matrix ensembles whose limits the theory side computes.

Matrices are symmetric with independent entries on and above the diagonal.
Every entry is a deterministic function of (seed, i, j): row i of the upper
triangle comes from a counter-based Philox stream keyed by (seed, i), drawn in
one vectorized call, so results are identical regardless of evaluation order
or thread count.

Positions are mapped to the unit square via x = i/n, y = j/n with 1-based
indices, matching the convention used by the kernel-family limits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

import numpy as np

from .errors import CapacityError, ValidationError
from .expressions import compile_expression, expression_is_smooth
from .graphons import Graphon, GraphonFamily, as_graphon
from .moments import CumulantSchedule, profile_family

VARIANTS = (
    "gaussian_wigner",
    "triangular_twopoint",
    "sparse_homogeneous",
    "sparse_inhomogeneous",
    "heavy_tailed",
    "variance_profile",
    "band",
    "block",
)

#: root seed of the command line's sampling
DEFAULT_SEED = 112358

_BASE_VARIANTS = ("gaussian_wigner", "triangular_twopoint", "sparse_homogeneous")

# Stand-in for n -> infinity when taking numeric limits of n * p(x, y, n).
_LIMIT_N = 1.0e8

_PARAM_KEYS = {
    "gaussian_wigner": set(),
    "triangular_twopoint": {"atom", "rate"},
    "sparse_homogeneous": {"rate"},
    "sparse_inhomogeneous": {"prob"},
    "heavy_tailed": {"tail_index"},
    "variance_profile": {"profile", "base", "base_params"},
    "band": {"half_width", "periodic", "base", "base_params"},
    "block": {"masses", "scales"},
}


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one ensemble: variant, size, seed, parameters."""

    variant: str
    n: int
    seed: int
    params: Mapping = field(default_factory=dict)
    zero_diagonal: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.n}")
        unknown = set(self.params) - _PARAM_KEYS[self.variant]
        if unknown:
            raise ValidationError(f"{self.variant} does not take parameters {sorted(unknown)}")
        self._validate_params()

    def _validate_params(self):
        p = self.params
        if self.variant == "triangular_twopoint":
            atom, rate = self._require("atom"), self._require("rate")
            if atom <= 0 or rate <= 0:
                raise ValidationError("two-point model needs atom > 0 and rate > 0")
            if rate > self.n:
                raise ValidationError(f"rate {rate} exceeds n={self.n}; atom probability leaves [0,1]")
        elif self.variant == "sparse_homogeneous":
            rate = self._require("rate")
            if rate <= 0 or rate > self.n:
                raise ValidationError(f"mean degree must lie in (0, n], got {rate}")
        elif self.variant == "sparse_inhomogeneous":
            compile_expression(str(self._require("prob")), ("x", "y", "n"))
        elif self.variant == "heavy_tailed":
            a = self._require("tail_index")
            if not 0 < a < 2:
                raise ValidationError(f"tail index must lie in (0,2), got {a}")
        elif self.variant == "variance_profile":
            as_graphon(self._require("profile"))
            self.base_spec()
        elif self.variant == "band":
            a = self._require("half_width")
            if not 0 < a <= 0.5:
                raise ValidationError(f"band half-width must lie in (0, 1/2], got {a}")
            self.base_spec()
        elif self.variant == "block":
            masses = np.asarray(self._require("masses"), dtype=float)
            scales = np.asarray(self._require("scales"), dtype=float)
            if len(masses) == 0 or np.any(masses <= 0) or abs(masses.sum() - 1.0) > 1e-12:
                raise ValidationError("block masses must be positive and sum to 1")
            d = len(masses)
            if scales.shape != (d, d) or not np.allclose(scales, scales.T, atol=0, rtol=0):
                raise ValidationError(f"block scales must be a symmetric {d}x{d} matrix")

    def _require(self, key: str):
        if key not in self.params:
            raise ValidationError(f"{self.variant} requires parameter {key!r}")
        return self.params[key]

    def base_spec(self) -> "ModelSpec":
        """The wrapped ensemble of a profile or band model."""
        if self.variant not in ("variance_profile", "band"):
            raise ValidationError(f"{self.variant} has no base model")
        base = self.params.get("base", "gaussian_wigner")
        if base not in _BASE_VARIANTS:
            raise ValidationError(f"base model must be one of {_BASE_VARIANTS}, got {base!r}")
        return ModelSpec(base, self.n, self.seed, self.params.get("base_params", {}))

    def to_json_dict(self) -> dict:
        return {"variant": self.variant, "n": self.n, "seed": self.seed,
                "params": dict(self.params), "zero_diagonal": self.zero_diagonal}


@dataclass(frozen=True)
class SampledMatrix:
    """Dense symmetric draw plus the spec that produced it."""

    matrix: np.ndarray
    spec: ModelSpec
    truncated_at: Optional[float] = None

    @property
    def n(self) -> int:
        return self.spec.n


def _row_rng(seed: int, row: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(row)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _block_sizes(masses: np.ndarray, n: int) -> np.ndarray:
    """Integer block sizes by largest remainder, summing exactly to n."""
    raw = masses * n
    sizes = np.floor(raw).astype(int)
    short = n - sizes.sum()
    if short:
        order = np.argsort(-(raw - sizes), kind="stable")
        sizes[order[:short]] += 1
    return sizes


def _row_sampler(spec: ModelSpec):
    """Row function (rng, i) -> entries (i, j) for j = i .. n-1, one vectorized draw.

    Everything that does not depend on the row (compiled expressions,
    profiles, base models, block labels, band masks) is built once here.
    """
    n = spec.n
    p = spec.params
    ys = (np.arange(n) + 1.0) / n
    if spec.variant == "gaussian_wigner":
        return lambda rng, i: rng.standard_normal(n - i) / np.sqrt(n)
    if spec.variant == "triangular_twopoint":
        atom, atom_p = p["atom"], p["rate"] / (2.0 * n)

        def twopoint(rng, i):
            u = rng.random(n - i)
            return atom * ((u < atom_p).astype(float) - ((u >= atom_p) & (u < 2 * atom_p)))
        return twopoint
    if spec.variant == "sparse_homogeneous":
        rate_p = p["rate"] / n
        return lambda rng, i: (rng.random(n - i) < rate_p).astype(float)
    if spec.variant == "sparse_inhomogeneous":
        prob_fn = compile_expression(str(p["prob"]), ("x", "y", "n"))

        def inhomogeneous(rng, i):
            probs = np.broadcast_to(prob_fn((i + 1) / n, ys[i:], float(n)), (n - i,))
            if np.any(probs < 0) or np.any(probs > 1):
                raise ValidationError(
                    f"probability expression {p['prob']!r} leaves [0,1] at n={n}")
            return (rng.random(n - i) < probs).astype(float)
        return inhomogeneous
    if spec.variant == "heavy_tailed":
        exponent, scale = -1.0 / p["tail_index"], n ** (1.0 / p["tail_index"])

        def heavy(rng, i):
            magnitude = (1.0 - rng.random(n - i)) ** exponent / scale
            sign = np.where(rng.random(n - i) < 0.5, 1.0, -1.0)
            return sign * magnitude
        return heavy
    if spec.variant == "variance_profile":
        base = _row_sampler(spec.base_spec())
        profile = as_graphon(p["profile"])
        return lambda rng, i: base(rng, i) * profile.eval((i + 1) / n, ys[i:])
    if spec.variant == "band":
        base = _row_sampler(spec.base_spec())
        width = int(round(p["half_width"] * n))
        gap = np.arange(0, n)  # j - i along a row tail
        inside = gap <= width
        if p.get("periodic", False):
            # each row then holds 2*width + 1 in-band entries; the diagonal
            # is the +1 and biases beta_2 by exactly 1/n unless zeroed
            inside |= gap >= n - width
        return lambda rng, i: base(rng, i) * inside[:n - i]
    # block: gaussian entries scaled by the (block(i), block(j)) standard deviation
    sizes = _block_sizes(np.asarray(p["masses"], dtype=float), n)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    scales = np.asarray(p["scales"], dtype=float)
    return lambda rng, i: rng.standard_normal(n - i) / np.sqrt(n) * scales[labels[i], labels[i:]]


def sample(spec: ModelSpec) -> SampledMatrix:
    """Draw one symmetric matrix; deterministic in (spec, seed)."""
    n = spec.n
    row = _row_sampler(spec)
    upper = np.zeros((n, n))
    for i in range(n):
        upper[i, i:] = row(_row_rng(spec.seed, i), i)
    matrix = np.triu(upper) + np.triu(upper, 1).T
    if spec.zero_diagonal:
        np.fill_diagonal(matrix, 0.0)
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(f"sampled {spec.variant} matrix has non-finite entries")
    return SampledMatrix(matrix, spec)


def truncate(sampled: SampledMatrix, threshold: float) -> SampledMatrix:
    """Zero all entries with |x| > threshold; symmetry is preserved."""
    if threshold < 0:
        raise ValidationError(f"truncation threshold must be >= 0, got {threshold}")
    kept = np.where(np.abs(sampled.matrix) <= threshold, sampled.matrix, 0.0)
    return SampledMatrix(kept, sampled.spec, truncated_at=threshold)


# -- analytic entry moments ---------------------------------------------------

def _double_factorial_odd(two_k: int) -> float:
    return float(np.prod(np.arange(1, two_k, 2, dtype=np.float64))) if two_k > 1 else 1.0


def effective_cumulants(spec: ModelSpec, at_n: Optional[int] = None,
                        truncation: Optional[float] = None):
    """Analytic n*E[entry^(2k)] per variant, as a schedule or kernel family.

    ``at_n=None`` returns the n -> infinity limit object; an integer gives the
    exact finite-n profile. Heavy tails need a ``truncation`` level B (entries
    beyond B times the natural scale dropped), otherwise moments diverge.
    """
    p = spec.params
    if spec.variant == "gaussian_wigner":
        if at_n is None:
            return CumulantSchedule.semicircle()
        return CumulantSchedule(
            f"gaussian at n={at_n}",
            rule=lambda two_k, n=float(at_n): n ** (1 - two_k // 2) * _double_factorial_odd(two_k))
    if spec.variant == "triangular_twopoint":
        atom, rate = p["atom"], p["rate"]
        return CumulantSchedule(f"two-point atom={atom} rate={rate}",
                                rule=lambda two_k: rate * atom**two_k)
    if spec.variant == "sparse_homogeneous":
        return CumulantSchedule.constant(p["rate"])
    if spec.variant == "sparse_inhomogeneous":
        prob_fn = compile_expression(str(p["prob"]), ("x", "y", "n"))
        n_eval = _LIMIT_N if at_n is None else float(at_n)
        kernel = Graphon.from_callable(
            lambda x, y: n_eval * prob_fn(x, y, n_eval),
            smooth=expression_is_smooth(str(p["prob"])),
            label=f"{n_eval:g} * ({p['prob']})")
        return GraphonFamily(rule=lambda order: kernel,
                             description=f"sparse profile {p['prob']!r}")
    if spec.variant == "heavy_tailed":
        if truncation is None:
            raise ValidationError(
                "heavy-tailed moments diverge; pass a truncation level")
        alpha, b = p["tail_index"], float(truncation)

        def heavy(two_k: int) -> float:
            tail = 0.0 if at_n is None else float(at_n) ** (1.0 - two_k / alpha)
            return alpha / (two_k - alpha) * (b ** (two_k - alpha) - tail)

        return CumulantSchedule(f"heavy tail alpha={alpha} B={b}", rule=heavy)
    if spec.variant == "variance_profile":
        base = effective_cumulants(spec.base_spec(), at_n=at_n)
        return profile_family(spec.params["profile"], base)
    if spec.variant == "band":
        base = effective_cumulants(spec.base_spec(), at_n=at_n)
        if isinstance(base, CumulantSchedule):
            base = base.as_family()
        return base.banded(p["half_width"], bool(p.get("periodic", False)))
    scales = np.asarray(p["scales"], dtype=float)
    masses = list(np.asarray(p["masses"], dtype=float))
    breaks = np.concatenate([[0.0], np.cumsum(masses)])
    breaks[-1] = 1.0
    return GraphonFamily({2: Graphon.from_grid(breaks, scales**2, label="block variances")},
                         description="block gaussian")


# -- matrix files --------------------------------------------------------------

_MAGIC = b"ESDM"
_CSV_LIMIT = 200


def write_matrix(sampled: SampledMatrix, path: str) -> None:
    """Binary row-major float64 with a (n, variant, seed) header."""
    tag = sampled.spec.variant.encode()[:24].ljust(24, b"\0")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQQ", 1, sampled.n, sampled.spec.seed & 0xFFFFFFFFFFFFFFFF))
        fh.write(tag)
        np.ascontiguousarray(sampled.matrix, dtype=np.float64).tofile(fh)


def read_matrix(path: str) -> tuple[np.ndarray, dict]:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValidationError(f"{path} is not a matrix file")
        version, n, seed = struct.unpack("<IQQ", fh.read(20))
        if version != 1:
            raise ValidationError(f"unsupported matrix file version {version}")
        tag = fh.read(24).rstrip(b"\0").decode()
        matrix = np.fromfile(fh, dtype=np.float64, count=n * n).reshape(n, n)
    return matrix, {"n": n, "seed": seed, "variant": tag}


def write_matrix_csv(sampled: SampledMatrix, path: str) -> None:
    if sampled.n > _CSV_LIMIT:
        raise CapacityError(f"CSV export capped at n={_CSV_LIMIT}, got {sampled.n}")
    np.savetxt(path, sampled.matrix, delimiter=",")


def with_seed(spec: ModelSpec, seed: int) -> ModelSpec:
    return replace(spec, seed=seed)
