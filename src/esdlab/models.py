"""Samplers for the random-matrix ensembles whose limits the theory side computes.

A draw is a plain symmetric float64 array, independent on and above the diagonal.
Every entry is a deterministic function of (seed, i, j): row i of the upper
triangle comes from the counter-based Philox stream keyed by (seed, i), drawn
in one vectorized call, so results are identical regardless of evaluation order
or thread count. A sample builds one Philox generator and re-keys it to
(seed, i) at counter 0 before each row, which gives the same stream as a
generator built afresh for that key.

Positions are mapped to the unit square via x = i/n, y = j/n with 1-based
indices, matching the convention used by the kernel-family limits.

Specs and flat entry moments need no arrays: numpy is imported by the sampler
(:func:`sample`, :func:`_row_sampler`, :func:`_row_rngs`) and :func:`truncate`.
:mod:`esdlab.expressions` loads only to read a ``sparse_inhomogeneous`` prob,
once per spec check, sample or cumulant family (a profile is read by graphons).
"""

from __future__ import annotations

import math
import numbers
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

from .defaults import DEFAULT_SEED  # noqa: F401  (re-exported as models.DEFAULT_SEED)
from .errors import ValidationError
from .graphons import (CHECK_GRID, CumulantSchedule, Graphon, GraphonFamily, as_graphon,
                       block_family, profile_family, require_flag, require_keys, require_number)

_BASE_VARIANTS = ("gaussian_wigner", "triangular_twopoint", "sparse_homogeneous")

# Stand-in for n -> infinity when taking numeric limits of n * p(x, y, n) that
# is not a polynomial, and only where n * p has settled there (it agrees with
# n = _LIMIT_N**2 to 1e-12); polynomials in (x, y, 1/n) take the exact limit.
_LIMIT_N = 1.0e8

#: each variant's params: (required, optional)
_PARAM_KEYS = {
    "gaussian_wigner": ((), ()),
    "triangular_twopoint": (("atom", "rate"), ()),
    "sparse_homogeneous": (("rate",), ()),
    "sparse_inhomogeneous": (("prob",), ()),
    "heavy_tailed": (("tail_index",), ()),
    "variance_profile": (("profile",), ("base", "base_params")),
    "band": (("half_width",), ("periodic", "base", "base_params")),
    "block": (("masses", "scales"), ()),
}
VARIANTS = tuple(_PARAM_KEYS)


class _SpecFields(NamedTuple):
    variant: str
    n: int
    seed: int
    params: Mapping = MappingProxyType({})  # read-only, so one default serves every spec
    zero_diagonal: bool = False


class ModelSpec(_SpecFields):
    """Declarative description of one ensemble: variant, size, seed, parameters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    def _validate(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}; pick one of {VARIANTS}")
        for key in ("n", "seed"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"model {key} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.n}")
        require_flag(self.zero_diagonal, "zero_diagonal")
        require_keys(self.params, f"{self.variant} params", *_PARAM_KEYS[self.variant])
        self._validate_params()

    def _validate_params(self):
        p = self.params

        def number(key: str) -> float:
            return require_number(p[key], f"{self.variant} parameter {key!r}")

        if self.variant == "triangular_twopoint":
            atom, rate = number("atom"), number("rate")
            if atom <= 0 or rate <= 0:
                raise ValidationError("two-point model needs atom > 0 and rate > 0")
            if rate > self.n:
                raise ValidationError(f"rate {rate} exceeds n={self.n}; atom probability leaves [0,1]")
        elif self.variant == "sparse_homogeneous":
            rate = number("rate")
            if rate <= 0 or rate > self.n:
                raise ValidationError(f"mean degree must lie in (0, n], got {rate}")
        elif self.variant == "sparse_inhomogeneous":
            from .expressions import compile_expression
            compile_expression(str(p["prob"]), ("x", "y", "n"))
        elif self.variant == "heavy_tailed":
            a = number("tail_index")
            if not 0 < a < 2:
                raise ValidationError(f"tail index must lie in (0,2), got {a}")
        elif self.variant == "variance_profile":
            as_graphon(p["profile"])
            self.base_spec()
        elif self.variant == "band":
            a = number("half_width")
            if not 0 < a <= 0.5:
                raise ValidationError(f"band half-width must lie in (0, 1/2], got {a}")
            require_flag(p.get("periodic", False), "band parameter 'periodic'")
            self.base_spec()
        elif self.variant == "block":
            block_family(p["masses"], {2: p["scales"]})

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


def _row_rngs(seed: int, rows: Iterable[int]) -> Iterator[np.random.Generator]:
    """For each row, one Generator set to the Philox stream keyed by (seed, row).

    The same Generator is yielded every time: its bit generator is re-keyed at
    counter 0 with an empty buffer, so draws made from one row's stream must be
    finished before the next row is requested.
    """
    import numpy as np
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bits = np.random.Philox(key=key)
    rng = np.random.Generator(bits)
    state = bits.state  # a fresh stream: counter 0, nothing buffered
    for row in rows:
        state["state"]["key"][1] = row
        bits.state = state
        yield rng


def _row_sampler(spec: ModelSpec):
    """Row function (rng, i) -> entries (i, j) for j = i .. n-1, one vectorized draw.

    Everything that does not depend on the row (compiled expressions,
    profiles, base models, block labels, band masks) is built once here.
    """
    import numpy as np
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
        from .expressions import compile_expression
        prob_fn = compile_expression(str(p["prob"]), ("x", "y", "n"))

        def inhomogeneous(rng, i):
            probs = np.broadcast_to(prob_fn((i + 1) / n, ys[i:], float(n)), (n - i,))
            if not np.all((probs >= 0) & (probs <= 1)):  # NaN fails both
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
    # block: gaussian entries scaled by the (block(i), block(j)) standard deviation;
    # integer block sizes by largest remainder, summing exactly to n
    raw = np.asarray(p["masses"], dtype=float) * n
    sizes = np.floor(raw).astype(int)
    short = n - sizes.sum()
    if short:
        order = np.argsort(-(raw - sizes), kind="stable")
        sizes[order[:short]] += 1
    labels = np.repeat(np.arange(len(sizes)), sizes)
    scales = np.asarray(p["scales"], dtype=float)
    return lambda rng, i: rng.standard_normal(n - i) / np.sqrt(n) * scales[labels[i], labels[i:]]


def sample(spec: ModelSpec) -> np.ndarray:
    """Draw one dense symmetric float64 matrix; deterministic in (spec, seed)."""
    import numpy as np
    n = spec.n
    row = _row_sampler(spec)
    matrix = np.zeros((n, n))
    # numpy warns nothing here: a NaN or infinite entry is refused by one error, from
    # the row's own check or the finiteness check below
    with np.errstate(all="ignore"):
        for i, rng in enumerate(_row_rngs(spec.seed, range(n))):
            # each row tail is also its column, so one n x n array is ever held; + 0.0
            # stores a -0.0 entry (a negative draw times a zero mask or profile) as 0.0
            matrix[i, i:] = matrix[i:, i] = row(rng, i) + 0.0
    if spec.zero_diagonal:
        np.fill_diagonal(matrix, 0.0)
    if not np.all(np.isfinite(matrix)):
        raise ValidationError(f"sampled {spec.variant} matrix has non-finite entries")
    return matrix


def truncate(matrix: np.ndarray, threshold: float) -> np.ndarray:
    """Zero all entries with |x| > threshold; symmetry is preserved."""
    import numpy as np
    if threshold < 0:
        raise ValidationError(f"truncation threshold must be >= 0, got {threshold}")
    return np.where(np.abs(matrix) <= threshold, matrix, 0.0)


# -- analytic entry moments ---------------------------------------------------

def _double_factorial_odd(two_k: int) -> float:
    return math.prod((float(i) for i in range(1, two_k, 2)), start=1.0)


def effective_cumulants(spec: ModelSpec, at_n: Optional[int] = None,
                        truncation: Optional[float] = None):
    """Analytic n*E[entry^(2k)] per variant, as a kernel family.

    Flat variants give a CumulantSchedule, the family of constants.
    ``at_n=None`` returns the n -> infinity limit object; an integer gives the
    exact finite-n profile. The limit of a ``sparse_inhomogeneous`` prob that
    is a polynomial in (x, y, 1/n) is exact, and one whose n * prob grows with
    n raises ValidationError; any other prob is evaluated at n = _LIMIT_N, and
    raises ValidationError unless n * prob has settled there.
    Heavy tails need a ``truncation`` level B >= 0 (entries beyond B times the
    natural scale dropped), otherwise moments diverge; any other variant given
    a ``truncation`` raises ValidationError, since its moments here would
    ignore it.
    """
    p = spec.params
    if truncation is not None and spec.variant != "heavy_tailed":
        raise ValidationError(f"truncation applies only to heavy_tailed, not {spec.variant}")
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
        from .expressions import compile_expression
        prob_fn = compile_expression(str(p["prob"]), ("x", "y", "n"))
        if at_n is None and prob_fn.form is not None:
            kernel = Graphon.from_form(_limit_of_n_times(prob_fn.form, p["prob"]),
                                       label=f"lim n * ({p['prob']})")
        else:
            n_eval = _LIMIT_N if at_n is None else float(at_n)
            if at_n is None:  # n * prob must have settled: as at n = _LIMIT_N**2 on the check grid
                import numpy as np
                grid = np.asarray(CHECK_GRID)
                with np.errstate(all="ignore"):  # a value that is not finite fails the kernel check
                    near, far = (n * np.asarray(prob_fn(grid[:, None], grid, n), dtype=float)
                                 for n in (_LIMIT_N, _LIMIT_N**2))
                    settled = not np.max(np.abs(near - far)) > 1e-12 * np.max(np.abs(near))
                if not settled:
                    raise ValidationError(f"n * prob has not settled at n = {_LIMIT_N:g} for prob "
                                          f"{p['prob']!r}; give prob as a polynomial in x, y and 1/n")
            kernel = Graphon.from_callable(lambda x, y: n_eval * prob_fn(x, y, n_eval),
                                           smooth=prob_fn.smooth,
                                           label=f"{n_eval:g} * ({p['prob']})")
        return GraphonFamily(rule=lambda order: kernel,
                             description=f"sparse profile {p['prob']!r}")
    if spec.variant == "heavy_tailed":
        if truncation is None:
            raise ValidationError(
                "heavy-tailed moments diverge; pass a truncation level")
        if truncation < 0:
            raise ValidationError(f"truncation threshold must be >= 0, got {truncation}")
        alpha, b = p["tail_index"], float(truncation)
        cut = at_n is not None and b <= float(at_n) ** (-1.0 / alpha)  # then every entry is cut

        def heavy(two_k: int) -> float:
            tail = 0.0 if at_n is None else float(at_n) ** (1.0 - two_k / alpha)
            return 0.0 if cut else alpha / (two_k - alpha) * (b ** (two_k - alpha) - tail)

        return CumulantSchedule(f"heavy tail alpha={alpha} B={b}", rule=heavy)
    if spec.variant == "variance_profile":
        base = effective_cumulants(spec.base_spec(), at_n=at_n)
        return profile_family(spec.params["profile"], base)
    if spec.variant == "band":
        base = effective_cumulants(spec.base_spec(), at_n=at_n)
        return base.banded(p["half_width"], p.get("periodic", False))
    if at_n is not None:  # entries s * Z / sqrt(n): a gaussian profile on the scales grid
        gaussian = ModelSpec("gaussian_wigner", spec.n, spec.seed)
        scales = block_family(p["masses"], {2: p["scales"]}).g(2)
        return profile_family(scales, effective_cumulants(gaussian, at_n))
    squares = [[float(s) * float(s) for s in row] for row in p["scales"]]
    return block_family(p["masses"], {2: squares}, description="block gaussian")


def _limit_of_n_times(form: dict, prob) -> dict:
    """The terms of n * p(x, y, n) that neither grow nor vanish as n -> infinity.

    ``form`` is the polynomial form of p in (x, y, n); a term whose power of n
    stays positive has no limit and raises ValidationError.
    """
    if any(e > -1 for _, _, e in form):
        raise ValidationError(f"n * prob grows without bound as n -> infinity for prob {prob!r}; "
                              "the sparse limit needs prob = O(1/n)")
    return {(p, q): c for (p, q, e), c in form.items() if e == -1}


def with_seed(spec: ModelSpec, seed: int) -> ModelSpec:
    return spec._replace(seed=seed)
