"""Bounded symmetric kernels on [0,1]^2 and families indexed by even order.

A Graphon here is one symmetric function g(x, y); a GraphonFamily maps each
even order 2j to such a function (missing orders mean identically zero).
Families encode entry-moment profiles of a matrix ensemble: the order-2j
member is the limit of n*E[x_ij^(2j)] as a function of (i/n, j/n).

Four representations are supported, and the integration code exploits them:

* constant              exact integrals, trivially
* grid                  piecewise constant on a break grid; exact cell sums
* callable/expression   Gauss-Legendre nodes when smooth, else a uniform grid
* banded                any of the above times a band indicator
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .errors import NumericError, ValidationError
from .expressions import compile_expression, expression_is_smooth

_SYMMETRY_GRID = np.linspace(0.0, 1.0, 29)
_SYMMETRY_TOL = 1e-9


class Graphon:
    """One bounded symmetric function on the unit square."""

    def __init__(self, kind: str, *, value: float | None = None,
                 breaks: np.ndarray | None = None, cells: np.ndarray | None = None,
                 fn: Callable | None = None, bound: float | None = None,
                 smooth: bool = True, base: "Graphon | None" = None,
                 alpha: float | None = None, periodic: bool | None = None,
                 label: str = ""):
        self.kind = kind
        self.value = value
        self.breaks = breaks
        self.cells = cells
        self.fn = fn
        self.smooth = smooth
        self.base = base
        self.alpha = alpha
        self.periodic = periodic
        self.label = label or kind
        self.bound = float(bound) if bound is not None else self._estimate_bound()
        self._check_symmetry()

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, label: str = "") -> "Graphon":
        return cls("constant", value=float(value), bound=abs(float(value)),
                   label=label or f"const {value}")

    @classmethod
    def from_grid(cls, breaks: Iterable[float], cells, label: str = "") -> "Graphon":
        breaks = np.asarray(list(breaks), dtype=float)
        cells = np.asarray(cells, dtype=float)
        if breaks.ndim != 1 or len(breaks) < 2 or breaks[0] != 0.0 or breaks[-1] != 1.0:
            raise ValidationError("grid breaks must run from 0.0 to 1.0")
        if np.any(np.diff(breaks) <= 0):
            raise ValidationError("grid breaks must be strictly increasing")
        d = len(breaks) - 1
        if cells.shape != (d, d):
            raise ValidationError(f"cell matrix must be {d}x{d} for {d+1} breaks, got {cells.shape}")
        if not np.all(np.isfinite(cells)):
            raise NumericError("grid cells contain non-finite values")
        if not np.allclose(cells, cells.T, atol=0, rtol=0):
            raise ValidationError("cell matrix must be symmetric")
        return cls("grid", breaks=breaks, cells=cells, bound=float(np.max(np.abs(cells))),
                   smooth=False, label=label or "grid")

    @classmethod
    def from_expression(cls, source: str, bound: float | None = None) -> "Graphon":
        fn = compile_expression(source, ("x", "y"))
        return cls("callable", fn=fn, bound=bound, smooth=expression_is_smooth(source),
                   label=source)

    @classmethod
    def from_callable(cls, fn: Callable, bound: float | None = None,
                      smooth: bool = True, label: str = "") -> "Graphon":
        return cls("callable", fn=fn, bound=bound, smooth=smooth, label=label or "callable")

    def banded(self, alpha: float, periodic: bool) -> "Graphon":
        """This graphon multiplied by the band indicator of half-width alpha."""
        if not 0 < alpha <= 0.5:
            raise ValidationError(f"band half-width must satisfy 0 < alpha <= 1/2, got {alpha}")
        return Graphon("banded", base=self, alpha=float(alpha), periodic=bool(periodic),
                       bound=self.bound, smooth=False,
                       label=f"{self.label} * band({alpha}{', periodic' if periodic else ''})")

    def power_scale(self, exponent: int, scale: float) -> "Graphon":
        """Pointwise scale * g(x,y)**exponent, preserving exact representations."""
        if self.kind == "constant":
            return Graphon.constant(scale * self.value**exponent)
        if self.kind == "grid":
            return Graphon.from_grid(self.breaks, scale * self.cells**exponent,
                                     label=f"({self.label})^{exponent}*{scale}")
        here = self

        def powered(x, y):
            return scale * here.eval(x, y) ** exponent

        return Graphon("callable", fn=powered, bound=abs(scale) * self.bound**exponent,
                       smooth=self.smooth, label=f"({self.label})^{exponent}*{scale}")

    # -- evaluation --------------------------------------------------------

    def eval(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            return np.full(np.broadcast(x, y).shape, self.value)
        if self.kind == "grid":
            ix = np.clip(np.searchsorted(self.breaks, x, side="right") - 1, 0, len(self.breaks) - 2)
            iy = np.clip(np.searchsorted(self.breaks, y, side="right") - 1, 0, len(self.breaks) - 2)
            return self.cells[ix, iy]
        if self.kind == "banded":
            return self.base.eval(x, y) * band_indicator_values(x, y, self.alpha, self.periodic)
        out = np.asarray(self.fn(x, y), dtype=float)
        return np.broadcast_to(out, np.broadcast(x, y).shape)

    # -- internals ---------------------------------------------------------

    def _estimate_bound(self) -> float:
        if self.kind == "constant":
            return abs(self.value)
        if self.kind == "grid":
            return float(np.max(np.abs(self.cells)))
        if self.kind == "banded":
            return self.base.bound
        sample = self.fn(_SYMMETRY_GRID[:, None], _SYMMETRY_GRID[None, :])
        sample = np.asarray(sample, dtype=float)
        if not np.all(np.isfinite(sample)):
            raise NumericError(f"graphon {self.label!r} is non-finite on the unit square")
        return float(np.max(np.abs(sample)))

    def _check_symmetry(self) -> None:
        if self.kind in ("constant", "grid"):
            return  # enforced structurally
        if self.kind == "banded":
            return  # indicator is symmetric; base already checked
        sample = np.asarray(self.fn(_SYMMETRY_GRID[:, None], _SYMMETRY_GRID[None, :]), dtype=float)
        if not np.all(np.isfinite(sample)):
            raise NumericError(f"graphon {self.label!r} is non-finite on the unit square")
        gap = float(np.max(np.abs(sample - sample.T)))
        if gap > _SYMMETRY_TOL * max(1.0, self.bound):
            raise ValidationError(
                f"graphon {self.label!r} is not symmetric: max |g(x,y)-g(y,x)| = {gap:.3g} on the check grid"
            )

    def __repr__(self) -> str:
        return f"Graphon({self.label!r}, bound={self.bound:.4g})"


def band_indicator_values(x, y, alpha: float, periodic: bool) -> np.ndarray:
    gap = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    inside = gap <= alpha
    if periodic:
        inside = inside | (gap >= 1.0 - alpha)
    return inside.astype(float)


def band_indicator(alpha: float, periodic: bool) -> Graphon:
    """The 0/1 band graphon itself."""
    return Graphon.constant(1.0, label="1").banded(alpha, periodic)


def as_graphon(value) -> Graphon:
    """Coerce numbers, expression strings, or Graphons to a Graphon."""
    if isinstance(value, Graphon):
        return value
    if isinstance(value, (int, float)):
        return Graphon.constant(float(value))
    if isinstance(value, str):
        return Graphon.from_expression(value)
    raise ValidationError(f"cannot interpret {value!r} as a graphon")


class GraphonFamily:
    """Map from even order 2j to a Graphon; missing orders are zero."""

    def __init__(self, entries: Mapping[int, Graphon] | None = None,
                 rule: Callable[[int], Optional[Graphon]] | None = None,
                 description: str = ""):
        self.entries: dict[int, Graphon] = {}
        for order, graphon in (entries or {}).items():
            order = int(order)
            if order < 2 or order % 2:
                raise ValidationError(f"graphon family orders must be even and >= 2, got {order}")
            if graphon is not None:
                self.entries[order] = as_graphon(graphon)
        self.rule = rule
        self.description = description or "graphon family"

    @classmethod
    def from_constant_rule(cls, value_of_order: Callable[[int], float],
                           description: str = "") -> "GraphonFamily":
        """Family of constants, one per order, from a rule like a schedule."""

        def make(order: int) -> Optional[Graphon]:
            c = value_of_order(order)
            return None if c == 0 else Graphon.constant(c)

        return cls(rule=make, description=description)

    def g(self, order: int) -> Optional[Graphon]:
        """Graphon at the given even order, or None when identically zero."""
        if order < 2 or order % 2:
            raise ValidationError(f"order must be even and >= 2, got {order}")
        if order in self.entries:
            return self.entries[order]
        if self.rule is not None:
            return self.rule(order)
        return None

    def bound(self, order: int) -> float:
        graphon = self.g(order)
        return 0.0 if graphon is None else graphon.bound

    def banded(self, alpha: float, periodic: bool) -> "GraphonFamily":
        """Every member multiplied by the same band indicator."""
        base = self

        def make(order: int) -> Optional[Graphon]:
            graphon = base.g(order)
            return None if graphon is None else graphon.banded(alpha, periodic)

        return GraphonFamily(rule=make,
                             description=f"{self.description} * band({alpha}, periodic={periodic})")

    def __repr__(self) -> str:
        return f"GraphonFamily({self.description!r})"
