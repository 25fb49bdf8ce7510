"""Kernels on [0,1]^2 and the kernel families every limit moment is summed from.

This module is the one place that turns numbers, expressions, grids and
model parameters into kernels and families; :mod:`esdlab.moments` only sums
them. A Graphon here is one symmetric function g(x, y); a GraphonFamily maps
each even order 2j to such a function (missing orders mean identically
zero). Families encode entry-moment profiles of a matrix ensemble: the
order-2j member is the limit of n*E[x_ij^(2j)] as a function of (i/n, j/n).
A CumulantSchedule is the family of a flat ensemble, whose order-2j member
is the constant C_{2j}; :meth:`GraphonFamily.banded`, :func:`block_family`
and :func:`profile_family` build the structured ones.

Four representations are supported, and the integration code exploits them:

* constant              exact integrals, trivially
* grid                  piecewise constant on a break grid; exact cell sums
* callable/expression   exact when it is a polynomial in x and y (it then
                        carries the ``form`` its text was read with, see
                        :class:`~esdlab.expressions.Expression`);
                        otherwise quadrature: Gauss-Legendre nodes when
                        smooth, else a uniform grid
* banded                any of the above times a band indicator; exact for an
                        open band over an exact kernel, and for a periodic band
                        over a constant

:func:`node_rule` picks the integration rule for a set of kernels from these
kinds: the exact cells, or quadrature; neither takes a setting. :func:`as_graphon`
reads every kernel a config may hold, and :func:`require_number`,
:func:`float_rows` and :func:`require_flag` accept only JSON numbers and
booleans, so text such as ``"2"`` is an error rather than a number.

Constants, grids, polynomials and the families built from them (schedules,
blocks, profiles over a grid or a polynomial, open bands over any of these)
need no arrays: a grid keeps its breaks and cells as tuples of Python floats,
and a polynomial kernel is checked on its exact form. numpy is imported only
by :meth:`Graphon.eval`, :func:`band_indicator_values`, an expression when it
is called, and the check of a callable kernel without an exact form; and
:mod:`esdlab.expressions` only to read a kernel's text, once per kernel, or
to raise the form read from it to a power.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import NumericError, ValidationError

_SYMMETRY_TOL = 1e-9
#: most break slots an open band may have on the exact cell rule. A band of
#: half-width alpha shifts each break, 0 and 1 included, to up to 1/alpha + 1
#: places. Cold ``moments`` commands up to 2k = 16 ran as fast on the exact rule
#: as on the grid rule, numpy import included, up to 42 slots over the
#: polynomial 4*x*y (alpha = 0.05) and up to about 100 over a constant or a
#: block grid; beyond, the exact rule grows slower
MAX_BAND_BREAKS = 42


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_number(value, what: str) -> float:
    """``value`` as a float when it is a finite real number; text, booleans and nan raise."""
    if not (_is_number(value) and math.isfinite(value)):
        raise ValidationError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def float_rows(values, what: str) -> tuple:
    """``values`` as nested tuples of floats, and their shape as numpy would give it.

    A number is a float of shape (); text or booleans at any depth, and ragged
    nesting, raise ValidationError.
    """
    def read(value):
        value = value.tolist() if hasattr(value, "tolist") else value  # numpy input
        if isinstance(value, (list, tuple)):
            items = [read(v) for v in value]
            shapes = {shape for _, shape in items}
            if len(shapes) > 1:
                raise ValueError
            return tuple(v for v, _ in items), (len(items), *(shapes.pop() if shapes else ()))
        if not _is_number(value):
            raise ValueError
        try:
            return float(value), ()
        except OverflowError:  # an int beyond the float range
            return math.inf, ()

    try:
        return read(values)
    except ValueError:
        raise ValidationError(f"{what} must be numbers, got {values!r}") from None


class Graphon:
    """One bounded symmetric function on the unit square."""

    def __init__(self, kind: str, *, value: float | None = None,
                 breaks: tuple[float, ...] | None = None,
                 cells: tuple[tuple[float, ...], ...] | None = None,
                 fn: Callable | None = None, bound: float | None = None,
                 smooth: bool = True, base: "Graphon | None" = None,
                 alpha: float | None = None, periodic: bool | None = None,
                 form: dict | None = None, label: str = ""):
        self.kind = kind
        self.value = value
        self.breaks = breaks
        self.cells = cells
        self.fn = fn
        self.smooth = smooth
        self.base = base
        self.alpha = alpha
        self.periodic = periodic
        self.form = form  # exact polynomial of a callable, see expressions.Expression
        self.label = label or kind
        if kind == "callable":
            bound = self._check_callable(bound)
        self.bound = float(bound)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, label: str = "") -> "Graphon":
        return cls("constant", value=float(value), bound=abs(float(value)),
                   label=label or f"const {value}")

    @classmethod
    def from_grid(cls, breaks: Iterable[float], cells, label: str = "") -> "Graphon":
        breaks, shape = float_rows(breaks, "grid breaks")
        if len(shape) != 1 or shape[0] < 2 or breaks[0] != 0.0 or breaks[-1] != 1.0:
            raise ValidationError("grid breaks must run from 0.0 to 1.0")
        if any(b <= a for a, b in zip(breaks, breaks[1:])):
            raise ValidationError("grid breaks must be strictly increasing")
        cells, shape = float_rows(cells, "grid cells")
        d = len(breaks) - 1
        if shape != (d, d):
            raise ValidationError(f"cell matrix must be {d}x{d} for {d+1} breaks, got {shape}")
        if not all(math.isfinite(c) for row in cells for c in row):
            raise NumericError("grid cells contain non-finite values")
        if any(cells[i][j] != cells[j][i] for i in range(d) for j in range(i)):
            raise ValidationError("cell matrix must be symmetric")
        bound = max(abs(c) for row in cells for c in row)
        return cls("grid", breaks=breaks, cells=cells, bound=bound,
                   smooth=False, label=label or "grid")

    @classmethod
    def from_expression(cls, source: str, bound: float | None = None) -> "Graphon":
        from .expressions import compile_expression
        fn = compile_expression(source, ("x", "y"))
        return cls("callable", fn=fn, bound=bound, smooth=fn.smooth, form=fn.form, label=source)

    @classmethod
    def from_form(cls, form: dict, label: str) -> "Graphon":
        """The polynomial kernel of an exact form, evaluated term by term."""
        terms = _float_terms(form)
        return cls("callable", fn=lambda x, y: _form_value(terms, x, y), form=form, label=label)

    @classmethod
    def from_callable(cls, fn: Callable, bound: float | None = None,
                      smooth: bool = True, label: str = "") -> "Graphon":
        return cls("callable", fn=fn, bound=bound, smooth=smooth, label=label or "callable")

    def banded(self, alpha: float, periodic: bool) -> "Graphon":
        """This graphon multiplied by the band indicator of half-width alpha."""
        if not 0 < alpha <= 0.5:
            raise ValidationError(f"band half-width must satisfy 0 < alpha <= 1/2, got {alpha}")
        return Graphon("banded", base=self, alpha=float(alpha),
                       periodic=require_flag(periodic, "band periodic"),
                       bound=self.bound, smooth=False,
                       label=f"{self.label} * band({alpha}{', periodic' if periodic else ''})")

    def power_scale(self, exponent: int, scale: float) -> "Graphon":
        """Pointwise scale * g(x,y)**exponent, exact forms kept; an overflow raises NumericError."""
        try:
            bound = abs(scale) * self.bound**exponent
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise NumericError(f"({self.label})^{exponent}*{scale} is not finite in floating point")
        if self.kind == "constant":
            return Graphon.constant(scale * self.value**exponent)
        if self.kind == "grid":
            cells = [[scale * c**exponent for c in row] for row in self.cells]
            return Graphon.from_grid(self.breaks, cells, label=f"({self.label})^{exponent}*{scale}")
        here = self
        form = None
        if self.form is not None:  # read from an expression's text
            from .expressions import power_form
            form = power_form(self.form, exponent)
        if form is not None:
            form = {key: Fraction(scale) * c for key, c in form.items()}

        def powered(x, y):
            return scale * here.eval(x, y) ** exponent

        return Graphon("callable", fn=powered, bound=bound, form=form,
                       smooth=self.smooth, label=f"({self.label})^{exponent}*{scale}")

    # -- evaluation --------------------------------------------------------

    def eval(self, x, y) -> np.ndarray:
        import numpy as np
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "constant":
            return np.full(np.broadcast(x, y).shape, self.value)
        if self.kind == "grid":
            breaks, last = np.asarray(self.breaks), len(self.breaks) - 2
            ix = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, last)
            iy = np.clip(np.searchsorted(breaks, y, side="right") - 1, 0, last)
            return np.asarray(self.cells)[ix, iy]
        if self.kind == "banded":
            return self.base.eval(x, y) * band_indicator_values(x, y, self.alpha, self.periodic)
        out = np.asarray(self.fn(x, y), dtype=float)
        return np.broadcast_to(out, np.broadcast(x, y).shape)

    # -- internals ---------------------------------------------------------

    def _check_callable(self, bound: float | None) -> float:
        """``bound``, else max |g| on a check grid, where g must be finite and symmetric.

        A kernel with an exact form is evaluated term by term in floating
        point, without numpy; any other through its function. Constants and
        grids are symmetric by construction, bands when their base is.
        """
        if self.form is not None:
            grid = [i / 28 for i in range(29)]
            try:
                terms = _float_terms(self.form)
                sample = [[_form_value(terms, x, y) for y in grid] for x in grid]
                largest = max(abs(v) for row in sample for v in row)
            except (OverflowError, ZeroDivisionError):  # a huge coefficient, or 0 ** -1
                largest = math.inf
            if not math.isfinite(largest):
                raise NumericError(f"graphon {self.label!r} is non-finite on the unit square")
            gap = max(abs(row[j] - sample[j][i]) for i, row in enumerate(sample) for j in range(i))
        else:
            import numpy as np
            grid = np.linspace(0.0, 1.0, 29)
            sample = np.asarray(self.fn(grid[:, None], grid[None, :]), dtype=float)
            if not np.all(np.isfinite(sample)):
                raise NumericError(f"graphon {self.label!r} is non-finite on the unit square")
            largest = float(np.max(np.abs(sample)))
            gap = float(np.max(np.abs(sample - sample.T)))
        # relative to the kernel's own values: a declared bound is never checked against them
        if gap > _SYMMETRY_TOL * max(1.0, largest):
            raise ValidationError(
                f"graphon {self.label!r} is not symmetric: max |g(x,y)-g(y,x)| = {gap:.3g} on the check grid"
            )
        return largest if bound is None else bound

    def __repr__(self) -> str:
        return f"Graphon({self.label!r}, bound={self.bound:.4g})"


def _float_terms(form: dict) -> list[tuple[float, float, float]]:
    """(coefficient, x exponent, y exponent) of each term of an exact form, as floats."""
    return [(float(c), float(p), float(q)) for (p, q), c in form.items()]


def _form_value(terms, x, y):
    """The sum of the terms at (x, y): Python floats or numpy arrays."""
    return sum(c * x**p * y**q for c, p, q in terms)


def band_indicator_values(x, y, alpha: float, periodic: bool) -> np.ndarray:
    import numpy as np
    gap = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    inside = gap <= alpha
    if periodic:
        inside = inside | (gap >= 1.0 - alpha)
    return inside.astype(float)


_KERNEL_FORMS = ({"constant"}, {"expression"}, {"expression", "bound"}, {"breaks", "cells"})


def as_graphon(value) -> Graphon:
    """The kernel a number, expression string, kernel object or Graphon describes.

    The objects are ``{"constant": c}``, ``{"expression": text}`` with an
    optional ``"bound"``, and the grid ``{"breaks": [...], "cells": [[...]]}``.

    >>> float(as_graphon({"breaks": [0, 0.5, 1], "cells": [[1, 2], [2, 1]]}).eval(0.2, 0.7))
    2.0
    """
    if isinstance(value, Graphon):
        return value
    if _is_number(value):
        return Graphon.constant(require_number(value, "kernel constant"))
    if isinstance(value, str):
        return Graphon.from_expression(value)
    if isinstance(value, dict) and set(value) in _KERNEL_FORMS:
        if "constant" in value:
            return Graphon.constant(require_number(value["constant"], "kernel constant"))
        if "breaks" in value:
            return Graphon.from_grid(value["breaks"], value["cells"])
        if not isinstance(value["expression"], str):
            raise ValidationError(f"kernel expression must be text, got {value['expression']!r}")
        bound = value.get("bound")
        return Graphon.from_expression(
            value["expression"], None if bound is None else require_number(bound, "kernel bound"))
    raise ValidationError(f"cannot interpret {value!r} as a graphon")


def require_flag(value, what: str) -> bool:
    """``value`` itself when it is a bool; anything else, such as the text "false", raises."""
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


def require_even_order(order: int, what: str = "even order >= 2 required") -> None:
    """Raise ValidationError unless ``order`` is even and at least 2."""
    if order < 2 or order % 2:
        raise ValidationError(f"{what}, got {order}")


def _row_constant(g: Graphon) -> bool:
    return g.kind == "constant" or (g.kind == "banded" and g.periodic
                                    and g.base.kind == "constant")


def _exact(g: Graphon) -> bool:
    """Whether the cell rule sums ``g`` exactly: a constant, a grid, a polynomial
    with nonnegative integer exponents, or an open band over one of these."""
    if g.kind == "banded":
        return not g.periodic and g.base.kind != "banded" and _exact(g.base)
    return g.kind in ("constant", "grid") or (
        g.form is not None and all(type(e) is int and e >= 0 for key in g.form for e in key))


def grid_breaks(kernels: Iterable[Graphon]) -> set[float]:
    """0, 1 and the breaks of every grid among the kernels and the bases of their bands."""
    bases = [g.base if g.kind == "banded" else g for g in kernels]
    return {b for g in bases if g.kind == "grid" for b in g.breaks} | {0.0, 1.0}


def node_rule(kernels: Iterable[Graphon]) -> str:
    """The rule for integrals of products of these kernels.

    "cells" is exact, summed in rationals by :func:`esdlab.cells.cell_sum`:
    every kernel row-constant (constants and periodic bands over them, so
    every message is one number), or constants, grids, polynomials and open
    bands over them, all bands of one half-width and at most MAX_BAND_BREAKS
    break slots. Any other kernels take "quadrature"
    (:func:`esdlab.quadrature.integrate_tree_sum`).
    """
    kernels = list(kernels)
    if all(_row_constant(g) for g in kernels):
        return "cells"
    alphas = {g.alpha for g in kernels if g.kind == "banded"}
    if all(map(_exact, kernels)) and len(alphas) <= 1:
        if not alphas or len(grid_breaks(kernels)) * (1 / min(alphas) + 1) <= MAX_BAND_BREAKS:
            return "cells"
    return "quadrature"


class GraphonFamily:
    """Map from even order 2j to a Graphon; missing orders are zero."""

    def __init__(self, entries: Mapping[int, Graphon] | None = None,
                 rule: Callable[[int], Optional[Graphon]] | None = None,
                 description: str = ""):
        self.entries: dict[int, Graphon] = {}
        for order, graphon in (entries or {}).items():
            order = int(order)
            require_even_order(order, "graphon family orders must be even and >= 2")
            if graphon is not None:
                self.entries[order] = as_graphon(graphon)
        self.rule = rule
        self.description = description or "graphon family"

    def g(self, order: int) -> Optional[Graphon]:
        """Graphon at the given even order, or None when identically zero."""
        require_even_order(order, "order must be even and >= 2")
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
        require_flag(periodic, "band periodic")
        base = self

        def make(order: int) -> Optional[Graphon]:
            graphon = base.g(order)
            return None if graphon is None else graphon.banded(alpha, periodic)

        return GraphonFamily(rule=make,
                             description=f"{self.description} * band({alpha}, periodic={periodic})")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.description!r})"


class CumulantSchedule(GraphonFamily):
    """Limits C_{2k} of n * E[entry^(2k)]: the family of constants C_{2k}.

    The member is None where C_{2k} is 0. ``value`` reads C_{2k} from
    ``table``, else from ``rule``; an order in neither raises ValidationError,
    and a rule that overflows or gives a value that is not finite raises
    NumericError.

    >>> from esdlab.moments import moment_graphon
    >>> moment_graphon(CumulantSchedule.semicircle(), 6).value
    5.0
    """

    def __init__(self, description: str, table: tuple[tuple[int, float], ...] = (),
                 rule: Optional[Callable[[int], float]] = None):
        super().__init__(description=description)
        self.table = table
        self.rule = rule

    def value(self, two_k: int) -> float:
        require_even_order(two_k)
        for order, c in self.table:
            if order == two_k:
                return c
        if self.rule is None:
            raise ValidationError(
                f"schedule {self.description!r} has no cumulant of order {two_k}")
        try:
            c = float(self.rule(two_k))
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):
            raise NumericError(f"C_{two_k} of {self.description!r} is not finite")
        return c

    def g(self, order: int) -> Optional[Graphon]:
        c = self.value(order)
        return None if c == 0 else Graphon.constant(c)

    @classmethod
    def from_dict(cls, values: Mapping[int, float], description: str = "table") -> "CumulantSchedule":
        table = tuple(sorted((int(order), float(c)) for order, c in values.items()))
        for order, _ in table:
            require_even_order(order)
        return cls(description, table)

    @classmethod
    def semicircle(cls, c2: float = 1.0) -> "CumulantSchedule":
        return cls(f"semicircle c2={c2}", ((2, float(c2)),), rule=lambda two_k: 0.0)

    @classmethod
    def constant(cls, lam: float) -> "CumulantSchedule":
        return cls(f"constant {lam}", rule=lambda two_k: float(lam))


def block_family(alphas: Sequence[float], cells_by_order: Mapping[int, object],
                 description: str = "") -> GraphonFamily:
    """Piecewise-constant family on the partition of [0,1] with the given masses."""
    masses, shape = float_rows(alphas, "block masses")
    if len(shape) != 1 or not masses or not all(a > 0 for a in masses):  # nan is not > 0
        raise ValidationError(f"block masses must be a list of positive numbers, got {alphas!r}")
    breaks = [0.0]
    for a in masses:
        breaks.append(breaks[-1] + a)
    if abs(breaks[-1] - 1.0) > 1e-12:
        raise ValidationError(f"block masses must sum to 1, got {breaks[-1]!r}")
    breaks[-1] = 1.0
    entries = {}
    for order, cells in cells_by_order.items():
        require_even_order(int(order))
        entries[int(order)] = Graphon.from_grid(breaks, cells, label=f"block order {order}")
    return GraphonFamily(entries, description=description or f"{len(masses)} blocks")


def profile_family(sigma, schedule: CumulantSchedule) -> GraphonFamily:
    """Family sigma(x,y)^(2k) * C_{2k} for a variance-profile ensemble; sigma is any kernel."""
    profile = as_graphon(sigma)

    def make(order: int) -> Optional[Graphon]:
        c = schedule.value(order)
        return None if c == 0 else profile.power_scale(order, c)

    return GraphonFamily(rule=make, description=f"profile({profile.label}) x {schedule.description}")
