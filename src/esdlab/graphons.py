"""Kernels on [0,1]^2 and the kernel families every limit moment is summed from.

This module is the one place that turns numbers, expressions, grids and
model parameters into kernels and families; :mod:`esdlab.moments` only sums
them. A Graphon here is one symmetric function g(x, y); a GraphonFamily keeps
one member table from even order 2j to such a function or None (identically
zero): the members given, and each one its rule builds, once. Families
encode entry-moment profiles of a matrix ensemble: the order-2j member is
the limit of n*E[x_ij^(2j)] as a function of (i/n, j/n). A CumulantSchedule
is the family of a flat ensemble, whose order-2j member is the constant
C_{2j}; :meth:`GraphonFamily.banded`, :func:`block_family` and
:func:`profile_family` build the structured ones.

Every kernel is one record, the product of three factors, and the
integration code reads those fields:

* cells                 its value on a grid cell between ``breaks``; a single
                        cell for a constant or a function
* form or fn            its exact polynomial ``form`` in x and y, or the
                        function ``fn`` where it has no form (an expression
                        keeps both, see :class:`~esdlab.expressions.Expression`);
                        neither for a constant or a grid
* band                  the band indicator of half-width ``alpha``, periodic
                        or open, when ``alpha`` is set

:func:`node_rule` picks one of three rules for a set of kernels from these
fields: "cells", exact, for cells times a polynomial on an open band of any
half-width or none, and for one cell on a periodic band; else "gauss",
Gauss-Legendre nodes, when all are smooth, or "grid", a uniform grid. None
takes a setting. :func:`as_graphon` reads the three kernels a config may
hold (a number, an expression string and a breaks-and-cells grid), whose
``bound`` is the maximum of |g| measured on the cells or :data:`CHECK_GRID`;
:func:`require_keys` checks the keys of every theory, model, params and
compare object, and :func:`require_number`, :func:`float_rows` and
:func:`require_flag` accept only JSON numbers and booleans, so text such as
``"2"`` is an error rather than a number.

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
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import NumericError, ValidationError

_SYMMETRY_TOL = 1e-9
CHECK_GRID = tuple(i / 28 for i in range(29))  # a function kernel is checked on its square


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
    """One bounded symmetric function on the unit square: its grid cell value, times
    its function ``fn`` (exact ``form``) if any, times its band indicator if ``alpha``."""

    def __init__(self, *, breaks: tuple[float, ...] = (0.0, 1.0),
                 cells: tuple[tuple[float, ...], ...] = ((1.0,),),
                 fn: Callable | None = None, form: dict | None = None, bound: float = 1.0,
                 smooth: bool = True, alpha: float | None = None, periodic: bool = False,
                 label: str = "kernel"):
        self.breaks = breaks
        self.cells = cells
        self.fn = fn
        self.form = form  # exact polynomial of fn, see expressions.Expression
        self.bound = float(bound)
        self.smooth = smooth
        self.alpha = alpha
        self.periodic = periodic
        self.label = label

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value: float, label: str = "") -> "Graphon":
        return cls(cells=((float(value),),), bound=abs(float(value)),
                   label=label or f"const {value}")

    @classmethod
    def from_grid(cls, breaks: Iterable[float], cells, label: str = "") -> "Graphon":
        breaks, shape = float_rows(breaks, "grid breaks")
        if len(shape) != 1 or shape[0] < 2 or breaks[0] != 0.0 or breaks[-1] != 1.0:
            raise ValidationError("grid breaks must run from 0.0 to 1.0")
        if not all(a < b for a, b in zip(breaks, breaks[1:])):  # nan is not < anything
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
        return cls(breaks=breaks, cells=cells, bound=bound, smooth=False, label=label or "grid")

    @classmethod
    def from_expression(cls, source: str) -> "Graphon":
        from .expressions import compile_expression
        fn = compile_expression(source, ("x", "y"))
        return cls.from_callable(fn, fn.smooth, source, fn.form)

    @classmethod
    def from_form(cls, form: dict, label: str) -> "Graphon":
        """The polynomial kernel of an exact form, evaluated term by term."""
        terms = _float_terms(form)
        return cls.from_callable(lambda x, y: _form_value(terms, x, y), label=label, form=form)

    @classmethod
    def from_callable(cls, fn: Callable, smooth: bool = True, label: str = "",
                      form: dict | None = None) -> "Graphon":
        """The kernel ``fn``, whose exact polynomial is ``form`` if it has one."""
        label = label or "callable"
        return cls(fn=fn, form=form, bound=_checked_bound(fn, form, label), smooth=smooth,
                   label=label)

    def banded(self, alpha: float, periodic: bool) -> "Graphon":
        """This graphon multiplied by the band indicator of half-width alpha."""
        if not 0 < alpha <= 0.5:
            raise ValidationError(f"band half-width must satisfy 0 < alpha <= 1/2, got {alpha}")
        if self.alpha is not None:
            raise ValidationError(f"{self.label!r} already has a band")
        return Graphon(breaks=self.breaks, cells=self.cells, fn=self.fn, form=self.form,
                       bound=self.bound, smooth=False, alpha=float(alpha),
                       periodic=require_flag(periodic, "band periodic"),
                       label=f"{self.label} * band({alpha}{', periodic' if periodic else ''})")

    def power_scale(self, exponent: int, scale: float) -> "Graphon":
        """Pointwise scale * g(x,y)**exponent; a value past the float range raises NumericError.

        Each cell c becomes scale * c**exponent in floating point, the function
        and its exact form their powers, and a band stays itself: an indicator
        to a power is itself. The bound is |scale| * bound**exponent: this
        one's bound is the maximum measured on its cells or the check grid, so
        that is the power's maximum there.
        """
        label = f"({self.label})^{exponent}*{scale}"
        try:
            cells = tuple(tuple(scale * c**exponent for c in row) for row in self.cells)
            bound = abs(scale) * self.bound**exponent
        except OverflowError:
            bound = math.inf
        if not math.isfinite(bound):
            raise NumericError(f"graphon {label!r} is non-finite on the unit square")
        fn = form = None
        if self.fn is not None:
            here = self.fn

            def fn(x, y):  # a whole array, even where ``here`` gives one value
                import numpy as np
                value = np.asarray(here(x, y), dtype=float)
                return np.broadcast_to(value, np.broadcast(x, y).shape) ** exponent

            if self.form is not None:  # read from an expression's text
                from .expressions import power_form
                form = power_form(self.form, exponent)
        return Graphon(breaks=self.breaks, cells=cells, fn=fn, form=form, bound=bound,
                       smooth=self.smooth, alpha=self.alpha, periodic=self.periodic, label=label)

    # -- evaluation --------------------------------------------------------

    def eval(self, x, y, band: bool = True) -> np.ndarray:
        """g(x, y) on arrays; ``band=False`` leaves out the band indicator."""
        import numpy as np
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        if len(self.cells) > 1:
            breaks, last = np.asarray(self.breaks), len(self.breaks) - 2
            ix = np.clip(np.searchsorted(breaks, x, side="right") - 1, 0, last)
            iy = np.clip(np.searchsorted(breaks, y, side="right") - 1, 0, last)
            value = np.asarray(self.cells)[ix, iy]
        else:
            value = np.full(shape, self.cells[0][0]) if self.fn is None else self.cells[0][0]
        if self.fn is not None:
            value = value * np.asarray(self.fn(x, y), dtype=float)
        if band and self.alpha is not None:
            value = value * band_indicator_values(x, y, self.alpha, self.periodic)
        return np.broadcast_to(value, shape)

    def __repr__(self) -> str:
        return f"Graphon({self.label!r}, bound={self.bound:.4g})"


def _checked_bound(fn: Callable, form: dict | None, label: str) -> float:
    """max |fn| on the check grid, where fn must be finite and symmetric.

    A function with an exact form is evaluated term by term in floating
    point, without numpy; any other through numpy.
    """
    if form is not None:
        try:
            terms = _float_terms(form)
            sample = [[_form_value(terms, x, y) for y in CHECK_GRID] for x in CHECK_GRID]
            largest = max(abs(v) for row in sample for v in row)
        except (OverflowError, ZeroDivisionError):  # a huge coefficient, or 0 ** -1
            largest = math.inf
        if not math.isfinite(largest):
            raise NumericError(f"graphon {label!r} is non-finite on the unit square")
        gap = max(abs(row[j] - sample[j][i]) for i, row in enumerate(sample) for j in range(i))
    else:
        import numpy as np
        grid = np.asarray(CHECK_GRID)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked just below
            sample = np.asarray(fn(grid[:, None], grid[None, :]), dtype=float)
        if not np.all(np.isfinite(sample)):
            raise NumericError(f"graphon {label!r} is non-finite on the unit square")
        largest = float(np.max(np.abs(sample)))
        gap = float(np.max(np.abs(sample - sample.T)))
    if gap > _SYMMETRY_TOL * max(1.0, largest):
        raise ValidationError(
            f"graphon {label!r} is not symmetric: max |g(x,y)-g(y,x)| = {gap:.3g} on the check grid"
        )
    return largest


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


def as_graphon(value) -> Graphon:
    """The kernel a number, an expression string, a grid or a Graphon describes.

    The grid is the object ``{"breaks": [...], "cells": [[...]]}``; nothing
    else is read as a kernel.

    >>> float(as_graphon({"breaks": [0, 0.5, 1], "cells": [[1, 2], [2, 1]]}).eval(0.2, 0.7))
    2.0
    """
    if isinstance(value, Graphon):
        return value
    if _is_number(value):
        return Graphon.constant(require_number(value, "kernel constant"))
    if isinstance(value, str):
        return Graphon.from_expression(value)
    if isinstance(value, dict) and value.keys() == {"breaks", "cells"}:
        return Graphon.from_grid(value["breaks"], value["cells"])
    raise ValidationError(f"cannot interpret {value!r} as a graphon")


def require_flag(value, what: str) -> bool:
    """``value`` itself when it is a bool; anything else, such as the text "false", raises."""
    if not isinstance(value, bool):
        raise ValidationError(f"{what} must be true or false, got {value!r}")
    return value


def require_keys(cfg, where: str, required: Iterable[str] = (),
                 optional: Iterable[str] = ()) -> Mapping:
    """``cfg`` itself when it is an object holding every ``required`` key and no key
    beyond ``required`` and ``optional``; else ValidationError naming ``where``."""
    if not isinstance(cfg, Mapping):
        raise ValidationError(f"{where} must be an object, got {cfg!r}")
    missing = [key for key in required if key not in cfg]
    if missing:
        raise ValidationError(f"missing keys {missing} in {where}")
    unknown = set(cfg).difference(required, optional)
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {where}")
    return cfg


def require_even_order(order: int, what: str = "even order >= 2 required") -> None:
    """Raise ValidationError unless ``order`` is even and at least 2."""
    if order < 2 or order % 2:
        raise ValidationError(f"{what}, got {order}")


def _row_constant(g: Graphon) -> bool:
    """One cell and no function, unbanded or on a periodic band: every row integrates alike."""
    return len(g.cells) == 1 and g.fn is None and (g.alpha is None or g.periodic)


def _exact(g: Graphon) -> bool:
    """Whether the cell rule sums ``g`` exactly: cells times no function or a
    polynomial with nonnegative integer exponents, unbanded or on an open band."""
    return not g.periodic and (g.fn is None or g.form is not None and all(
        type(e) is int and e >= 0 for key in g.form for e in key))


def node_rule(kernels: Iterable[Graphon]) -> str:
    """The rule for integrals of products of these kernels.

    "cells" is exact, summed in rationals by :func:`esdlab.cells.cell_sum`:
    every kernel row-constant (constants and periodic bands over them, so
    every message is one number), or constants, grids, polynomials and open
    bands over them, all bands of one half-width. Any other
    kernels take "gauss" when all are smooth, else "grid".
    """
    kernels = list(kernels)
    alphas = {g.alpha for g in kernels if g.alpha is not None}
    if all(map(_row_constant, kernels)) or all(map(_exact, kernels)) and len(alphas) <= 1:
        return "cells"
    return "gauss" if all(g.smooth for g in kernels) else "grid"


class GraphonFamily:
    """Map from even order 2j to a Graphon; None, or a missing order, is zero.

    ``members`` holds the members given and, once built, each one ``rule``
    builds for another order; a rule that raises keeps nothing.
    """

    def __init__(self, entries: Mapping[int, object] | None = None,
                 rule: Callable[[int], Optional[Graphon]] | None = None,
                 description: str = ""):
        self.members: dict[int, Optional[Graphon]] = {}
        for order, graphon in (entries or {}).items():
            order = int(order)
            require_even_order(order, "graphon family orders must be even and >= 2")
            self.members[order] = None if graphon is None else as_graphon(graphon)
        self.rule = rule
        self.description = description or "graphon family"

    def g(self, order: int) -> Optional[Graphon]:
        """Graphon at the given even order, or None when identically zero."""
        require_even_order(order, "order must be even and >= 2")
        if order not in self.members and self.rule is not None:
            self.members[order] = self.rule(order)
        return self.members.get(order)

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

    The ``table`` pairs (2k, C_{2k}) are given members, and ``rule`` gives
    C_{2k} at any other order; a member is None where C_{2k} is 0. An order
    in neither raises ValidationError, and a rule that overflows or gives a
    value that is not finite raises NumericError.

    >>> from esdlab.moments import moment_graphon
    >>> moment_graphon(CumulantSchedule.semicircle(), 6).value
    5.0
    """

    def __init__(self, description: str, table: Iterable[tuple[int, float]] = (),
                 rule: Optional[Callable[[int], float]] = None):
        def member(two_k: int) -> Optional[Graphon]:
            if rule is None:
                raise ValidationError(f"schedule {description!r} has no cumulant of order {two_k}")
            try:
                c = float(rule(two_k))
            except OverflowError:
                c = math.inf
            if not math.isfinite(c):
                raise NumericError(f"C_{two_k} of {description!r} is not finite")
            return None if c == 0 else Graphon.constant(c)

        super().__init__({order: None if c == 0 else Graphon.constant(c) for order, c in table},
                         member, description)

    def value(self, two_k: int) -> float:
        """C_{two_k}, read from its member's one cell."""
        member = self.g(two_k)
        return 0.0 if member is None else member.cells[0][0]

    @classmethod
    def from_dict(cls, values: Mapping[int, float], description: str = "table") -> "CumulantSchedule":
        return cls(description, values.items())

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
    entries = {order: Graphon.from_grid(breaks, cells, label=f"block order {order}")
               for order, cells in cells_by_order.items()}
    return GraphonFamily(entries, description=description or f"{len(masses)} blocks")


def profile_family(sigma, schedule: CumulantSchedule) -> GraphonFamily:
    """Family sigma(x,y)^(2k) * C_{2k} for a variance-profile ensemble; sigma is any kernel."""
    profile = as_graphon(sigma)

    def make(order: int) -> Optional[Graphon]:
        c = schedule.value(order)
        return None if c == 0 else profile.power_scale(order, c)

    return GraphonFamily(rule=make, description=f"profile({profile.label}) x {schedule.description}")
