"""Theory-versus-simulation moment comparison, and JSON config parsing.

A comparison lines up exact (or quadrature) limit moments against replicate
means from the sampler and scores each order by z = (simulated - theory) / SE.
The config parsers turn small JSON documents into kernel families or model
specs; :func:`family_from_config` covers every theory kind, and ``sparse``
is the constant schedule C_{2t} = rate. They only route keys: every
object's keys are checked by :func:`esdlab.graphons.require_keys` against the
kind's row of ``_THEORY_KEYS``, every kernel is read by
:func:`esdlab.graphons.as_graphon`, every number by
:func:`esdlab.graphons.require_number`, and the families are built by the
builders of :mod:`esdlab.graphons`. The parsers are strict about unknown keys
so typos fail loudly, and a missing or malformed value raises ValidationError.
:mod:`esdlab.models` is imported only for a ``model`` theory and a model spec.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError
from .graphons import (CumulantSchedule, GraphonFamily, as_graphon, block_family,
                       profile_family, require_keys, require_number)
from .moments import MomentSeries, graphon_series

if TYPE_CHECKING:
    from .models import ModelSpec

#: each theory kind's keys beside "kind": (required, optional)
_THEORY_KEYS = {
    "semicircle": ((), ("c2",)),
    "constant": (("value",), ()),
    "schedule": (("values",), ()),
    "sparse": (("rate",), ()),
    "graphon": (("g",), ()),
    "band": (("alpha",), ("periodic", "base")),
    "block": (("masses", "cells"), ()),
    "profile": (("sigma",), ("base",)),
    "model": (("spec",), ("truncation",)),
}
_SCHEDULE_KINDS = ("semicircle", "constant", "schedule")


def _orders_dict(mapping, where: str) -> dict[int, object]:
    if not isinstance(mapping, dict) or not mapping:
        raise ValidationError(f"{where} needs a nonempty map of even orders")
    out = {}
    for key, value in mapping.items():
        try:
            order = int(key)
        except (TypeError, ValueError):
            order = None
        if order is None or str(order) != str(key):  # so "02" or "1_0" cannot repeat an order
            raise ValidationError(f"{where} order {key!r} is not an integer in its own decimal "
                                  "text, such as \"2\"")
        out[order] = value
    return out


def schedule_from_config(cfg: dict) -> CumulantSchedule:
    """The cumulant schedule of a ``semicircle``, ``constant`` or ``schedule`` config."""
    return family_from_config(cfg, _SCHEDULE_KINDS, "{!r} is not a cumulant schedule kind")


def theory_series_from_config(cfg: dict, two_k_max: int) -> MomentSeries:
    """Build the limit moment series described by a theory config."""
    return graphon_series(family_from_config(cfg), two_k_max)


def family_from_config(cfg: dict, kinds: tuple = tuple(_THEORY_KEYS),
                       refusal: str = "unknown theory kind {!r}") -> GraphonFamily:
    """Kernel family of a theory config of one of ``kinds``, by default any.

    Its keys are checked against its kind's row of ``_THEORY_KEYS``; a kind
    outside ``kinds`` raises ValidationError with ``refusal``.
    """
    kind = require_keys(cfg, "theory config", ("kind",), cfg)["kind"]  # other keys: see below
    if kind not in kinds:
        raise ValidationError(refusal.format(kind))
    required, optional = _THEORY_KEYS[kind]
    require_keys(cfg, f"{kind} theory", ("kind", *required), optional)
    if kind == "semicircle":
        return CumulantSchedule.semicircle(require_number(cfg.get("c2", 1.0), "semicircle c2"))
    if kind == "constant":
        return CumulantSchedule.constant(require_number(cfg["value"], "constant schedule value"))
    if kind == "schedule":
        values = {order: require_number(c, f"schedule value of order {order}")
                  for order, c in _orders_dict(cfg["values"], "schedule").items()}
        return CumulantSchedule.from_dict(values)
    if kind == "sparse":
        rate = require_number(cfg["rate"], "sparse rate")
        if rate < 0:
            raise ValidationError(f"mean degree must be nonnegative, got {rate}")
        return CumulantSchedule(f"sparse lambda={rate}", rule=lambda two_k: rate)
    if kind == "graphon":
        entries = {order: as_graphon(g)
                   for order, g in _orders_dict(cfg["g"], "graphon family").items()}
        return GraphonFamily(entries, description="graphon config")
    if kind == "band":
        base = family_from_config(cfg.get("base", {"kind": "semicircle"}),
                                  _SCHEDULE_KINDS + ("graphon",),
                                  "{!r} cannot serve as a band/profile base")
        return base.banded(require_number(cfg["alpha"], "band alpha"), cfg.get("periodic", False))
    if kind == "block":
        return block_family(cfg["masses"], _orders_dict(cfg["cells"], "block cells"))
    if kind == "profile":
        base = schedule_from_config(cfg.get("base", {"kind": "semicircle"}))
        return profile_family(cfg["sigma"], base)
    from .models import effective_cumulants  # the one kind left, "model"

    # the n -> infinity limit reads neither n nor seed, so a spec may leave both out
    # (n = sys.maxsize passes every range check); an n it gives is checked as for a sample
    spec = model_spec_from_config(cfg["spec"], n=sys.maxsize, seed=0)
    return effective_cumulants(spec, truncation=truncation_from_config(cfg))


def truncation_from_config(cfg: dict) -> float | None:
    """The ``truncation`` of a ``model`` theory config, or None.

    compare truncates every simulated replicate at this level too, so the
    simulation measures the ensemble whose cumulants the theory sums.
    """
    if cfg.get("kind") != "model" or cfg.get("truncation") is None:
        return None
    return require_number(cfg["truncation"], "model truncation")


def model_spec_from_config(cfg: dict, n: int | None = None,
                           seed: int | None = None) -> ModelSpec:
    """ModelSpec from JSON; explicit config values win over the fallbacks, and
    ``n`` and ``seed`` are required keys where their fallback is None."""
    from .models import ModelSpec

    unset = tuple(key for key, fallback in (("n", n), ("seed", seed)) if fallback is None)
    require_keys(cfg, "model config", ("variant", *unset), ("n", "seed", "params", "zero_diagonal"))
    return ModelSpec(cfg["variant"], cfg.get("n", n), cfg.get("seed", seed), cfg.get("params", {}),
                     cfg.get("zero_diagonal", False))


class ComparisonRow(NamedTuple):
    order: int
    theory: float
    simulated: float
    se: float
    z: float


class ComparisonReport(NamedTuple):
    rows: tuple[ComparisonRow, ...]
    threshold: float

    @property
    def passed(self) -> bool:
        return all(abs(r.z) <= self.threshold for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "passed": self.passed,
            "rows": [{"two_k": r.order, "beta_theory": r.theory, "beta_sim": r.simulated,
                      "se": r.se, "z": None if math.isinf(r.z) else r.z} for r in self.rows],
        }

    def to_csv_rows(self) -> list[list]:
        rows = [["two_k", "beta_theory", "beta_sim", "se", "z"]]
        rows += [[r.order, repr(r.theory), repr(r.simulated), repr(r.se), repr(r.z)]
                 for r in self.rows]
        return rows

    def format_table(self) -> str:
        lines = [f"{'2k':>4} {'theory':>14} {'simulated':>14} {'SE':>12} {'z':>8}"]
        for r in self.rows:
            lines.append(f"{r.order:>4} {r.theory:>14.6g} {r.simulated:>14.6g} "
                         f"{r.se:>12.3g} {r.z:>8.2f}")
        lines.append(f"threshold |z| <= {self.threshold}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def compare_series(theory: MomentSeries, simulated: MomentSeries,
                   threshold: float = 4.0) -> ComparisonReport:
    """Line up the two series on the theory side's even orders."""
    sim_orders = set(simulated.orders())
    rows = []
    for entry in theory.entries:
        if entry.order not in sim_orders:
            raise ValidationError(
                f"simulation series lacks order {entry.order}; ranges must match")
        sim = next(e for e in simulated.entries if e.order == entry.order)
        gap = sim.value - entry.value
        if sim.error > 0:
            z = gap / sim.error
        else:
            z = 0.0 if gap == 0 else math.copysign(math.inf, gap)
        rows.append(ComparisonRow(entry.order, entry.value, sim.value, sim.error, z))
    if not rows:
        raise ValidationError("nothing to compare: theory series is empty")
    return ComparisonReport(tuple(rows), threshold)
