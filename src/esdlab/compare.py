"""Theory-versus-simulation moment comparison, and JSON config parsing.

A comparison lines up exact (or quadrature) limit moments against replicate
means from the sampler and scores each order by z = (simulated - theory) / SE.
The config parsers turn small JSON documents into kernel families or model
specs; :func:`family_from_config` covers every theory kind, and ``sparse``
is the constant schedule C_{2t} = rate. They only route keys: every
kernel is read by :func:`esdlab.graphons.as_graphon`, every number by
:func:`esdlab.graphons.require_number`, and the families are built by the
builders of :mod:`esdlab.graphons`. The parsers are strict about unknown keys
so typos fail loudly, and a missing or malformed value raises ValidationError.
:mod:`esdlab.models` is imported only for a ``model`` theory and a model spec.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ValidationError
from .graphons import (CumulantSchedule, GraphonFamily, as_graphon, block_family,
                       profile_family, require_number)
from .moments import MomentSeries, graphon_series

if TYPE_CHECKING:
    from .models import ModelSpec

_SCHEDULE_KINDS = ("semicircle", "constant", "schedule")


def _reject_unknown(cfg: dict, allowed: set[str], where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {where} config")


def _required(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ValidationError(f"{where} config needs {key!r}")
    return cfg[key]


def _kind(cfg):
    return cfg.get("kind") if isinstance(cfg, dict) else None


def _orders_dict(mapping, where: str) -> dict[int, object]:
    if not isinstance(mapping, dict) or not mapping:
        raise ValidationError(f"{where} needs a nonempty map of even orders")
    out = {}
    for key, value in mapping.items():
        try:
            order = int(key)
        except (TypeError, ValueError):
            raise ValidationError(f"{where} has a non-integer order {key!r}") from None
        out[order] = value
    return out


def schedule_from_config(cfg: dict) -> CumulantSchedule:
    kind = _kind(cfg)
    if kind == "semicircle":
        _reject_unknown(cfg, {"kind", "c2"}, "semicircle")
        return CumulantSchedule.semicircle(require_number(cfg.get("c2", 1.0), "semicircle c2"))
    if kind == "constant":
        _reject_unknown(cfg, {"kind", "value"}, "constant schedule")
        value = _required(cfg, "value", "constant schedule")
        return CumulantSchedule.constant(require_number(value, "constant schedule value"))
    if kind == "schedule":
        _reject_unknown(cfg, {"kind", "values"}, "schedule")
        values = {order: require_number(c, f"schedule value of order {order}")
                  for order, c in _orders_dict(cfg.get("values"), "schedule").items()}
        return CumulantSchedule.from_dict(values)
    raise ValidationError(f"{kind!r} is not a cumulant schedule kind")


def theory_series_from_config(cfg: dict, two_k_max: int) -> MomentSeries:
    """Build the limit moment series described by a theory config."""
    return graphon_series(family_from_config(cfg), two_k_max)


def family_from_config(cfg: dict) -> GraphonFamily:
    """Kernel family of a theory config of any kind."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValidationError("theory config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind in _SCHEDULE_KINDS:
        return schedule_from_config(cfg)
    if kind == "sparse":
        _reject_unknown(cfg, {"kind", "rate"}, "sparse")
        rate = require_number(_required(cfg, "rate", "sparse"), "sparse rate")
        if rate < 0:
            raise ValidationError(f"mean degree must be nonnegative, got {rate}")
        return CumulantSchedule(f"sparse lambda={rate}", rule=lambda two_k: rate)
    if kind == "graphon":
        _reject_unknown(cfg, {"kind", "g"}, "graphon family")
        entries = {order: as_graphon(g)
                   for order, g in _orders_dict(cfg.get("g"), "graphon family").items()}
        return GraphonFamily(entries, description="graphon config")
    if kind == "band":
        _reject_unknown(cfg, {"kind", "alpha", "periodic", "base"}, "band")
        base = cfg.get("base", {"kind": "semicircle"})
        if _kind(base) not in _SCHEDULE_KINDS + ("graphon",):
            raise ValidationError(f"{_kind(base)!r} cannot serve as a band/profile base")
        alpha = require_number(_required(cfg, "alpha", "band"), "band alpha")
        return family_from_config(base).banded(alpha, cfg.get("periodic", False))
    if kind == "block":
        _reject_unknown(cfg, {"kind", "masses", "cells"}, "block")
        cells = _orders_dict(cfg.get("cells"), "block cells")
        return block_family(_required(cfg, "masses", "block"), cells)
    if kind == "profile":
        _reject_unknown(cfg, {"kind", "sigma", "base"}, "profile")
        base = schedule_from_config(cfg.get("base", {"kind": "semicircle"}))
        return profile_family(_required(cfg, "sigma", "profile"), base)
    if kind == "model":
        from .models import effective_cumulants

        _reject_unknown(cfg, {"kind", "spec", "truncation"}, "model theory")
        spec = model_spec_from_config(cfg.get("spec", {}))
        return effective_cumulants(spec, truncation=truncation_from_config(cfg))
    raise ValidationError(f"unknown theory kind {kind!r}")


def truncation_from_config(cfg: dict) -> float | None:
    """The ``truncation`` of a ``model`` theory config, or None.

    compare truncates every simulated replicate at this level too, so the
    simulation measures the ensemble whose cumulants the theory sums.
    """
    if _kind(cfg) != "model" or cfg.get("truncation") is None:
        return None
    return require_number(cfg["truncation"], "model truncation")


def model_spec_from_config(cfg: dict, n: int | None = None,
                           seed: int | None = None) -> ModelSpec:
    """ModelSpec from JSON; explicit config values win over the fallbacks."""
    from .models import ModelSpec

    if not isinstance(cfg, dict):
        raise ValidationError("model config must be an object")
    _reject_unknown(cfg, {"variant", "n", "seed", "params", "zero_diagonal"}, "model")
    if "variant" not in cfg:
        raise ValidationError("model config needs a 'variant'")
    n = cfg.get("n", n)
    seed = cfg.get("seed", seed)
    if n is None or seed is None:
        raise ValidationError("model config needs n and seed (inline or via flags)")
    return ModelSpec(cfg["variant"], n, seed, cfg.get("params", {}),
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
