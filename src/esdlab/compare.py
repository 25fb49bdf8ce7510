"""Theory-versus-simulation moment comparison, and JSON config parsing.

A comparison lines up exact (or quadrature) limit moments against replicate
means from the sampler and scores each order by z = (simulated - theory) / SE.
The config parsers turn small JSON documents into schedules, kernel families,
or model specs; they are strict about unknown keys so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .graphons import Graphon, GraphonFamily
from .models import ModelSpec, effective_cumulants
from .moments import (CumulantSchedule, MomentSeries, QuadratureConfig, block_family,
                      constant_series, graphon_series, profile_family, sparse_series)
from .quadrature import DEFAULT_CONFIG


def _reject_unknown(cfg: dict, allowed: set[str], where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ValidationError(f"unknown keys {sorted(unknown)} in {where} config")


def graphon_from_json(obj) -> Graphon:
    """Number, expression string, or {breaks, cells} grid."""
    if isinstance(obj, (int, float)):
        return Graphon.constant(float(obj))
    if isinstance(obj, str):
        return Graphon.from_expression(obj)
    if isinstance(obj, dict):
        _reject_unknown(obj, {"breaks", "cells", "constant", "expression", "bound"}, "graphon")
        if "constant" in obj:
            return Graphon.constant(float(obj["constant"]))
        if "expression" in obj:
            return Graphon.from_expression(obj["expression"], obj.get("bound"))
        if "breaks" in obj and "cells" in obj:
            return Graphon.from_grid(obj["breaks"], obj["cells"])
    raise ValidationError(f"cannot read a graphon from {obj!r}")


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
    kind = cfg.get("kind")
    if kind == "semicircle":
        _reject_unknown(cfg, {"kind", "c2"}, "semicircle")
        return CumulantSchedule.semicircle(float(cfg.get("c2", 1.0)))
    if kind == "constant":
        _reject_unknown(cfg, {"kind", "value"}, "constant schedule")
        return CumulantSchedule.constant(float(cfg["value"]))
    if kind == "schedule":
        _reject_unknown(cfg, {"kind", "values"}, "schedule")
        values = {k: float(v) for k, v in _orders_dict(cfg.get("values"), "schedule").items()}
        return CumulantSchedule.from_dict(values)
    raise ValidationError(f"{kind!r} is not a cumulant schedule kind")


def theory_series_from_config(cfg: dict, two_k_max: int,
                              quad: QuadratureConfig = DEFAULT_CONFIG) -> MomentSeries:
    """Build the limit moment series described by a theory config."""
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValidationError("theory config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind in ("semicircle", "constant", "schedule"):
        return constant_series(schedule_from_config(cfg), two_k_max)
    if kind == "sparse":
        _reject_unknown(cfg, {"kind", "rate"}, "sparse")
        return sparse_series(float(cfg["rate"]), two_k_max)
    if kind == "graphon":
        return graphon_series(_family_from_config(cfg), two_k_max, quad)
    if kind == "band":
        _reject_unknown(cfg, {"kind", "alpha", "periodic", "base"}, "band")
        base = _family_from_config(cfg.get("base", {"kind": "semicircle"}))
        family = base.banded(float(cfg["alpha"]), bool(cfg.get("periodic", False)))
        return graphon_series(family, two_k_max, quad)
    if kind == "block":
        _reject_unknown(cfg, {"kind", "masses", "cells"}, "block")
        cells = _orders_dict(cfg.get("cells"), "block cells")
        return graphon_series(block_family(cfg["masses"], cells), two_k_max, quad)
    if kind == "profile":
        _reject_unknown(cfg, {"kind", "sigma", "base"}, "profile")
        base = schedule_from_config(cfg.get("base", {"kind": "semicircle"}))
        return graphon_series(profile_family(cfg["sigma"], base), two_k_max, quad)
    if kind == "model":
        _reject_unknown(cfg, {"kind", "spec", "truncation"}, "model theory")
        spec = model_spec_from_config(cfg.get("spec", {}))
        limit = effective_cumulants(spec, truncation=cfg.get("truncation"))
        if isinstance(limit, CumulantSchedule):
            return constant_series(limit, two_k_max)
        return graphon_series(limit, two_k_max, quad)
    raise ValidationError(f"unknown theory kind {kind!r}")


def _family_from_config(cfg: dict) -> GraphonFamily:
    kind = cfg.get("kind")
    if kind in ("semicircle", "constant", "schedule"):
        return schedule_from_config(cfg).as_family()
    if kind == "graphon":
        _reject_unknown(cfg, {"kind", "g"}, "graphon family")
        entries = {order: graphon_from_json(g)
                   for order, g in _orders_dict(cfg.get("g"), "graphon family").items()}
        return GraphonFamily(entries, description="graphon config")
    raise ValidationError(f"{kind!r} cannot serve as a band/profile base")


def model_spec_from_config(cfg: dict, n: int | None = None,
                           seed: int | None = None) -> ModelSpec:
    """ModelSpec from JSON; explicit config values win over the fallbacks."""
    if not isinstance(cfg, dict):
        raise ValidationError("model config must be an object")
    _reject_unknown(cfg, {"variant", "n", "seed", "params", "zero_diagonal"}, "model")
    if "variant" not in cfg:
        raise ValidationError("model config needs a 'variant'")
    n = cfg.get("n", n)
    seed = cfg.get("seed", seed)
    if n is None or seed is None:
        raise ValidationError("model config needs n and seed (inline or via flags)")
    return ModelSpec(cfg["variant"], int(n), int(seed), cfg.get("params", {}),
                     bool(cfg.get("zero_diagonal", False)))


@dataclass(frozen=True)
class ComparisonRow:
    order: int
    theory: float
    simulated: float
    se: float
    z: float


@dataclass(frozen=True)
class ComparisonReport:
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
