"""Command-line front end: enumeration, theory moments, simulation, comparison.

Subcommands: ss, moments, simulate, compare, circuits. Outputs are JSON
(default) or CSV, to stdout or --out. Every document embeds the seed and a
hash of the effective configuration; a timestamp is added unless
--reproducible is set, so reruns can be byte-identical.

A --config file is JSON. Its top level is the payload for the subcommand
(theory description, model spec, or {"theory":..., "model":...} for compare);
an optional "args" object overrides command-line flags. Precedence is config
file over flags over built-in defaults.

Exit codes: 0 success, 2 validation or numeric trouble, 3 capacity or budget,
4 comparison failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import circuits as circuits_mod
from . import combinatorics as comb
from .compare import compare_series, model_spec_from_config, theory_series_from_config
from .errors import CapacityError, NumericError, ValidationError
from .models import DEFAULT_SEED
from .quadrature import QuadratureConfig
from .spectra import (ESD, DEFAULT_EESD_BUDGET, eesd_moments, histogram, replicate_esds,
                      require_moment_order, spectral_moments)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; overrides flags")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--reproducible", action="store_true",
                     help="omit the timestamp so reruns are byte-identical")


def _add_quadrature(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--quad-points", type=int, default=32,
                     help="Gauss-Legendre points per dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdlab",
        description="limiting spectral distributions: enumeration, moments, simulation")
    subs = parser.add_subparsers(dest="command", required=True)

    ss = subs.add_parser("ss", help="special symmetric words of one length")
    ss.add_argument("two_k", type=int)
    ss.add_argument("--list", action="store_true", help="emit the words themselves")
    ss.add_argument("--by-blocks", action="store_true", help="counts per block count")
    ss.add_argument("--count-only", action="store_true")
    _add_common(ss)
    ss.set_defaults(func=cmd_ss)

    mo = subs.add_parser("moments", help="limit moment series from a theory config")
    mo.add_argument("--theory-json", help="inline theory config (JSON object)")
    mo.add_argument("--two-k", type=int, default=10, help="largest even order")
    _add_quadrature(mo)
    _add_common(mo)
    mo.set_defaults(func=cmd_moments)

    si = subs.add_parser("simulate", help="sample a model, report spectrum and moments")
    si.add_argument("--model-json", help="inline model spec (JSON object)")
    si.add_argument("--n", type=int, default=1000)
    si.add_argument("--reps", type=int, default=1)
    si.add_argument("--k-max", type=int, default=6)
    si.add_argument("--bins", type=int, help="histogram bin count (default Freedman-Diaconis)")
    si.add_argument("--budget", type=float, default=DEFAULT_EESD_BUDGET)
    _add_common(si)
    si.set_defaults(func=cmd_simulate)

    co = subs.add_parser("compare", help="z-score simulated moments against theory")
    co.add_argument("--theory-json", help="inline theory config")
    co.add_argument("--model-json", help="inline model spec")
    co.add_argument("--two-k", type=int, default=6)
    co.add_argument("--n", type=int, default=1000)
    co.add_argument("--reps", type=int, default=30)
    co.add_argument("--threshold", type=float, default=4.0)
    co.add_argument("--budget", type=float, default=DEFAULT_EESD_BUDGET)
    _add_quadrature(co)
    _add_common(co)
    co.set_defaults(func=cmd_compare)

    ci = subs.add_parser("circuits", help="exact circuit counts for one word")
    ci.add_argument("word", help="letters as in 'abba', or comma-separated integers")
    ci.add_argument("--n-values", default="2,3,4,5",
                    help="comma-separated matrix sizes")
    ci.add_argument("--budget", type=float, default=float(circuits_mod.DEFAULT_BUDGET))
    _add_common(ci)
    ci.set_defaults(func=cmd_circuits)

    for sub in (mo, si, co):
        sub.add_argument("--parallel", type=int,
                         help="accepted and ignored: replicates run one after another and "
                              "BLAS chooses its own threads")
    return parser


# -- config and output plumbing ----------------------------------------------

def _apply_config(args: argparse.Namespace) -> dict:
    """Load --config, apply its "args" overrides, return the payload part."""
    if not args.config:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    payload = dict(cfg)
    overrides = payload.pop("args", {})
    if not isinstance(overrides, dict):
        raise ValidationError("config 'args' must be an object of flag overrides")
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest) or dest in ("config", "func", "command"):
            raise ValidationError(f"config overrides unknown flag {key!r}")
        setattr(args, dest, value)
    return payload


def _config_digest(payload: dict, args: argparse.Namespace) -> str:
    mirror = {k: v for k, v in vars(args).items()
              if k not in ("func", "config", "out", "parallel")}
    blob = json.dumps({"payload": payload, "args": mirror}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _emit(args: argparse.Namespace, payload_cfg: dict, document: dict,
          csv_rows: list[list] | None = None) -> None:
    document = {"command": args.command, "seed": args.seed,
                "config_sha256": _config_digest(payload_cfg, args), **document}
    if not args.reproducible:
        document["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    if args.format == "csv":
        if csv_rows is None:
            raise ValidationError(f"{args.command} has no CSV form for this output")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv_rows)
        text = buf.getvalue()
    else:
        text = json.dumps(document, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad_from_args(args: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(points=args.quad_points)


# -- subcommands ---------------------------------------------------------------

def cmd_ss(args: argparse.Namespace) -> int:
    payload_cfg = _apply_config(args)
    two_k = payload_cfg.get("two_k", args.two_k)
    if two_k < 1:
        raise ValidationError(f"length must be >= 1, got {two_k}")
    if two_k % 2:
        doc = {"two_k": two_k, "count": 0, "words": [],
               "note": "odd lengths admit no special symmetric words (every block is even)"}
        _emit(args, payload_cfg, doc, [["word"]])
        return 0
    doc: dict = {"two_k": two_k}
    rows: list[list]
    if args.by_blocks:
        by_blocks = comb.count_ss_by_blocks(two_k)
        doc["by_blocks"] = {str(b): c for b, c in sorted(by_blocks.items())}
        doc["count"] = sum(by_blocks.values())
        rows = [["blocks", "count"]] + [[b, c] for b, c in sorted(by_blocks.items())]
    elif args.list:
        words = [str(w) for w in comb.enumerate_ss(two_k)]
        doc["count"] = len(words)
        doc["words"] = words
        rows = [["word"]] + [[w] for w in words]
    else:
        count = sum(comb.count_ss_by_blocks(two_k).values())
        doc["count"] = count
        rows = [["two_k", "count"], [two_k, count]]
    _emit(args, payload_cfg, doc, rows)
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    payload_cfg = _apply_config(args)
    theory = payload_cfg or (json.loads(args.theory_json) if args.theory_json else None)
    if theory is None:
        raise ValidationError("moments needs --config or --theory-json")
    series = theory_series_from_config(theory, args.two_k, _quad_from_args(args))
    _emit(args, payload_cfg, {"series": series.to_json_dict()}, series.to_csv_rows())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    payload_cfg = _apply_config(args)
    model_cfg = payload_cfg or (json.loads(args.model_json) if args.model_json else None)
    if model_cfg is None:
        raise ValidationError("simulate needs --config or --model-json")
    spec = model_spec_from_config(model_cfg, n=args.n, seed=args.seed)
    require_moment_order(args.k_max)
    esds = replicate_esds(spec, args.reps, budget=args.budget)
    moments = [{"k": e.order, "value": e.value, "se": e.error if args.reps > 1 else None}
               for e in spectral_moments(esds, args.k_max).entries]
    pooled = np.sort(np.concatenate([e.eigenvalues for e in esds]))
    hist = histogram(ESD(pooled, {"pooled": args.reps}), bins=args.bins)
    doc = {"model": spec.to_json_dict(), "replicates": args.reps,
           "moments": moments, "histogram": hist.to_json_dict()}
    if pooled.size <= 4000:
        doc["eigenvalues"] = [float(v) for v in pooled]
    _emit(args, payload_cfg, doc, hist.to_csv_rows())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    payload_cfg = _apply_config(args)
    theory_cfg = payload_cfg.get("theory") if payload_cfg else None
    model_cfg = payload_cfg.get("model") if payload_cfg else None
    if payload_cfg and (theory_cfg is None or model_cfg is None):
        raise ValidationError("compare config needs 'theory' and 'model' sections")
    if theory_cfg is None:
        theory_cfg = json.loads(args.theory_json) if args.theory_json else None
    if model_cfg is None:
        model_cfg = json.loads(args.model_json) if args.model_json else None
    if theory_cfg is None or model_cfg is None:
        raise ValidationError("compare needs theory and model configs")
    if args.two_k < 2 or args.two_k % 2:
        raise ValidationError(f"--two-k must be even and >= 2, got {args.two_k}")
    theory = theory_series_from_config(theory_cfg, args.two_k, _quad_from_args(args))
    spec = model_spec_from_config(model_cfg, n=args.n, seed=args.seed)
    simulated = eesd_moments(spec, args.two_k, args.reps, budget=args.budget)
    report = compare_series(theory, simulated, args.threshold)
    doc = {"model": spec.to_json_dict(), "theory": theory_cfg,
           "replicates": args.reps, "report": report.to_json_dict()}
    _emit(args, payload_cfg, doc, report.to_csv_rows())
    if not args.out and args.format == "json":
        sys.stderr.write(report.format_table() + "\n")
    return 0 if report.passed else 4


def cmd_circuits(args: argparse.Namespace) -> int:
    payload_cfg = _apply_config(args)
    word = comb.Word.from_string(args.word)
    try:
        n_values = [int(part) for part in str(args.n_values).split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--n-values must be comma-separated integers, "
                              f"got {args.n_values!r}") from None
    if not n_values or any(n < 1 for n in n_values):
        raise ValidationError("matrix sizes must be positive")
    rows = [["word", "n", "count", "ratio"]]
    entries = []
    for n in n_values:
        res = circuits_mod.count_circuits(word, n, budget=args.budget)
        entries.append({"n": n, "count": res.count, "ratio": float(res.ratio),
                        "ratio_exact": str(Fraction(res.ratio))})
        rows.append([str(word), n, res.count, repr(float(res.ratio))])
    _emit(args, payload_cfg, {"word": str(word), "results": entries}, rows)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
