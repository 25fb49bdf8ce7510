"""Command-line front end: enumeration, theory moments, simulation, comparison.

Subcommands: ss, moments, simulate, compare, circuits. ss prints one output
mode: the word count (the default, or --count-only), --list or --by-blocks;
--list streams the words under the census's count and checks the two agree.
Outputs are JSON (default) or CSV, to stdout or --out. Every document embeds
the seed and a hash of the parsed payload and the other flags; a timestamp is
added unless --reproducible is set, so reruns can be byte-identical.

moments, simulate and compare take a payload (a theory description, a model
spec, or {"theory":..., "model":...} for compare): a --config file holds it
as JSON, else --theory-json and --model-json give it, so it is read once
either way. Flags are read by argparse alone, and ss and circuits, which take
no payload, take no --config.

Each subcommand imports what it runs when it runs: ss loads combinatorics,
circuits loads circuits and combinatorics, and neither loads numpy,
dataclasses or the theory and sampling modules; moments, simulate and
compare load them inside their command functions, and csv loads only for
CSV output. numpy loads only where arrays begin, so moments on a family of
the exact cell rule (schedules and periodic bands over constants on one
cell, grids, polynomials and open bands on their pieces: listed in
esdlab.moments) starts without it and without dataclasses. No flag chooses
or tunes a node rule: the kernels pick it.

Exit codes: 0 success, 2 validation or numeric trouble, 3 capacity or budget,
4 comparison failure.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
import time
from collections.abc import Iterable, Iterator
from json.encoder import encode_basestring_ascii

from .defaults import DEFAULT_CIRCUIT_BUDGET, DEFAULT_EESD_BUDGET, DEFAULT_SEED
from .errors import CapacityError, NumericError, ValidationError

#: strings per write when a JSON array is streamed
_STREAM_BATCH = 4096


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--reproducible", action="store_true",
                     help="omit the timestamp so reruns are byte-identical")


def non_negative(text: str) -> float:
    """A budget or threshold, >= 0; NaN is refused, as every comparison with it is False."""
    value = float(text)
    if not value >= 0:
        raise ValueError(f"{text!r} is not a number >= 0")
    return value


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
    _add_common(mo)
    mo.set_defaults(func=cmd_moments)

    si = subs.add_parser("simulate", help="sample a model, report spectrum and moments")
    si.add_argument("--model-json", help="inline model spec (JSON object)")
    si.add_argument("--n", type=int, default=1000)
    si.add_argument("--reps", type=int, default=1)
    si.add_argument("--k-max", type=int, default=6)
    si.add_argument("--bins", type=int, help="histogram bin count (default Freedman-Diaconis)")
    si.add_argument("--budget", type=non_negative, default=DEFAULT_EESD_BUDGET)
    _add_common(si)
    si.set_defaults(func=cmd_simulate)

    co = subs.add_parser("compare", help="z-score simulated moments against theory")
    co.add_argument("--theory-json", help="inline theory config")
    co.add_argument("--model-json", help="inline model spec")
    co.add_argument("--two-k", type=int, default=6)
    co.add_argument("--n", type=int, default=1000)
    co.add_argument("--reps", type=int, default=30)
    co.add_argument("--threshold", type=non_negative, default=4.0)
    co.add_argument("--budget", type=non_negative, default=DEFAULT_EESD_BUDGET)
    _add_common(co)
    co.set_defaults(func=cmd_compare)

    ci = subs.add_parser("circuits", help="exact circuit counts for one word")
    ci.add_argument("word", help="letters as in 'abba', or comma-separated integers")
    ci.add_argument("--n-values", default="2,3,4,5",
                    help="comma-separated matrix sizes")
    ci.add_argument("--budget", type=non_negative, default=float(DEFAULT_CIRCUIT_BUDGET))
    _add_common(ci)
    ci.set_defaults(func=cmd_circuits)

    for sub in (mo, si, co):  # the commands that take a payload
        sub.add_argument("--config", help="JSON file holding the payload")
        sub.add_argument("--parallel", type=int,
                         help="accepted and ignored: replicates run one after another and "
                              "BLAS chooses its own threads")
    return parser


# -- config and output plumbing ----------------------------------------------

def _load_json(text: str | None, where: str):
    """Parse a JSON flag or file; an absent or empty one gives None, and an object
    that repeats a key raises ValidationError rather than keep its last value."""
    if not text:
        return None

    def unique(pairs: list) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"{where} repeats the key {key!r} in one object")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where} is not valid JSON: {exc}") from None


def _payload(args: argparse.Namespace, *sections: str):
    """The payload of this run, read once: the --config file's, else the JSON of the
    inline ``--SECTION-json`` flags, that section's itself or an object of several."""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(
                f"cannot read config file {args.config}: {exc.strerror}") from None
        payload = _load_json(text, f"config file {args.config}")
        if not isinstance(payload, dict):
            raise ValidationError("config file must hold a JSON object")
        return payload
    inline = {section: _load_json(getattr(args, f"{section}_json"), f"--{section}-json")
              for section in sections}
    if None in inline.values():
        raise ValidationError(f"{args.command} needs --config or "
                              + " and ".join(f"--{section}-json" for section in sections))
    return inline if len(sections) > 1 else inline[sections[0]]


def _sha256_hex(blob: bytes) -> str:
    """The SHA-256 hex digest of ``blob``, from the interpreter's built-in hash.

    Importing hashlib maps OpenSSL's libcrypto, a few megabytes of resident
    memory and milliseconds of start-up on every command; hashlib falls back
    to these same modules, so the digests agree.
    """
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256
        else:
            from _sha256 import sha256
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256
    return sha256(blob).hexdigest()


def _config_digest(payload: dict, args: argparse.Namespace) -> str:
    """Digest of the parsed payload and the other flags, so neither the payload's
    source nor its spelling changes it."""
    mirror = {k: v for k, v in vars(args).items() if k not in
              ("func", "config", "out", "parallel", "theory_json", "model_json")}
    blob = json.dumps({"payload": payload, "args": mirror}, sort_keys=True, default=str)
    return _sha256_hex(blob.encode())


def _emit(args: argparse.Namespace, payload: dict, document: dict,
          csv_rows: Iterable[list]) -> None:
    """Write the document, as JSON or as ``csv_rows``, to --out or stdout.

    A top-level value of ``document`` that is an iterator of strings is written
    as a JSON array a batch at a time, and ``csv_rows`` may be any iterable, so
    a listing is never held whole in memory.
    """
    document = {"command": args.command, "seed": args.seed,
                "config_sha256": _config_digest(payload, args), **document}
    if not args.reproducible:
        document["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    try:
        out = args.out and open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write output file {args.out}: {exc.strerror}") from None
    with out or contextlib.nullcontext(sys.stdout) as fh:
        if args.format == "csv":
            import csv

            csv.writer(fh, lineterminator="\n").writerows(csv_rows)
        else:
            _write_json(fh, document)


def _write_json(fh, document: dict) -> None:
    """Write ``json.dumps(document, indent=2) + "\n"``, streaming an iterator value."""
    key = next((k for k, v in document.items() if isinstance(v, Iterator)), None)
    if key is None:
        fh.write(json.dumps(document, indent=2) + "\n")
        return
    # a top-level key, unlike a nested one, follows a newline and two spaces
    entry = f"\n  {json.dumps(key)}: "
    head, _, tail = json.dumps({**document, key: None}, indent=2).partition(entry + "null")
    fh.write(head + entry)
    items = map(encode_basestring_ascii, document[key])  # json.dumps's own string encoder
    opened = False
    while batch := list(itertools.islice(items, _STREAM_BATCH)):
        fh.write((",\n    " if opened else "[\n    ") + ",\n    ".join(batch))
        opened = True
    fh.write(("\n  ]" if opened else "[]") + tail + "\n")


# -- subcommands ---------------------------------------------------------------

def cmd_ss(args: argparse.Namespace) -> int:
    from . import combinatorics as comb

    # one output mode, checked here: an argparse group's refusal adds a usage line
    modes = [f"--{dest.replace('_', '-')}" for dest in ("list", "by_blocks", "count_only")
             if getattr(args, dest)]
    if len(modes) > 1:
        raise ValidationError(f"ss takes one output mode, got {' and '.join(modes)}")
    two_k = args.two_k
    if two_k < 1:
        raise ValidationError(f"length must be >= 1, got {two_k}")
    by_blocks = comb.count_ss_by_blocks(two_k)
    count = sum(by_blocks.values())
    if args.by_blocks:
        rows = [[b, c] for b, c in sorted(by_blocks.items())]
        doc = {"two_k": two_k, "by_blocks": {str(b): c for b, c in rows}, "count": count}
        _emit(args, {}, doc, [["blocks", "count"], *rows])
    elif args.list:
        # the words stream after the count, which therefore comes from the census;
        # their number then checks the word walk against the census
        written = 0

        def words():
            nonlocal written
            for letters in comb.ss_letters(two_k):
                written += 1
                yield comb.spell(letters)

        listing = words()
        _emit(args, {}, {"two_k": two_k, "count": count, "words": listing},
              itertools.chain([["word"]], ([w] for w in listing)))
        if written != count:
            raise RuntimeError(f"ss {two_k} --list wrote {written} words, "
                               f"but the census counts {count}")
    else:
        _emit(args, {}, {"two_k": two_k, "count": count}, [["two_k", "count"], [two_k, count]])
    return 0


def cmd_moments(args: argparse.Namespace) -> int:
    from .compare import theory_series_from_config
    from .graphons import require_even_order

    theory = _payload(args, "theory")
    require_even_order(args.two_k, "--two-k must be even and >= 2")
    series = theory_series_from_config(theory, args.two_k)
    _emit(args, theory, {"series": series.to_json_dict()}, series.to_csv_rows())
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .compare import model_spec_from_config
    from .spectra import histogram, replicate_esds, require_moment_order, spectral_moments

    model_cfg = _payload(args, "model")
    spec = model_spec_from_config(model_cfg, n=args.n, seed=args.seed)
    require_moment_order(args.k_max)
    if args.bins is not None and args.bins < 1:
        raise ValidationError(f"need at least one bin, got {args.bins}")
    spectra = replicate_esds(spec, args.reps, budget=args.budget)
    moments = [{"k": e.order, "value": e.value, "se": e.error if args.reps > 1 else None}
               for e in spectral_moments(spectra, args.k_max).entries]
    pooled = np.sort(np.concatenate(spectra))
    hist = histogram(pooled, bins=args.bins)
    doc = {"model": spec.to_json_dict(), "replicates": args.reps,
           "moments": moments, "histogram": hist.to_json_dict()}
    if pooled.size <= 4000:
        doc["eigenvalues"] = [float(v) for v in pooled]
    _emit(args, model_cfg, doc, hist.to_csv_rows())
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .compare import (compare_series, model_spec_from_config, theory_series_from_config,
                          truncation_from_config)
    from .graphons import require_even_order, require_keys
    from .spectra import eesd_moments

    payload = require_keys(_payload(args, "theory", "model"), "compare config", ("theory", "model"))
    theory_cfg, model_cfg = payload["theory"], payload["model"]
    require_even_order(args.two_k, "--two-k must be even and >= 2")
    theory = theory_series_from_config(theory_cfg, args.two_k)
    spec = model_spec_from_config(model_cfg, n=args.n, seed=args.seed)
    simulated = eesd_moments(spec, args.two_k, args.reps, budget=args.budget,
                             truncation=truncation_from_config(theory_cfg))
    report = compare_series(theory, simulated, args.threshold)
    doc = {"model": spec.to_json_dict(), "theory": theory_cfg,
           "replicates": args.reps, "report": report.to_json_dict()}
    _emit(args, payload, doc, report.to_csv_rows())
    if not args.out and args.format == "json":
        sys.stderr.write(report.format_table() + "\n")
    return 0 if report.passed else 4


def cmd_circuits(args: argparse.Namespace) -> int:
    from . import circuits as circuits_mod
    from . import combinatorics as comb

    word = comb.Word.from_string(args.word)
    try:
        n_values = [int(part) for part in str(args.n_values).split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"--n-values must be comma-separated integers, "
                              f"got {args.n_values!r}") from None
    if not n_values or any(n < 1 for n in n_values):
        raise ValidationError("matrix sizes must be positive")
    table = circuits_mod.ratio_table(word, n_values, budget=args.budget)
    entries = [{"n": res.n, "count": res.count, "ratio": float(res.ratio),
                "ratio_exact": str(res.ratio)} for res in table]
    rows = [["word", "n", "count", "ratio"],
            *([str(word), res.n, res.count, repr(float(res.ratio))] for res in table)]
    _emit(args, {}, {"word": str(word), "results": entries}, rows)
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
