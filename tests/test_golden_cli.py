"""Golden CLI documents: each must come out byte for byte.

Each case is one ``--reproducible`` command. Those whose kernels are expression
text take one per node rule an expression can take (the exact cell rule,
Gauss, the grid) and one per command that samples from an expression. The
others take one per kind of kernel a theory config builds (blocks, open and
periodic bands, a profile over a grid, a model's schedule with a truncated
heavy tail), and the word census, the word listing and circuit counts. The
documents in golden/cli/ pin its exit code and stdout.
Regenerate them only when a change is meant to change these numbers, and say
why where the change is recorded:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from esdlab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli"

_INHOMOGENEOUS = {"variant": "sparse_inhomogeneous", "params": {"prob": "(x + y)/(2*n)"}}
_GRID = {"breaks": [0, 0.25, 1], "cells": [[2, 0.5], [0.5, 1]]}

CASES = {
    "moments_graphon_polynomial": (
        "moments", "--theory-json", '{"kind":"graphon","g":{"2":"4*x*y"}}', "--two-k", "8"),
    "moments_graphon_smooth": (
        "moments", "--theory-json", '{"kind":"graphon","g":{"2":"1 + cos(2*pi*(x - y))"}}',
        "--two-k", "6"),
    "moments_graphon_step": (
        "moments", "--theory-json", '{"kind":"graphon","g":{"2":"ind(x + y < 1)"}}',
        "--two-k", "6"),
    "moments_profile_sqrt": (
        "moments", "--theory-json", '{"kind":"profile","sigma":"2*sqrt(x*y)"}', "--two-k", "10"),
    "simulate_variance_profile": (
        "simulate", "--model-json",
        '{"variant":"variance_profile","params":{"profile":"0.5 + 0.5*ind(x + y < 1)"}}',
        "--n", "64", "--reps", "2"),
    "compare_sparse_inhomogeneous": (
        "compare", "--theory-json",
        json.dumps({"kind": "model", "spec": {**_INHOMOGENEOUS, "n": 100, "seed": 1}}),
        "--model-json", json.dumps(_INHOMOGENEOUS), "--n", "100", "--reps", "5", "--two-k", "4"),
    "moments_block": (
        "moments", "--theory-json",
        json.dumps({"kind": "block", "masses": [0.25, 0.75],
                    "cells": {"2": _GRID["cells"], "4": [[3, 1], [1, 0.5]]}}), "--two-k", "8"),
    "moments_band_open": (
        "moments", "--theory-json", '{"kind":"band","alpha":0.3,"periodic":false}', "--two-k", "8"),
    "moments_band_periodic": (
        "moments", "--theory-json", '{"kind":"band","alpha":0.3,"periodic":true}', "--two-k", "8"),
    "moments_band_periodic_polynomial": (
        "moments", "--theory-json",
        '{"kind":"band","alpha":0.3,"periodic":true,"base":{"kind":"graphon","g":{"2":"x*y"}}}',
        "--two-k", "6"),
    "moments_profile_grid": (
        "moments", "--theory-json",
        json.dumps({"kind": "profile", "sigma": _GRID, "base": {"kind": "constant", "value": 2}}),
        "--two-k", "8"),
    "moments_model_heavy_tailed": (
        "moments", "--theory-json",
        json.dumps({"kind": "model", "spec": {"variant": "heavy_tailed", "n": 300, "seed": 1,
                                              "params": {"tail_index": 1.5}},
                    "truncation": 1.0}), "--two-k", "8"),
    "ss_by_blocks": ("ss", "8", "--by-blocks"),
    "ss_list": ("ss", "8", "--list"),
    "circuits_abba": ("circuits", "abba"),
}


def document(argv) -> dict:
    """The argv, exit code and stdout of one ``--reproducible`` run of ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--reproducible"])
    return {"argv": list(argv), "exit_code": code, "stdout": out.getvalue()}


def test_golden_cli_covers_every_case():
    assert {path.stem for path in GOLDEN.glob("*.json")} == set(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_cli_document_matches_golden(label):
    assert document(CASES[label]) == json.loads((GOLDEN / f"{label}.json").read_text())


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for label, argv in sorted(CASES.items()):
        (GOLDEN / f"{label}.json").write_text(json.dumps(document(argv), indent=2) + "\n")
    print(f"wrote {len(CASES)} documents to {GOLDEN}")
