"""Command line interface: envelopes, formats, exit codes, config files."""

import csv
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import esdlab

from esdlab.cli import DEFAULT_SEED, build_parser, main
from esdlab.combinatorics import enumerate_ss


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ss_json_envelope(capsys):
    code, out, _ = run(capsys, "ss", "4", "--list", "--reproducible")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "ss"
    assert doc["seed"] == DEFAULT_SEED
    assert len(doc["config_sha256"]) == 64
    assert doc["count"] == 3
    assert doc["words"] == ["aaaa", "aabb", "abba"]
    assert "timestamp" not in doc


def test_ss_without_reproducible_has_timestamp(capsys):
    code, out, _ = run(capsys, "ss", "2")
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_ss_by_blocks_and_count_only(capsys):
    code, out, _ = run(capsys, "ss", "8", "--by-blocks", "--reproducible")
    assert code == 0
    doc = json.loads(out)
    assert doc["by_blocks"] == {"1": 1, "2": 14, "3": 28, "4": 14}

    code, out, _ = run(capsys, "ss", "8", "--count-only", "--reproducible")
    doc = json.loads(out)
    assert doc["count"] == 57
    assert "words" not in doc


def test_ss_odd_length_is_empty_but_ok(capsys):
    code, out, _ = run(capsys, "ss", "5", "--reproducible")
    assert code == 0
    assert json.loads(out)["count"] == 0


@pytest.mark.parametrize("mode", [(), ("--by-blocks",), ("--count-only",), ("--list",)],
                         ids=["census", "by-blocks", "count-only", "list"])
def test_ss_odd_length_keeps_the_output_mode(capsys, mode):
    docs, headers = {}, {}
    for two_k in (7, 8):
        code, out, _ = run(capsys, "ss", str(two_k), *mode, "--reproducible")
        assert code == 0
        docs[two_k] = json.loads(out)
        code, out, _ = run(capsys, "ss", str(two_k), *mode, "--format", "csv")
        assert code == 0
        headers[two_k] = out.splitlines()[0]
    assert list(docs[7]) == list(docs[8])
    assert headers[7] == headers[8]
    odd = docs[7]
    assert odd["count"] == 0 and not odd.get("by_blocks") and not odd.get("words")


@pytest.mark.parametrize("two_k", [2, 4, 5, 8, 12])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_ss_list_streams_the_materialised_document(capsys, tmp_path, two_k, fmt):
    words = [str(w) for w in enumerate_ss(two_k)]
    argv = ["ss", str(two_k), "--list", "--format", fmt, "--reproducible"]
    code, streamed, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "listing"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text(encoding="utf-8") == streamed
    if fmt == "json":
        head = json.loads(streamed)
        doc = {"command": "ss", "seed": DEFAULT_SEED, "config_sha256": head["config_sha256"],
               "two_k": two_k, "count": len(words), "words": words}
        assert streamed == json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([["word"], *([w] for w in words)])
        assert streamed == buf.getvalue()


def test_ss_list_streams_the_timestamp_after_the_words(capsys):
    code, out, _ = run(capsys, "ss", "6", "--list")
    doc = json.loads(out)
    assert code == 0 and list(doc)[-2:] == ["words", "timestamp"]
    assert out == json.dumps(doc, indent=2) + "\n"


# A child's ru_maxrss counts the peak of the process that started it (exec keeps the
# high-water mark), so a small interpreter starts the command, not this test process.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "esdlab", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_ss_list_runs_in_constant_memory():
    peaks = {}
    for mode in ("--list", "--count-only"):
        done = _python("-c", _PEAK_RSS, "ss", "16", mode, "--reproducible")
        code, maxrss = map(int, done.stdout.split())
        assert code == 0, done.stderr
        peaks[mode] = maxrss * (1 if sys.platform == "darwin" else 1024)  # bytes
    # 69,331 words; held in memory they took about 19 MB more than the count
    assert peaks["--list"] - peaks["--count-only"] < 3 * 2**20, peaks


def test_ss_list_fails_when_the_word_walk_disagrees_with_the_census():
    code = ("import itertools, sys\n"
            "from esdlab import combinatorics\n"
            "walk = combinatorics.ss_letters\n"
            "combinatorics.ss_letters = lambda two_k: itertools.islice(walk(two_k), 1, None)\n"
            "from esdlab.cli import main\n"
            "sys.exit(main(['ss', '6', '--list', '--reproducible']))\n")
    done = _python("-c", code)
    assert done.returncode == 1
    assert "ss 6 --list wrote 11 words, but the census counts 12" in done.stderr


def test_reproducible_runs_are_byte_identical(capsys):
    _, first, _ = run(capsys, "moments", "--theory-json",
                      '{"kind":"semicircle","c2":1.0}', "--two-k", "6",
                      "--reproducible")
    _, second, _ = run(capsys, "moments", "--theory-json",
                       '{"kind":"semicircle","c2":1.0}', "--two-k", "6",
                       "--reproducible")
    assert first == second


def test_moments_csv_format(capsys):
    code, out, _ = run(capsys, "moments", "--theory-json",
                       '{"kind":"semicircle","c2":1.0}', "--two-k", "6",
                       "--format", "csv", "--reproducible")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "two_k,beta,error_estimate"
    assert lines[1].startswith("2,1.0")
    assert lines[3].startswith("6,5.0")


def test_moments_kinds(capsys):
    cases = [
        ('{"kind":"sparse","rate":2.0}', 4, "10.0"),
        ('{"kind":"constant","value":2.0}', 4, "10.0"),
        ('{"kind":"band","alpha":0.25,"periodic":true}', 2, "0.5"),
        ('{"kind":"graphon","g":{"2":"4*x*y"}}', 2, None),
    ]
    for theory, two_k, expect in cases:
        code, out, _ = run(capsys, "moments", "--theory-json", theory,
                           "--two-k", str(two_k), "--reproducible")
        assert code == 0, (theory, out)
        doc = json.loads(out)
        betas = {e["two_k"]: e["beta"] for e in doc["series"]["entries"]}
        if expect is not None:
            assert betas[two_k] == pytest.approx(float(expect))


def test_graphon_config_without_the_asked_order(capsys):
    # the example of docs/config_schemas.md: the missing order-4 kernel is
    # zero, and the star and the path each integrate to 1
    code, out, _ = run(capsys, "moments", "--theory-json",
                       '{"kind":"graphon","g":{"2":"1 + cos(2*pi*(x - y))"}}',
                       "--two-k", "4", "--reproducible")
    assert code == 0
    entries = json.loads(out)["series"]["entries"]
    assert [e["two_k"] for e in entries] == [2, 4]
    for entry, want in zip(entries, (1.0, 2.0)):
        assert entry["provenance"] == "quadrature"
        assert abs(entry["beta"] - want) <= entry["error_estimate"] + 1e-12


def test_import_loads_no_scipy():
    # scipy.stats alone once cost every command about 1.2 s and 70 MB at start
    code = "import sys, esdlab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(esdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_moments_rejects_unknown_keys(capsys):
    code, _, err = run(capsys, "moments", "--theory-json",
                       '{"kind":"semicircle","c2":1.0,"typo":3}', "--reproducible")
    assert code == 2
    assert "typo" in err


def test_simulate_payload(capsys):
    code, out, _ = run(capsys, "simulate", "--model-json",
                       '{"variant":"gaussian_wigner"}', "--n", "80",
                       "--reps", "3", "--k-max", "4", "--reproducible")
    assert code == 0
    doc = json.loads(out)
    assert doc["model"]["n"] == 80
    assert doc["replicates"] == 3
    ks = [row["k"] for row in doc["moments"]]
    assert ks == [1, 2, 3, 4]
    assert all("se" in row for row in doc["moments"])
    hist = doc["histogram"]
    assert len(hist["edges"]) == len(hist["counts"]) + 1
    assert len(doc["eigenvalues"]) == 3 * 80


def test_simulate_one_replicate_reports_moments_of_its_eigenvalues(capsys):
    code, out, _ = run(capsys, "simulate", "--model-json",
                       '{"variant":"gaussian_wigner"}', "--n", "50",
                       "--reps", "1", "--reproducible")
    assert code == 0
    doc = json.loads(out)
    values = np.asarray(doc["eigenvalues"])
    assert values.size == 50
    assert [row["k"] for row in doc["moments"]] == [1, 2, 3, 4, 5, 6]
    for row in doc["moments"]:
        assert row["se"] is None
        assert abs(row["value"] - np.mean(values ** row["k"])) <= 1e-12


def test_config_hash_ignores_parallel(capsys):
    base = ("moments", "--theory-json", '{"kind":"semicircle"}', "--two-k", "4",
            "--reproducible")
    docs = [json.loads(run(capsys, *base, *extra)[1])
            for extra in ((), ("--parallel", "1"), ("--parallel", "2"))]
    assert len({doc["config_sha256"] for doc in docs}) == 1
    assert docs[0] == docs[1] == docs[2]


def test_config_digest_reads_the_parsed_payload(capsys, tmp_path):
    """One payload has one digest, whatever its spelling and whichever flag or file holds it."""
    spaced = tmp_path / "spaced.json"
    spaced.write_text('{ "kind" : "semicircle" }')
    spellings = [("--theory-json", '{"kind":"semicircle"}', "--two-k", "2"),
                 ("--theory-json", '{"kind": "semicircle"}', "--two-k", "2"),
                 ("--config", str(spaced), "--two-k", "2")]
    docs = [json.loads(run(capsys, "moments", *argv, "--reproducible")[1]) for argv in spellings]
    assert len({doc["config_sha256"] for doc in docs}) == 1
    assert len({json.dumps(doc, sort_keys=True) for doc in docs}) == 1

    theory, model = {"kind": "semicircle"}, {"variant": "gaussian_wigner"}
    both = tmp_path / "compare.json"
    both.write_text(json.dumps({"theory": theory, "model": model}, indent=4))
    flags = ("--n", "12", "--reps", "2", "--two-k", "2", "--threshold", "1e9", "--reproducible")
    inline = run(capsys, "compare", "--theory-json", json.dumps(theory),
                 "--model-json", json.dumps(model), *flags)
    from_file = run(capsys, "compare", "--config", str(both), *flags)
    assert inline[0] == from_file[0] == 0
    assert inline[1] == from_file[1]


def test_simulate_large_spectra_not_embedded(capsys):
    code, out, _ = run(capsys, "simulate", "--model-json",
                       '{"variant":"gaussian_wigner"}', "--n", "160",
                       "--reps", "30", "--k-max", "2", "--reproducible")
    assert code == 0
    doc = json.loads(out)
    assert "eigenvalues" not in doc
    assert doc["histogram"]["counts"]


def test_simulate_budget_exit_code(capsys):
    code, _, err = run(capsys, "simulate", "--model-json",
                       '{"variant":"gaussian_wigner"}', "--n", "3000",
                       "--reps", "100", "--budget", "1e6")
    assert code == 3
    assert "capacity" in err


def test_bad_moment_order_exits_before_sampling(capsys, monkeypatch):
    def no_sampling(spec):
        raise AssertionError("sampled before the flags were checked")

    monkeypatch.setattr(esdlab.spectra, "sample", no_sampling)
    for flags, refusal in ((["--k-max", "0"], "moment order"), (["--bins", "0"], "bin")):
        code, _, err = run(capsys, "simulate", "--model-json", '{"variant":"gaussian_wigner"}',
                           "--n", "1000", "--reps", "5", *flags)
        assert code == 2
        assert refusal in err
    spec = esdlab.models.ModelSpec("gaussian_wigner", 1000, seed=DEFAULT_SEED)
    with pytest.raises(esdlab.errors.ValidationError, match="moment order"):
        esdlab.spectra.eesd_moments(spec, 0, 5)


def test_validation_exit_code(capsys):
    code, _, err = run(capsys, "simulate", "--model-json",
                       '{"variant":"no_such_model"}', "--n", "50", "--reps", "2")
    assert code == 2
    assert "error" in err


def test_compare_pass_and_table(capsys):
    code, out, err = run(capsys, "compare",
                         "--theory-json", '{"kind":"sparse","rate":2.0}',
                         "--model-json",
                         '{"variant":"sparse_homogeneous","params":{"rate":2.0}}',
                         "--n", "150", "--reps", "6", "--two-k", "4",
                         "--reproducible")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["passed"] is True
    assert [row["two_k"] for row in doc["report"]["rows"]] == [2, 4]
    assert "PASS" in err


def test_compare_mismatch_exit_code(capsys):
    code, out, err = run(capsys, "compare",
                         "--theory-json", '{"kind":"sparse","rate":1.0}',
                         "--model-json",
                         '{"variant":"sparse_homogeneous","params":{"rate":2.0}}',
                         "--n", "200", "--reps", "6", "--two-k", "4",
                         "--reproducible")
    assert code == 4
    assert json.loads(out)["report"]["passed"] is False
    assert "FAIL" in err


def test_compare_truncates_replicates_at_the_model_theory_level(capsys):
    from esdlab.models import ModelSpec
    from esdlab.spectra import eesd_moments

    theory = '{"kind":"model","truncation":1,"spec":' + HEAVY_SPEC + '}'
    code, out, _ = run(capsys, "compare", "--theory-json", theory,
                       "--model-json", '{"variant":"heavy_tailed","params":{"tail_index":1.5}}',
                       "--n", "100", "--reps", "5", "--two-k", "2", "--seed", "4",
                       "--reproducible")
    assert code in (0, 4)
    row = json.loads(out)["report"]["rows"][0]
    spec = ModelSpec("heavy_tailed", 100, 4, {"tail_index": 1.5})
    expected = eesd_moments(spec, 2, replicates=5, truncation=1.0).entries[1]
    assert (row["beta_sim"], row["se"]) == (expected.value, expected.error)


# connected draws, whose spectra must come from one plain eigvalsh each
CONNECTED_MODELS = {
    "gaussian_wigner": {"variant": "gaussian_wigner"},
    "variance_profile": {"variant": "variance_profile", "params": {"profile": "0.5+0.5*x*y"}},
}


def _plain_eigvalsh_spectra(model, n, reps, seed):
    from esdlab.models import ModelSpec, sample, with_seed

    spec = ModelSpec(model["variant"], n, seed, model.get("params", {}))
    seeds = np.random.SeedSequence(seed).generate_state(reps, dtype=np.uint64)
    return [np.linalg.eigvalsh(sample(with_seed(spec, int(s)))) for s in seeds]


@pytest.mark.parametrize("variant", sorted(CONNECTED_MODELS))
def test_connected_models_report_moments_of_plain_eigvalsh(capsys, variant):
    from esdlab.spectra import spectral_moments

    model = CONNECTED_MODELS[variant]
    n, reps, seed = 60, 4, 9
    spectra = _plain_eigvalsh_spectra(model, n, reps, seed)
    expected = spectral_moments(spectra, 6).entries
    common = ("--model-json", json.dumps(model), "--n", str(n), "--reps", str(reps),
              "--seed", str(seed), "--reproducible")

    code, out, _ = run(capsys, "simulate", "--k-max", "6", *common)
    assert code == 0
    doc = json.loads(out)
    assert [(m["value"], m["se"]) for m in doc["moments"]] == [(e.value, e.error) for e in expected]
    assert doc["eigenvalues"] == np.sort(np.concatenate(spectra)).tolist()

    theory = json.dumps({"kind": "model", "spec": {**model, "n": n, "seed": seed}})
    code, out, _ = run(capsys, "compare", "--theory-json", theory, "--two-k", "6", *common)
    assert code in (0, 4)
    rows = json.loads(out)["report"]["rows"]
    assert [(r["beta_sim"], r["se"]) for r in rows] == [(e.value, e.error) for e in expected[1::2]]


def test_circuits_csv_and_json(capsys):
    code, out, _ = run(capsys, "circuits", "aabb", "--n-values", "2,3,4",
                       "--format", "csv", "--reproducible")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "word,n,count,ratio"
    assert lines[1] == "aabb,2,4,0.5"

    code, out, _ = run(capsys, "circuits", "aabb", "--n-values", "2,3",
                       "--reproducible")
    doc = json.loads(out)
    assert doc["word"] == "aabb"
    assert doc["results"][0]["count"] == 4
    assert doc["results"][0]["ratio_exact"] == "1/2"


def test_circuits_budget_follows_the_search_not_n(capsys):
    code, _, err = run(capsys, "circuits", "abcdefghijklmnop", "--n-values", "16",
                       "--reproducible")
    assert code == 3
    assert "capacity" in err

    code, out, _ = run(capsys, "circuits", "aabb", "--n-values", "1024", "--reproducible")
    assert code == 0
    assert json.loads(out)["results"][0]["count"] == 1_072_693_248


def test_circuits_budget_refuses_the_first_n_past_it(capsys):
    # abcdef explores ~162 assignments at n = 3, ~384 at n = 4 and ~720 at n >= 6
    code, out, err = run(capsys, "circuits", "abcdef", "--n-values", "3,6,4,7",
                         "--budget", "500", "--reproducible")
    assert (code, out) == (3, "")
    assert err == ("capacity: counting circuits for abcdef at n=6 may explore ~720 "
                   "assignments (budget 500.0); raise the budget to proceed\n")


def test_narrow_open_band_exits_3(capsys):
    code, out, err = run(capsys, "moments", "--two-k", "4", "--reproducible",
                         "--theory-json", '{"kind":"band","alpha":1e-300}')
    assert (code, out) == (3, "")
    assert err.startswith("capacity: ") and err.count("\n") == 1


def test_circuits_rejects_bad_word(capsys):
    code, _, err = run(capsys, "circuits", "ba", "--reproducible")
    assert code == 2
    assert "error" in err


def test_config_rejects_unknown_arg_names(capsys, tmp_path):
    # flags are read from the command line alone: "args" is an unknown payload key
    args = {"args": {"no_such_flag": 1}}
    for argv, payload in ((("moments",), {"kind": "semicircle", "c2": 1.0}),
                          (("simulate", "--n", "4"), {"variant": "gaussian_wigner"}),
                          (("compare", "--n", "4", "--reps", "2"), GAUSSIAN_COMPARE)):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**payload, **args}))
        code, out, err = run(capsys, *argv, "--config", str(cfg), "--reproducible")
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: unknown keys ['args']") and err.count("\n") == 1, err


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "ss", "4", "--out", str(target), "--reproducible")
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == 3


def test_seed_flag_threads_through(capsys):
    code, out, _ = run(capsys, "simulate", "--model-json",
                       '{"variant":"gaussian_wigner"}', "--n", "60",
                       "--reps", "2", "--k-max", "2", "--seed", "777",
                       "--reproducible")
    doc = json.loads(out)
    assert doc["seed"] == 777
    assert doc["model"]["seed"] == 777


def test_overflowing_moments_exit_2_without_nan(capsys):
    code, out, err = run(capsys, "moments", "--theory-json",
                         '{"kind":"constant","value":1e300}', "--two-k", "8",
                         "--reproducible")
    assert code == 2
    assert "NaN" not in out and "Infinity" not in out
    assert err.startswith("error: ") and "not finite" in err


HEAVY_SPEC = '{"variant":"heavy_tailed","n":100,"seed":1,"params":{"tail_index":1.5}}'
HEAVIEST_TAIL = '{"variant":"heavy_tailed","params":{"tail_index":0.1}}'


MALFORMED = {
    "constant_without_value": ("moments", "--theory-json", '{"kind":"constant"}'),
    "sparse_without_rate": ("moments", "--theory-json", '{"kind":"sparse"}'),
    "band_without_alpha": ("moments", "--theory-json", '{"kind":"band"}'),
    "profile_without_sigma": ("moments", "--theory-json", '{"kind":"profile"}'),
    "block_without_masses": ("moments", "--theory-json", '{"kind":"block","cells":{"2":[[1.0]]}}'),
    "text_rate": ("moments", "--theory-json", '{"kind":"sparse","rate":"a"}'),
    "text_alpha": ("moments", "--theory-json", '{"kind":"band","alpha":"wide"}'),
    "text_schedule_value": ("moments", "--theory-json", '{"kind":"schedule","values":{"2":"abc"}}'),
    "text_block_mass": ("moments", "--theory-json",
                        '{"kind":"block","masses":["a"],"cells":{"2":[[1.0]]}}'),
    "text_grid_cells": ("moments", "--theory-json",
                        '{"kind":"graphon","g":{"2":{"breaks":[0,1],"cells":"x"}}}'),
    "text_graphon_constant": ("moments", "--theory-json",
                              '{"kind":"graphon","g":{"2":{"constant":"x"}}}'),
    "text_model_n": ("moments", "--theory-json",
                     '{"kind":"model","spec":{"variant":"gaussian_wigner","n":"abc","seed":1}}'),
    "negative_truncation": ("moments", "--theory-json",
                            '{"kind":"model","truncation":-1,"spec":' + HEAVY_SPEC + '}'),
    "broken_theory_json": ("moments", "--theory-json", '{"kind":"band"'),
    "broken_model_json": ("simulate", "--model-json", '{"variant":'),
    "text_model_rate": ("simulate", "--model-json",
                        '{"variant":"sparse_homogeneous","params":{"rate":"a"}}'),
    "model_params_not_an_object": ("simulate", "--model-json",
                                   '{"variant":"band","params":{"half_width":0.2,"base_params":5}}'),
    "broken_compare_model_json": ("compare", "--theory-json", '{"kind":"sparse","rate":2.0}',
                                  "--model-json", '{"variant"'),
    "broken_config_file": ("moments", "--config", "BROKEN_FILE"),
    "config_file_not_an_object": ("moments", "--config", "ARRAY_FILE"),
    # numbers must be JSON numbers: text and booleans are not read as numbers
    "text_constant_value": ("moments", "--theory-json", '{"kind":"constant","value":"2"}'),
    "bool_constant_value": ("moments", "--theory-json", '{"kind":"constant","value":true}'),
    "text_band_alpha": ("moments", "--theory-json", '{"kind":"band","alpha":"0.25"}'),
    "text_block_mass_number": ("moments", "--theory-json",
                               '{"kind":"block","masses":["0.5",0.5],"cells":{"2":[[1,0],[0,1]]}}'),
    "bool_block_cell": ("moments", "--theory-json",
                        '{"kind":"block","masses":[0.5,0.5],"cells":{"2":[[true,0],[0,1]]}}'),
    "text_block_cell": ("moments", "--theory-json",
                        '{"kind":"block","masses":[0.5,0.5],"cells":{"2":[["2",0],[0,1]]}}'),
    "bool_model_rate": ("simulate", "--model-json",
                        '{"variant":"sparse_homogeneous","params":{"rate":true}}', "--n", "20"),
    "fractional_model_n": ("simulate", "--model-json",
                           '{"variant":"gaussian_wigner","n":40.9,"seed":1}'),
    "bool_model_seed": ("simulate", "--model-json",
                        '{"variant":"gaussian_wigner","n":40,"seed":true}'),
    "text_truncation": ("moments", "--theory-json",
                        '{"kind":"model","truncation":"1","spec":' + HEAVY_SPEC + '}'),
    "text_block_scale": ("simulate", "--model-json",
                         '{"variant":"block","params":{"masses":[1.0],"scales":[["1"]]}}',
                         "--n", "20"),
    "nan_sparse_rate": ("moments", "--theory-json", '{"kind":"sparse","rate":NaN}'),
    "infinite_semicircle_c2": ("moments", "--theory-json", '{"kind":"semicircle","c2":Infinity}'),
    "infinite_bare_kernel_number": ("moments", "--theory-json",
                                    '{"kind":"graphon","g":{"2":Infinity}}', "--two-k", "4"),
    "nan_bare_kernel_number": ("moments", "--theory-json", '{"kind":"graphon","g":{"2":NaN}}',
                               "--two-k", "4"),
    "nan_block_mass": ("simulate", "--model-json",
                       '{"variant":"block","params":{"masses":[NaN,0.5],"scales":[[1,0],[0,1]]}}',
                       "--n", "10"),
    "scalar_block_masses": ("moments", "--theory-json",
                            '{"kind":"block","masses":1.0,"cells":{"2":[[1.0]]}}'),
    "bool_in_expression": ("moments", "--theory-json",
                           '{"kind":"graphon","g":{"2":"1 + True*x*y"}}'),
    "indicator_of_two_comparisons": ("moments", "--theory-json",
                                     '{"kind":"graphon","g":{"2":"ind(x<0.5, y<0.5)"}}'),
    "sqrt_of_two_arguments": ("moments", "--theory-json",
                              '{"kind":"graphon","g":{"2":"sqrt(x, y)"}}'),
    # exact-form kernels that a term of the form makes non-finite on the check grid
    "pole_in_exact_kernel": ("moments", "--theory-json", '{"kind":"graphon","g":{"2":"1/(x*y)"}}'),
    "overflowing_exact_kernel": ("moments", "--theory-json",
                                 '{"kind":"graphon","g":{"2":"1e308*10*x*y"}}'),
    "bool_model_prob": ("simulate", "--model-json",
                        '{"variant":"sparse_inhomogeneous","params":{"prob":true}}', "--n", "10"),
    # json reads NaN, which no comparison of grid breaks may let through
    "nan_grid_break": ("moments", "--theory-json",
                       '{"kind":"graphon","g":{"2":{"breaks":[0,NaN,1],"cells":[[1,2],[2,1]]}}}'),
    "nan_profile_grid_break": ("moments", "--theory-json",
                               '{"kind":"profile","sigma":{"breaks":[0,NaN,1],'
                               '"cells":[[1,2],[2,1]]}}'),
    # a null kernel, ragged grid cells, and an integer cell beyond the float range
    "null_graphon_kernel": ("moments", "--theory-json", '{"kind":"graphon","g":{"2":null}}'),
    "ragged_grid_cells": ("moments", "--theory-json",
                          '{"kind":"graphon","g":{"2":{"breaks":[0,0.5,1],"cells":[[1,2],[2]]}}}'),
    "integer_grid_cell_past_float": ("moments", "--theory-json",
                                     '{"kind":"graphon","g":{"2":{"breaks":[0,1],"cells":[[1'
                                     + "0" * 400 + ']]}}}'),
    "negative_kernel_bound": ("moments", "--theory-json",
                              '{"kind":"graphon","g":{"2":{"expression":"x*y","bound":-1}}}'),
    # a kernel object with a bound is refused as a kernel, before its symmetry is checked
    "asymmetric_kernel_with_bound": ("moments", "--theory-json",
                                     '{"kind":"graphon","g":{"2":{"expression":"2 + x - y",'
                                     '"bound":1e12}}}'),
    # a kernel is a number, an expression string or a grid: no other object
    "constant_kernel_object": ("moments", "--theory-json",
                               '{"kind":"graphon","g":{"2":{"constant":1.0}}}'),
    "expression_kernel_object": ("moments", "--theory-json",
                                 '{"kind":"graphon","g":{"2":{"expression":"x*y"}}}'),
    "expression_kernel_object_with_bound": ("moments", "--theory-json",
                                            '{"kind":"profile","sigma":{"expression":"x*y",'
                                            '"bound":2.0}}'),
    # an order key is its order's own decimal text, so two keys cannot name one order
    "zero_padded_order_key": ("moments", "--theory-json",
                              '{"kind":"schedule","values":{"2":1.0,"02":4.0}}', "--two-k", "2"),
    "underscored_order_key": ("moments", "--theory-json",
                              '{"kind":"graphon","g":{"1_0":1.0}}', "--two-k", "2"),
    # json keeps the last of two equal keys; a payload may not repeat one
    "repeated_json_key": ("moments", "--theory-json", '{"kind":"semicircle","c2":1.0,"c2":9.0}'),
    # overflows: at the one rounding of an exact sum, and inside a cumulant rule
    "overflowing_sparse_rate": ("moments", "--theory-json", '{"kind":"sparse","rate":1e300}',
                                "--two-k", "4"),
    "overflowing_heavy_cumulant": ("moments", "--theory-json",
                                   '{"kind":"model","truncation":1e300,"spec":' + HEAVY_SPEC + '}',
                                   "--two-k", "16"),
    # eigenvalue moments of heavy-tailed draws that overflow, simulated or compared
    "overflowing_simulated_moment": ("simulate", "--model-json", HEAVIEST_TAIL, "--n", "3",
                                     "--reps", "2", "--k-max", "40"),
    "overflowing_compared_moment": ("compare", "--theory-json", '{"kind":"semicircle"}',
                                    "--model-json", HEAVIEST_TAIL, "--n", "3", "--reps", "2",
                                    "--two-k", "40"),
    # an --out path in a directory that does not exist
    "unwritable_out": ("ss", "6", "--out", "MISSING_DIR/x.json"),
    # a profile whose power overflows: in a cell, or on the check grid
    "overflowing_constant_profile": ("moments", "--theory-json",
                                     '{"kind":"profile","sigma":1e200}', "--two-k", "8"),
    "overflowing_expression_profile": ("moments", "--theory-json",
                                       '{"kind":"profile","sigma":"1e200*x*y"}', "--two-k", "4"),
    # only heavy tails take a truncation; elsewhere the theory would ignore it
    "truncation_without_effect": ("compare", "--theory-json",
                                  '{"kind":"model","truncation":0.5,"spec":{"variant":'
                                  '"sparse_homogeneous","n":100,"seed":1,"params":{"rate":2.0}}}',
                                  "--model-json",
                                  '{"variant":"sparse_homogeneous","params":{"rate":2.0}}',
                                  "--n", "100", "--reps", "3", "--two-k", "4"),
    # a word that is neither letters a-z nor comma-separated integers
    "capital_letters_word": ("circuits", "ABBA"),
    "text_in_integer_word": ("circuits", "1,x"),
    "punctuation_in_word": ("circuits", "a-b"),
    "text_in_n_values": ("circuits", "abba", "--n-values", "2,x"),
    "zero_in_n_values": ("circuits", "abba", "--n-values", "0"),
    "zero_ss_length": ("ss", "0"),
    # moments sums only even orders from 2 up, as compare does
    "zero_moment_order": ("moments", "--theory-json", '{"kind":"semicircle"}', "--two-k", "0"),
    "negative_moment_order": ("moments", "--theory-json", '{"kind":"semicircle"}',
                              "--two-k", "-4"),
    "odd_moment_order": ("moments", "--theory-json", '{"kind":"semicircle"}', "--two-k", "5"),
    # ss prints one output mode
    "ss_list_and_by_blocks": ("ss", "6", "--list", "--by-blocks"),
    "ss_list_and_count_only": ("ss", "6", "--list", "--count-only"),
}

# the refusal an entry of MALFORMED must print, where the table pins it
MALFORMED_TEXT = {
    "config_file_not_an_object": "must hold a JSON object",
    "indicator_of_two_comparisons": "takes exactly one comparison",
    "sqrt_of_two_arguments": "takes exactly one argument",
    "pole_in_exact_kernel": "is non-finite on the unit square",
    "overflowing_exact_kernel": "is non-finite on the unit square",
    "text_in_n_values": "comma-separated integers",
    "zero_in_n_values": "matrix sizes must be positive",
    "zero_ss_length": "length must be >= 1",
    "overflowing_simulated_moment": "overflowed at k=",
    "overflowing_compared_moment": "overflowed at k=",
    "unwritable_out": "cannot write output file",
}
# files a MALFORMED argv names by placeholder; a None text names a path not made
MALFORMED_FILES = {"BROKEN_FILE": '{"kind": "band"', "ARRAY_FILE": "[1, 2]",
                   "MISSING_DIR/x.json": None}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_configs_exit_2(capsys, tmp_path, name):
    for placeholder, text in MALFORMED_FILES.items():
        if text is not None:
            (tmp_path / placeholder).write_text(text)
    argv = [str(tmp_path / a) if a in MALFORMED_FILES else a for a in MALFORMED[name]]
    code, out, err = run(capsys, *argv, "--reproducible")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert MALFORMED_TEXT.get(name, "") in err


THEORY_AND_MODEL = ('{"kind":"semicircle"}', '{"variant":"gaussian_wigner"}')

# each case: argv, and the key, kind or flag its one error line names
NAMED_CONFIG_ERRORS = {
    "unknown_theory_kind": (("moments", "--theory-json", '{"kind":"cubic"}'), "'cubic'"),
    "theory_not_an_object": (("moments", "--theory-json", "[1, 2]"), "theory"),
    "theory_without_kind": (("moments", "--theory-json", '{"c2":1.0}'), "'kind'"),
    "graphon_g_empty": (("moments", "--theory-json", '{"kind":"graphon","g":{}}'), "graphon"),
    "graphon_g_not_an_object": (("moments", "--theory-json", '{"kind":"graphon","g":[1.0]}'),
                                "graphon"),
    "graphon_g_text_order": (("moments", "--theory-json", '{"kind":"graphon","g":{"two":1.0}}'),
                             "'two'"),
    "schedule_values_empty": (("moments", "--theory-json", '{"kind":"schedule","values":{}}'),
                              "schedule"),
    "schedule_values_not_an_object": (("moments", "--theory-json",
                                       '{"kind":"schedule","values":2.0}'), "schedule"),
    "schedule_values_text_order": (("moments", "--theory-json",
                                    '{"kind":"schedule","values":{"2.5":1.0}}'), "'2.5'"),
    "block_cells_empty": (("moments", "--theory-json",
                           '{"kind":"block","masses":[1.0],"cells":{}}'), "block"),
    "block_cells_not_an_object": (("moments", "--theory-json",
                                   '{"kind":"block","masses":[1.0],"cells":[[1.0]]}'), "block"),
    "block_cells_text_order": (("moments", "--theory-json",
                                '{"kind":"block","masses":[1.0],"cells":{"x":[[1.0]]}}'), "'x'"),
    "model_not_an_object": (("simulate", "--model-json", '"gaussian_wigner"', "--n", "10"),
                            "model"),
    "compare_model_not_an_object": (("compare", "--theory-json", THEORY_AND_MODEL[0],
                                     "--model-json", "[]", "--n", "10"), "model"),
    "moments_without_payload": (("moments",), "--theory-json"),
    "simulate_without_payload": (("simulate", "--n", "10"), "--model-json"),
    "compare_without_model_json": (("compare", "--theory-json", THEORY_AND_MODEL[0]),
                                   "--model-json"),
    "compare_config_without_model": (("compare", "--config", {"theory": THEORY_AND_MODEL[0]}),
                                     "'model'"),
    "compare_config_without_theory": (("compare", "--config", {"model": THEORY_AND_MODEL[1]}),
                                      "'theory'"),
}


@pytest.mark.parametrize("argv, named", NAMED_CONFIG_ERRORS.values(),
                         ids=NAMED_CONFIG_ERRORS.keys())
def test_config_errors_name_their_key(capsys, tmp_path, argv, named):
    cfg = tmp_path / "payload.json"
    argv = list(argv)
    for i, a in enumerate(argv):
        if isinstance(a, dict):  # a --config payload whose sections are JSON text
            cfg.write_text(json.dumps({k: json.loads(v) for k, v in a.items()}))
            argv[i] = str(cfg)
    code, out, err = run(capsys, *argv, "--reproducible")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def _sparse_profile(prob: str) -> str:
    return json.dumps({"kind": "model", "spec": {"variant": "sparse_inhomogeneous", "n": 1000,
                                                 "seed": 1, "params": {"prob": prob}}})


def test_sparse_profile_limit_is_exact_or_refused(capsys):
    # n * prob of a polynomial in (x, y, 1/n) has an exact limit, or none
    code, out, err = run(capsys, "moments", "--theory-json", _sparse_profile("x*y"))
    assert (code, out) == (2, "")
    assert err == ("error: n * prob grows without bound as n -> infinity for prob 'x*y'; "
                   "the sparse limit needs prob = O(1/n)\n")
    code, out, err = run(capsys, "moments", "--theory-json",
                         _sparse_profile("(x + y)/(2*n) + x*y/n**2"), "--two-k", "4",
                         "--reproducible")
    assert code == 0, err
    entries = json.loads(out)["series"]["entries"]
    # every order's member is g = (x + y)/2, with row integral m(x) = x/2 + 1/4:
    # beta_2 = 1/2 and beta_4 = 2 int m^2 + int g = 13/24 + 1/2
    assert [(e["beta"], e["error_estimate"], e["provenance"]) for e in entries] == [
        (0.5, 0.0, "exact-combinatorial"), (float(Fraction(25, 24)), 0.0, "exact-combinatorial")]
    # any other prob keeps the numeric limit
    code, out, err = run(capsys, "moments", "--theory-json", _sparse_profile("exp(-x*y)/n"),
                         "--reproducible")
    assert code == 0, err
    assert json.loads(out)["series"]["entries"][0]["provenance"] == "quadrature"


@pytest.mark.parametrize("prob", ["1/(n+1)", "1 - exp(-2*x*y/n)"])
def test_sparse_profile_unsettled_at_the_stand_in_n_is_refused(capsys, prob):
    # at n = 1e8 these read beta_4 = 2.99999995 with error 0, and
    # beta_2 = 0.49999999894 +- 1.9e-10, 5.5 estimates from 1/2
    code, out, err = run(capsys, "moments", "--theory-json", _sparse_profile(prob),
                         "--two-k", "4", "--reproducible")
    assert (code, out) == (2, "")
    assert err.startswith("error: n * prob has not settled") and err.count("\n") == 1
    assert "polynomial in x, y and 1/n" in err


@pytest.mark.parametrize("argv", [
    ("moments", "--theory-json", '{"kind":"graphon","g":{"2":"exp(1000*x*y)"}}'),
    ("simulate", "--model-json",
     '{"variant":"variance_profile","params":{"profile":"exp(1000*x*y)"}}', "--n", "24"),
])
def test_an_overflowing_kernel_exits_2_without_a_warning(capsys, argv):
    code, out, err = run(capsys, *argv, "--reproducible")
    assert (code, out) == (2, "")
    assert err == "error: graphon 'exp(1000*x*y)' is non-finite on the unit square\n"


def _graphon_moments(capsys, kernel: str, two_k: int) -> list[dict]:
    code, out, err = run(capsys, "moments", "--theory-json",
                         json.dumps({"kind": "graphon", "g": {"2": kernel}}),
                         "--two-k", str(two_k), "--reproducible")
    assert code == 0, err
    return json.loads(out)["series"]["entries"]


def _profile_spectrum(capsys, profile: str) -> tuple:
    code, out, err = run(capsys, "simulate", "--model-json",
                         json.dumps({"variant": "variance_profile",
                                     "params": {"profile": profile}}),
                         "--n", "24", "--reps", "2", "--k-max", "2", "--reproducible")
    assert code == 0, err
    doc = json.loads(out)
    return doc["eigenvalues"], [(m["value"], m["se"]) for m in doc["moments"]]


def test_a_power_of_two_past_int64_is_its_float(capsys):
    # in int64 2**64 was 0, and beta_2 read 0.0 with error 0
    (entry,) = _graphon_moments(capsys, "cos(x - y)*2**64", 2)
    truth = 2.0**64 * 2 * (1 - math.cos(1.0))  # int int cos(x - y) = 2 (1 - cos 1)
    assert truth == pytest.approx(1.6960e19, rel=1e-4)
    assert abs(entry["beta"] - truth) <= entry["error_estimate"] + 1e-12 * truth


def test_a_profile_with_a_large_power_samples_that_profile(capsys):
    # in int64 this profile was 1, and simulate sampled the unscaled matrix
    assert (_profile_spectrum(capsys, "x*y*2**64 + 1")
            == _profile_spectrum(capsys, "x*y*1.8446744073709552e19 + 1"))


def test_a_negative_integer_power_is_a_float(capsys):
    # numpy refuses integers to negative integer powers: both commands exited 1
    assert _profile_spectrum(capsys, "2**-1") == _profile_spectrum(capsys, "0.5")
    for entry in _graphon_moments(capsys, "2**-1", 4):  # g = 1/2: beta_2k = C_k / 2^k
        k = entry["two_k"] // 2
        truth = math.comb(2 * k, k) / (k + 1) / 2**k
        assert abs(entry["beta"] - truth) <= entry["error_estimate"] + 1e-12


def test_a_literal_too_large_for_a_float_exits_2(capsys):
    code, out, err = run(capsys, "moments", "--theory-json",
                         json.dumps({"kind": "graphon", "g": {"2": "sin(x*y)*1" + "0" * 400}}))
    assert (code, out) == (2, "")
    assert err.startswith("error: a literal in 'sin(x*y)*1000") and "too large for a float" in err


def test_band_over_a_sparse_base_is_correctly_rounded(capsys):
    model = {"variant": "band", "n": 1000, "seed": 1,
             "params": {"half_width": 0.2, "base": "sparse_homogeneous",
                        "base_params": {"rate": 2.0}}}
    code, out, err = run(capsys, "moments", "--theory-json",
                         json.dumps({"kind": "model", "spec": model}), "--two-k", "2",
                         "--reproducible")
    assert code == 0, err
    (entry,) = json.loads(out)["series"]["entries"]
    # beta_2 = 2 (2a - a^2) for the double a nearest 0.2, which lies 1.1e-17 above it:
    # 0.72 + 3.6e-17, whose nearest double is the one above 0.72
    a = Fraction(0.2)
    assert entry["beta"] == float(2 * (2 * a - a * a)) == 0.7200000000000001
    assert (entry["error_estimate"], entry["provenance"]) == (0.0, "exact-combinatorial")


def test_block_mass_error_prints_a_plain_number(capsys):
    code, out, err = run(capsys, "simulate", "--model-json",
                         '{"variant":"block","params":{"masses":[0.5,0.4],'
                         '"scales":[[1,0],[0,1]]}}', "--n", "10")
    assert (code, out) == (2, "")
    assert err == "error: block masses must sum to 1, got 0.9\n"


def test_profile_sigma_reads_every_kernel_form(capsys):
    # sigma as a grid or an expression gives what the squared kernel gives directly
    pairs = [({"breaks": [0, 0.5, 1], "cells": [[1, 2], [2, 1]]},
              {"breaks": [0, 0.5, 1], "cells": [[1, 4], [4, 1]]}),
             ("1 + x*y", "(1 + x*y)**2")]
    for sigma, squared in pairs:
        betas = []
        for theory in ({"kind": "profile", "sigma": sigma},
                       {"kind": "graphon", "g": {"2": squared}}):
            code, out, err = run(capsys, "moments", "--theory-json", json.dumps(theory),
                                 "--two-k", "6", "--reproducible")
            assert code == 0, err
            betas.append([e["beta"] for e in json.loads(out)["series"]["entries"]])
        assert betas[0] == pytest.approx(betas[1], rel=1e-12)


def test_simulate_variance_profile_with_a_grid_profile(capsys):
    grid = {"breaks": [0, 0.5, 1], "cells": [[1, 2], [2, 1]]}
    model = {"variant": "variance_profile", "params": {"profile": grid}}
    code, out, err = run(capsys, "simulate", "--model-json", json.dumps(model), "--n", "40",
                         "--k-max", "2", "--reproducible")
    assert code == 0, err
    assert json.loads(out)["model"]["params"]["profile"] == grid


@pytest.mark.parametrize("argv", [("ss", "4"), ("circuits", "abba")])
def test_ss_and_circuits_take_no_config(capsys, tmp_path, argv):
    # they take no payload, and their flags are read from the command line alone
    cfg = tmp_path / "empty.json"
    cfg.write_text("{}")
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--config", str(cfg), "--reproducible"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


# a probability that is NaN for x < 0.5, and a profile that is finite on the
# 29-point check grid but NaN near 0.51: each is one error line, and no numpy warning
@pytest.mark.parametrize("n, model, message", [
    (50, {"variant": "sparse_inhomogeneous", "params": {"prob": "sqrt(x - 0.5)/n"}},
     "leaves [0,1]"),
    (100, {"variant": "variance_profile",
           "params": {"profile": "sqrt(abs(x - 0.51) - 0.003)*sqrt(abs(y - 0.51) - 0.003)"}},
     "non-finite entries"),
])
def test_sampler_refusals_leak_no_warning(n, model, message):
    done = _python("-W", "error::RuntimeWarning", "-m", "esdlab", "simulate", "--n", str(n),
                   "--reps", "2", "--reproducible", "--model-json", json.dumps(model))
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert message in done.stderr


def test_compare_config_takes_only_theory_model_and_args(capsys, tmp_path):
    cfg = tmp_path / "compare.json"
    cfg.write_text(json.dumps({"theory": {"kind": "sparse", "rate": 2.0},
                               "model": {"variant": "sparse_homogeneous", "params": {"rate": 2.0}},
                               "thresold": 1.0}))
    code, out, err = run(capsys, "compare", "--config", str(cfg), "--n", "20", "--reps", "2",
                         "--two-k", "2", "--reproducible")
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown keys ['thresold'] in compare config")


@pytest.mark.parametrize("base", [
    {"kind": "block", "masses": [1.0], "cells": {"2": [[1.0]]}},
    {"kind": "sparse", "rate": 1.0},
    {"kind": "profile", "sigma": 1.0},
    {"kind": "band", "alpha": 0.1},
])
def test_band_base_must_be_a_schedule_or_graphon(capsys, base):
    theory = json.dumps({"kind": "band", "alpha": 0.2, "base": base})
    code, out, err = run(capsys, "moments", "--theory-json", theory, "--two-k", "4")
    assert code == 2
    assert out == ""
    assert f"error: '{base['kind']}' cannot serve as a band/profile base" in err


@pytest.mark.parametrize("base", [
    {"kind": "graphon", "g": {"2": 1.0}},
    {"kind": "sparse", "rate": 1.0},
])
def test_profile_base_must_be_a_schedule(capsys, base):
    theory = json.dumps({"kind": "profile", "sigma": 1.0, "base": base})
    code, out, err = run(capsys, "moments", "--theory-json", theory, "--two-k", "4")
    assert code == 2
    assert out == ""
    assert f"error: '{base['kind']}' is not a cumulant schedule kind" in err


@pytest.mark.parametrize("argv", [
    ("moments", "--theory-json", '{"kind":"band","alpha":0.25,"periodic":"false"}'),
    ("moments", "--theory-json", '{"kind":"band","alpha":0.25,"periodic":0}'),
    ("moments", "--theory-json",
     '{"kind":"model","spec":{"variant":"band","n":10,"seed":1,'
     '"params":{"half_width":0.25,"periodic":"false"}}}'),
    ("simulate", "--model-json",
     '{"variant":"band","params":{"half_width":0.25,"periodic":"true"}}', "--n", "20"),
    ("simulate", "--model-json", '{"variant":"gaussian_wigner","zero_diagonal":"false"}',
     "--n", "20"),
    ("simulate", "--model-json", '{"variant":"gaussian_wigner","zero_diagonal":1}', "--n", "20"),
])
def test_boolean_flags_take_only_json_booleans(capsys, argv):
    code, out, err = run(capsys, *argv, "--reproducible")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "must be true or false" in err


def test_band_periodic_false_is_the_open_band(capsys):
    code, out, _ = run(capsys, "moments", "--theory-json",
                       '{"kind":"band","alpha":0.25,"periodic":false}', "--two-k", "2",
                       "--reproducible")
    assert code == 0
    assert json.loads(out)["series"]["entries"][0]["beta"] == pytest.approx(0.4375)


def test_missing_config_file_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "moments", "--config", str(tmp_path / "missing.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read config file")


GAUSSIAN_COMPARE = {"theory": {"kind": "semicircle"}, "model": {"variant": "gaussian_wigner"}}


# a NaN limit would switch its check off (every comparison with NaN is False)
@pytest.mark.parametrize("argv, payload, flag, value", [
    (("circuits", "abcdef", "--n-values", "6"), {}, "budget", "nan"),
    (("circuits", "abcdef", "--n-values", "6"), {}, "budget", "-1"),
    (("simulate", "--n", "20"), {"variant": "gaussian_wigner"}, "budget", "nan"),
    (("compare", "--n", "20", "--reps", "3"), GAUSSIAN_COMPARE, "budget", "nan"),
    (("compare", "--n", "20", "--reps", "3"), GAUSSIAN_COMPARE, "threshold", "nan"),
    (("compare", "--n", "20", "--reps", "3"), GAUSSIAN_COMPARE, "threshold", "-1"),
])
def test_nan_and_negative_limits_exit_2(capsys, tmp_path, argv, payload, flag, value):
    if payload:  # a payload that runs, so the flag alone is refused
        cfg = tmp_path / "limit.json"
        cfg.write_text(json.dumps(payload))
        argv = (*argv, "--config", str(cfg))
    with pytest.raises(SystemExit) as exit_:
        main([*argv, f"--{flag}", value])
    assert exit_.value.code == 2
    assert f"argument --{flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("moments", "--theory-json", '{"kind":"semicircle"}'),
    ("compare", "--theory-json", '{"kind":"semicircle"}', "--model-json",
     '{"variant":"gaussian_wigner"}'),
])
def test_gauss_points_are_no_flag(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--quad-points", "16"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --quad-points 16" in capsys.readouterr().err


def test_config_reference_names_every_flag():
    """docs/config_schemas.md names each long option of the parser, and no other."""
    subparsers = next(a for a in build_parser()._actions if a.choices and a.dest == "command")
    flags = {option for sub in subparsers.choices.values() for action in sub._actions
             for option in action.option_strings if option.startswith("--")} - {"--help"}
    reference = (Path(__file__).resolve().parents[1] / "docs" / "config_schemas.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", reference))
    assert flags - named == set(), "flags the reference does not name"
    assert named - flags == set(), "flags the reference names that the parser lacks"


def _reference_table(header: str) -> dict[str, tuple[set, set]]:
    """The rows of the docs/config_schemas.md table under ``header``: each row's name,
    and the keys its second column names, split into (required, optional). A key is
    optional after the word "optional" or when "(default" follows it."""
    reference = (Path(__file__).resolve().parents[1] / "docs" / "config_schemas.md").read_text()
    table = reference.split(header + "\n")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[1:]:  # below the |---| line
        name, keys = (cell.strip() for cell in line.strip("|").split("|")[:2])
        required, optional = set(), set()
        for match in re.finditer(r"`([a-z_0-9]+)`", keys):
            is_optional = ("optional" in keys[:match.start()]
                           or keys[match.end():].lstrip().startswith("(default"))
            (optional if is_optional else required).add(match.group(1))
        rows[name.strip("`")] = (required, optional)
    return rows


def test_config_reference_tables_match_the_key_tables():
    """The theory-kind and variant tables of the reference name each kind's keys as read."""
    from esdlab.compare import _THEORY_KEYS
    from esdlab.models import _PARAM_KEYS

    for header, table in (("| kind | fields | meaning |", _THEORY_KEYS),
                          ("| variant | params |", _PARAM_KEYS)):
        assert _reference_table(header) == {name: (set(required), set(optional))
                                            for name, (required, optional) in table.items()}


def test_every_benchmark_command_parses(monkeypatch):
    """Each benchmark command, with the flags its runner appends, is accepted."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # bench/run.py puts bench/ on it
    bench = Path(__file__).resolve().parents[1] / "bench"
    spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
    runner = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", runner)  # its dataclasses look it up
    spec.loader.exec_module(runner)
    workloads = runner.workloads
    argvs = [workloads.SETUP_ARGV] + [command.argv for build in workloads.WORKLOADS.values()
                                      for command in build(1)]
    parser = build_parser()
    for argv in argvs:
        threads = ("--parallel", "1") if argv[0] in runner.PARALLEL_SUBCOMMANDS else ()
        assert parser.parse_args([*argv, *threads, "--reproducible"]).command == argv[0]


def _python(*argv: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(esdlab.__file__).parents[1])}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120)


def _cli_modules(argv) -> tuple[subprocess.CompletedProcess, list[str]]:
    """python -m esdlab.cli ARGV --reproducible, and the numpy, esdlab, dataclasses,
    inspect, ast, hashlib, _hashlib and _ssl modules it loaded."""
    code = ("import atexit, runpy, sys\n"
            "atexit.register(lambda: print(sorted(m for m in sys.modules"
            " if m.split('.')[0] in ('numpy', 'esdlab', 'dataclasses', 'inspect', 'ast',"
            " 'hashlib', '_hashlib', '_ssl')), file=sys.stderr))\n"
            f"sys.argv = ['esdlab', *{list(argv)!r}, '--reproducible']\n"
            "runpy.run_module('esdlab.cli', run_name='__main__', alter_sys=True)\n")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr
    return done, eval(done.stderr.strip().splitlines()[-1])


TWO_POINT_MODEL = ('{"kind":"model","spec":{"variant":"triangular_twopoint","n":200,"seed":1,'
                   '"params":{"atom":1.5,"rate":2.0}}}')
GRID = {"breaks": [0, 0.25, 1], "cells": [[1.5, 0.3], [0.3, 0.8]]}
BLOCK_CELLS = [[1.5, 0.4], [0.4, 0.8]]


@pytest.mark.parametrize("argv", [
    ("ss", "2"),
    ("circuits", "abba"),
    # the exact cell rule: every family sums in integers, on one cell ...
    ("moments", "--theory-json", '{"kind":"semicircle"}', "--two-k", "16"),
    ("moments", "--theory-json", '{"kind":"sparse","rate":2.5}', "--two-k", "16"),
    ("moments", "--theory-json", '{"kind":"schedule","values":{"2":1,"4":3,"6":0.5}}',
     "--two-k", "6", "--format", "csv"),
    ("moments", "--theory-json", '{"kind":"band","alpha":0.2,"periodic":true,'
     '"base":{"kind":"constant","value":1.5}}', "--two-k", "12"),
    ("moments", "--theory-json", TWO_POINT_MODEL, "--two-k", "14"),
    # ... or on the cells of the grids' breaks
    ("moments", "--theory-json", json.dumps({"kind": "block", "masses": [0.3, 0.7],
                                             "cells": {"2": BLOCK_CELLS, "4": GRID["cells"]}}),
     "--two-k", "10"),
    ("moments", "--theory-json", json.dumps({"kind": "graphon", "g": {"2": GRID, "4": 1.5}}),
     "--two-k", "8"),
    ("moments", "--theory-json", json.dumps({"kind": "profile", "sigma": GRID}), "--two-k", "8"),
    ("moments", "--theory-json", json.dumps({"kind": "model", "spec": {
        "variant": "block", "n": 100, "seed": 1,
        "params": {"masses": [0.4, 0.6], "scales": BLOCK_CELLS}}}), "--two-k", "8"),
    # ... or as polynomials in x on the pieces of a band or of one cell
    ("moments", "--theory-json", '{"kind":"band","alpha":0.2}', "--two-k", "10"),
    ("moments", "--theory-json", '{"kind":"profile","sigma":"2*sqrt(x*y)"}', "--two-k", "10"),
    ("moments", "--theory-json", '{"kind":"graphon","g":{"2":"4*x*y"}}', "--two-k", "8"),
    ("moments", "--theory-json", json.dumps({"kind": "model", "spec": {
        "variant": "sparse_inhomogeneous", "n": 1000, "seed": 1,
        "params": {"prob": "2.0*x*y/n"}}}), "--two-k", "8"),
    ("moments", "--theory-json", json.dumps({"kind": "model", "spec": {
        "variant": "heavy_tailed", "n": 300, "seed": 1, "params": {"tail_index": 1.5}},
        "truncation": 1.0}), "--two-k", "8"),
    # an open band narrow enough to shift 0 and 1 to 52 break slots
    ("moments", "--theory-json", '{"kind":"band","alpha":0.04}', "--two-k", "16"),
    # a model theory needs no n or seed: the limit reads neither
    ("moments", "--theory-json", '{"kind":"model","spec":{"variant":"gaussian_wigner"}}',
     "--two-k", "6"),
])
def test_combinatorial_commands_load_no_numpy(capsys, argv):
    done, loaded = _cli_modules(argv)
    assert not [m for m in loaded if m.split(".")[0] == "numpy"]
    assert run(capsys, *argv, "--reproducible")[1] == done.stdout
    # nor dataclasses, which pulls in inspect, ast, dis and tokenize
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # nor hashlib, whose _hashlib maps OpenSSL's libcrypto
    assert not {"hashlib", "_hashlib", "_ssl"} & set(loaded)
    if argv[0] == "ss":
        assert loaded == ["esdlab", "esdlab.combinatorics", "esdlab.defaults", "esdlab.errors",
                          "esdlab.treesum"]
    elif argv[0] == "circuits":
        assert loaded == ["esdlab", "esdlab.circuits", "esdlab.combinatorics",
                          "esdlab.defaults", "esdlab.errors", "esdlab.treesum"]
    else:
        assert "esdlab.combinatorics" not in loaded and "esdlab.quadrature" not in loaded
        assert "esdlab.cells" in loaded  # one rule sums them all, one cell included
        assert ("esdlab.models" in loaded) == (json.loads(argv[2])["kind"] == "model")
        # only an expression is read, and only its reader parses
        has_text = bool(_expressions(json.loads(argv[2])))
        assert ("ast" in loaded) == ("esdlab.expressions" in loaded) == has_text
        if "--format" not in argv:
            entries = json.loads(done.stdout)["series"]["entries"]
            assert {(e["provenance"], e["error_estimate"]) for e in entries} == {
                ("exact-combinatorial", 0.0)}


def _expressions(cfg) -> list[str]:
    """The expression texts anywhere in a theory config."""
    if isinstance(cfg, dict):
        return [e for key, value in cfg.items() if key not in ("kind", "variant")
                for e in _expressions(value)]
    if isinstance(cfg, list):
        return [e for value in cfg for e in _expressions(value)]
    return [cfg] if isinstance(cfg, str) else []


@pytest.mark.parametrize("blob", [b"", b'{"payload": {"kind": "semicircle"}}',
                                  "β_4 of σ(x,y) = √(xy)".encode()])
def test_config_digest_is_sha256(monkeypatch, blob):
    from esdlab.cli import _sha256_hex

    expected = hashlib.sha256(blob).hexdigest()
    assert _sha256_hex(blob) == expected
    # without the built-in modules it falls back to hashlib
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert _sha256_hex(blob) == expected


def test_kernel_theory_still_loads_numpy(capsys):
    argv = ("moments", "--theory-json", '{"kind":"graphon","g":{"2":"1 + cos(2*pi*(x - y))"}}',
            "--two-k", "6")
    done, loaded = _cli_modules(argv)
    assert "numpy" in loaded and "esdlab.quadrature" in loaded
    assert run(capsys, *argv, "--reproducible")[1] == done.stdout


def test_python_dash_m_esdlab_is_the_command_line(capsys):
    module = _python("-m", "esdlab", "ss", "4", "--list", "--reproducible")
    script = _python("-m", "esdlab.cli", "ss", "4", "--list", "--reproducible")
    assert module.returncode == script.returncode == 0, module.stderr
    assert module.stdout == script.stdout
    assert json.loads(module.stdout)["words"] == ["aaaa", "aabb", "abba"]

    # __main__.py hands main's return value to sys.exit: the exit code and stdout of main
    module = _python("-m", "esdlab", "ss", "6", "--reproducible")
    code, out, _ = run(capsys, "ss", "6", "--reproducible")
    assert code == 0
    assert (module.returncode, module.stdout) == (code, out), module.stderr

    bad = _python("-m", "esdlab", "circuits", "ba")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error: ")


def test_package_exports_resolve_lazily():
    code = ("import sys, esdlab\n"
            "assert sorted(m for m in sys.modules if m.startswith('esdlab')) == ['esdlab']\n"
            "assert 'numpy' not in sys.modules\n"
            "esdlab.enumerate_ss\n"
            "assert 'numpy' not in sys.modules\n"
            "esdlab.moment_graphon\n"
            "assert 'numpy' not in sys.modules\n"
            "esdlab.sample(esdlab.ModelSpec('gaussian_wigner', 4, 1))\n"
            "assert 'numpy' in sys.modules\n")
    done = _python("-c", code)
    assert done.returncode == 0, done.stderr


def test_every_export_and_submodule_resolves():
    namespace: dict = {}
    exec("from esdlab import *", namespace)
    for name in esdlab.__all__:
        value = getattr(esdlab, name)
        assert namespace[name] is value
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"esdlab.{name}"
    for info in pkgutil.iter_modules(esdlab.__path__):
        if info.name != "__main__":
            assert getattr(esdlab, info.name) is importlib.import_module(f"esdlab.{info.name}")
    assert set(esdlab.__all__) <= set(dir(esdlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        esdlab.no_such_name
