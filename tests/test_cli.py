"""Command line interface: envelopes, formats, exit codes, config files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import esdlab

from esdlab.cli import DEFAULT_SEED, main


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
        raise AssertionError("sampled before the moment order was checked")

    monkeypatch.setattr(esdlab.spectra, "sample", no_sampling)
    code, _, err = run(capsys, "simulate", "--model-json", '{"variant":"gaussian_wigner"}',
                       "--n", "1000", "--reps", "5", "--k-max", "0")
    assert code == 2
    assert "moment order" in err
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


def test_circuits_rejects_bad_word(capsys):
    code, _, err = run(capsys, "circuits", "ba", "--reproducible")
    assert code == 2
    assert "error" in err


def test_config_file_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "kind": "semicircle", "c2": 1.0,
        "args": {"two_k": 4, "format": "csv"},
    }))
    # the config's args section wins over the command line values
    code, out, _ = run(capsys, "moments", "--config", str(cfg),
                       "--two-k", "8", "--reproducible")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "two_k,beta,error_estimate"
    assert lines[-1].startswith("4,2.0")


def test_config_rejects_unknown_arg_names(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"kind": "semicircle", "c2": 1.0,
                               "args": {"no_such_flag": 1}}))
    code, _, err = run(capsys, "moments", "--config", str(cfg))
    assert code == 2
    assert "no_such_flag" in err


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
