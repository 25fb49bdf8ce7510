"""Theory-vs-simulation plumbing: config parsing and z-score reports."""

import math

import numpy as np
import pytest

from esdlab.compare import (
    ComparisonReport,
    compare_series,
    family_from_config,
    model_spec_from_config,
    schedule_from_config,
    theory_series_from_config,
)
from esdlab.errors import ValidationError
from esdlab.graphons import block_family
from esdlab.moments import MomentEntry, MomentSeries, moment_graphon


def series(pairs, se=0.0, provenance="monte-carlo-simulation"):
    return MomentSeries(
        entries=tuple(MomentEntry(k, v, se, provenance) for k, v in pairs),
        description="test",
    )


def test_graphon_from_json_forms():
    # every kernel form a "graphon" theory config may hold, read as a compare config
    def kernel(g):
        return family_from_config({"kind": "graphon", "g": {"2": g}}).g(2)

    assert kernel(2.0).eval(0.3, 0.4) == 2.0
    assert kernel("4*x*y").eval(0.5, 0.5) == pytest.approx(1.0)
    grid = kernel({"breaks": [0.0, 0.5, 1.0], "cells": [[1.0, 2.0], [2.0, 3.0]]})
    assert grid.eval(0.25, 0.75) == 2.0
    with pytest.raises(ValidationError):
        kernel({"cells": [[1.0]]})


def test_schedule_kinds():
    assert schedule_from_config({"kind": "semicircle", "c2": 2.0}).value(2) == 2.0
    assert schedule_from_config({"kind": "constant", "value": 1.5}).value(6) == 1.5
    table = schedule_from_config({"kind": "schedule", "values": {"2": 1.0, "4": 7.0}})
    assert table.value(4) == 7.0
    with pytest.raises(ValidationError):
        schedule_from_config({"kind": "semicircle", "c2": 1.0, "oops": 1})
    with pytest.raises(ValidationError):
        schedule_from_config({"kind": "cubic"})


def test_theory_series_covers_every_kind():
    block = theory_series_from_config(
        {
            "kind": "block",
            "masses": [0.25, 0.75],
            "cells": {"2": [[2.0, 0.5], [0.5, 1.0]]},
        },
        4,
    )
    expected = moment_graphon(block_family([0.25, 0.75], {2: [[2.0, 0.5], [0.5, 1.0]]}), 2).value
    assert block.moment(2) == pytest.approx(expected)

    profile = theory_series_from_config(
        {"kind": "profile", "sigma": "0.5", "base": {"kind": "semicircle", "c2": 1.0}},
        4,
    )
    assert profile.values() == [0.25, 0.125]

    model = theory_series_from_config(
        {
            "kind": "model",
            "spec": {
                "variant": "sparse_homogeneous",
                "n": 100,
                "seed": 1,
                "params": {"rate": 2.0},
            },
        },
        4,
    )
    assert model.values() == [2.0, 10.0]
    # the limit reads neither n nor seed, so a theory may leave them out; an n given is checked
    limit = theory_series_from_config({"kind": "model", "spec": {"variant": "gaussian_wigner"}}, 6)
    assert limit.values() == [1.0, 2.0, 5.0]
    with pytest.raises(ValidationError, match=r"mean degree must lie in \(0, n\]"):
        theory_series_from_config({"kind": "model", "spec": {
            "variant": "sparse_homogeneous", "n": 3, "params": {"rate": 5.0}}}, 2)

    band = theory_series_from_config(
        {"kind": "band", "alpha": 0.25, "periodic": True}, 4
    )
    assert band.values() == pytest.approx([0.5, 0.5])


def test_model_spec_inline_fields_win():
    cfg = {"variant": "gaussian_wigner", "n": 128, "seed": 9}
    spec = model_spec_from_config(cfg, n=64, seed=1)
    assert spec.n == 128
    assert spec.seed == 9
    fallback = model_spec_from_config({"variant": "gaussian_wigner"}, n=64, seed=1)
    assert fallback.n == 64 and fallback.seed == 1
    with pytest.raises(ValidationError):
        model_spec_from_config({"n": 10, "seed": 1})
    with pytest.raises(ValidationError):
        model_spec_from_config({"variant": "gaussian_wigner"})


def test_compare_series_z_scores():
    theory = series([(2, 1.0), (4, 2.0)])
    sim = series([(2, 1.05), (4, 1.9)], se=0.05)
    report = compare_series(theory, sim)
    assert report.passed
    assert [round(r.z, 6) for r in report.rows] == [1.0, -2.0]
    strict = compare_series(theory, sim, threshold=1.5)
    assert not strict.passed


def test_compare_zero_se_conventions():
    theory = series([(2, 1.0)])
    exact_hit = compare_series(theory, series([(2, 1.0)], se=0.0))
    assert exact_hit.rows[0].z == 0.0
    exact_miss = compare_series(theory, series([(2, 1.2)], se=0.0))
    assert math.isinf(exact_miss.rows[0].z)
    assert not exact_miss.passed


def test_compare_requires_matching_orders():
    theory = series([(2, 1.0), (4, 2.0)])
    with pytest.raises(ValidationError):
        compare_series(theory, series([(2, 1.0)], se=0.1))


def test_report_serialization_and_table():
    theory = series([(2, 1.0)])
    report = compare_series(theory, series([(2, 1.1)], se=0.1))
    payload = report.to_json_dict()
    assert payload["passed"] is True
    assert payload["rows"][0]["beta_sim"] == pytest.approx(1.1)
    rows = report.to_csv_rows()
    assert rows[0] == ["two_k", "beta_theory", "beta_sim", "se", "z"]
    text = report.format_table()
    assert "PASS" in text
    assert "2" in text.splitlines()[1]
