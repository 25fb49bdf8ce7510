"""Golden sampler hashes: every variant's n=64 draw must stay bit-identical.

The hashes in golden/sampler_sha256.json pin the per-(seed, row) Philox
contract of models.sample. Regenerate them only when a change to the sampler
is meant to change its output, and say why where the change is recorded:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from esdlab.models import VARIANTS, ModelSpec, sample

GOLDEN = Path(__file__).parent / "golden" / "sampler_sha256.json"
N, SEED = 64, 2024

SPECS = {
    "gaussian_wigner": ModelSpec("gaussian_wigner", N, SEED),
    "triangular_twopoint": ModelSpec("triangular_twopoint", N, SEED, {"atom": 2.0, "rate": 1.5}),
    "sparse_homogeneous": ModelSpec("sparse_homogeneous", N, SEED, {"rate": 2.0}),
    "sparse_inhomogeneous": ModelSpec("sparse_inhomogeneous", N, SEED,
                                      {"prob": "(x + y)/(2*n)"}),
    "heavy_tailed": ModelSpec("heavy_tailed", N, SEED, {"tail_index": 1.2}),
    "variance_profile": ModelSpec("variance_profile", N, SEED,
                                  {"profile": "0.5 + 0.5*ind(x + y < 1)"}),
    "variance_profile_twopoint": ModelSpec(
        "variance_profile", N, SEED,
        {"profile": "0.5+0.5*x*y", "base": "triangular_twopoint",
         "base_params": {"atom": 1.5, "rate": 3.0}}),
    "band": ModelSpec("band", N, SEED, {"half_width": 0.2, "periodic": True}),
    "band_sparse": ModelSpec("band", N, SEED,
                             {"half_width": 0.3, "base": "sparse_homogeneous",
                              "base_params": {"rate": 5.0}}),
    "block": ModelSpec("block", N, SEED,
                       {"masses": [0.25, 0.75], "scales": [[2.0, 0.5], [0.5, 1.0]]}),
    "block_zero_diagonal": ModelSpec("block", N, SEED,
                                     {"masses": [0.3, 0.3, 0.4],
                                      "scales": [[1.0, 0.2, 0.3], [0.2, 2.0, 0.1],
                                                 [0.3, 0.1, 0.5]]},
                                     zero_diagonal=True),
}


def digest(spec: ModelSpec) -> str:
    matrix = np.ascontiguousarray(sample(spec), dtype="<f8")
    return hashlib.sha256(matrix.tobytes()).hexdigest()


def test_golden_covers_every_variant():
    assert {spec.variant for spec in SPECS.values()} == set(VARIANTS)
    assert set(json.loads(GOLDEN.read_text())) == set(SPECS)


@pytest.mark.parametrize("label", sorted(SPECS))
def test_sampler_matches_golden_hash(label):
    assert digest(SPECS[label]) == json.loads(GOLDEN.read_text())[label]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({label: digest(spec) for label, spec in sorted(SPECS.items())},
                                 indent=2) + "\n")
    print(f"wrote {GOLDEN}")
