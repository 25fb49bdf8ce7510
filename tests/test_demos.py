"""The scripts in demos/ run to completion and print their narrative."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import esdlab

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_every_demo_is_found():
    assert [d.name for d in DEMOS] == ["circuit_growth.py", "limit_moments.py", "matrix_lab.py",
                                       "words_and_trees.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(esdlab.__file__).parents[1])}
    done = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
