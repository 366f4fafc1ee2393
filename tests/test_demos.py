"""Smoke test: the fast demos run to completion against the current API."""

import os
import subprocess
import sys

import pytest

import phase_surrogate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(phase_surrogate.__file__))


@pytest.mark.parametrize("name", ["01_simulator_equilibrium.py",
                                  "02_dataset_pipeline.py"])
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                         cwd=tmp_path, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
