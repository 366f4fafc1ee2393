"""Acceptance layer: the default configuration, trained to the end on the
coarse grid, meets its accuracy targets at world and split seeds 0 and 7.

Each seed's pipeline takes about half a minute on one core, so the module
is marked ``slow`` and the default run deselects it; run it with
``pytest -m slow``.
Every command runs as the CLI in a fresh single-threaded process, so the
figures are the ones a user gets from the same commands.
"""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import phase_surrogate
from phase_surrogate import pipeline

pytestmark = pytest.mark.slow

SRC = os.path.dirname(os.path.dirname(phase_surrogate.__file__))

# with the fluxes in closed form, test slow-task R^2 is 0.915 at seed 0 and
# 0.913 at seed 7 (0.902-0.924 over train seeds 0-3 at both), flux R^2 is
# 0.99984 and 0.99986 or more, and the residual is 0 at both
MIN_SLOW_R2 = 0.89
MIN_FLUX_R2 = 0.999
MAX_PHYS_RESIDUAL = 1e-12


def phase(*argv):
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "phase_surrogate.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.fixture(scope="module", params=[0, 7], ids=lambda seed: f"seed{seed}")
def metrics(request, tmp_path_factory):
    """Rows of eval's metrics.csv for the default model on the world and
    split of one seed, keyed by task."""
    seed = str(request.param)
    root = tmp_path_factory.mktemp(f"acceptance-seed{seed}")
    phase("gen-data", "--seed", seed, "--grid", "coarse",
          "--out", str(root / "world"))
    phase("build-dataset", "--world", str(root / "world"), "--seed", seed,
          "--out", str(root / "data"))
    phase("train", "--data", str(root / "data"),
          "--out", str(root / "model.phm"))
    phase("eval", "--model", str(root / "model.phm"),
          "--data", str(root / "data"), "--out", str(root / "report"))
    with open(root / "report" / "metrics.csv", newline="",
              encoding="ascii") as fh:
        return {row["task"]: row for row in csv.DictReader(fh)}


def test_test_split_slow_task_r2(metrics):
    r2 = np.mean([float(metrics[t]["r2"]) for t in pipeline.SLOW_TASKS])
    assert r2 >= MIN_SLOW_R2


def test_test_split_flux_r2(metrics):
    for t in pipeline.FLUX_TASKS:
        assert float(metrics[t]["r2"]) >= MIN_FLUX_R2, t


def test_physics_residual(metrics):
    assert float(metrics["_phys_residual"]["rmse"]) <= MAX_PHYS_RESIDUAL
