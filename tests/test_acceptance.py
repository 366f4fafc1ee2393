"""Acceptance layer: the default configuration, trained to the end on the
coarse grid, meets its accuracy targets at world and split seeds 0 and 7,
and its restart file spins the held-out cells up at least 0.8 times as
fast as a restart from the spin-up prior alone, obs * exp(prior).

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
from phase_surrogate import blobio, pipeline, simulator
from phase_surrogate.model import pools_from

pytestmark = pytest.mark.slow

SRC = os.path.dirname(os.path.dirname(phase_surrogate.__file__))

# with one residual per turnover group on the spin-up prior, test slow-task
# R^2 is 0.99974 at seed 0 and 0.99977 at seed 7 (0.99973-0.99978 over
# train seeds 0-3 at both), flux R^2 is 0.99984 and 0.99986 or more, and
# the residual is 0 at both.  The held-out median restart speedup is 4.25x
# and 4.32x, against 4.88x and 4.54x for the prior alone and 1.67x and
# 1.58x for persistence (4.25-4.61x over train seeds 0-3 at both)
MIN_SLOW_R2 = 0.999
# the least fraction of the prior's held-out speedup the model keeps
MIN_SPEEDUP_OF_PRIOR = 0.8
MIN_FLUX_R2 = 0.999
MAX_PHYS_RESIDUAL = 1e-12


def phase(*argv):
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-m", "phase_surrogate.cli", *argv],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.fixture(scope="module", params=[0, 7], ids=lambda seed: f"seed{seed}")
def run(request, tmp_path_factory):
    """The directory of the default pipeline on the world and split of one
    seed: world, dataset, model, eval report and restart-check output."""
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
    phase("restart-check", "--model", str(root / "model.phm"),
          "--world", str(root / "world"), "--out", str(root / "drift.csv"))
    return root


@pytest.fixture(scope="module")
def metrics(run):
    """Rows of eval's metrics.csv, keyed by task."""
    with open(run / "report" / "metrics.csv", newline="",
              encoding="ascii") as fh:
        return {row["task"]: row for row in csv.DictReader(fh)}


def held_out_speedup(world, restart_path, test_ids):
    """Median restart speedup over the test split's cells, starting from
    the slow pools of a restart file."""
    initial = simulator.load_restart_state(world, str(restart_path))
    _, report = simulator.restart_run(initial, world, years=1)
    row = {int(c): i for i, c in enumerate(world.land_idx)}
    return pipeline.median(report.speedup[[row[int(c)] for c in test_ids]])


def test_test_split_slow_task_r2(metrics):
    r2 = np.mean([float(metrics[t]["r2"]) for t in pipeline.SLOW_TASKS])
    assert r2 >= MIN_SLOW_R2


def test_test_split_flux_r2(metrics):
    for t in pipeline.FLUX_TASKS:
        assert float(metrics[t]["r2"]) >= MIN_FLUX_R2, t


def test_physics_residual(metrics):
    assert float(metrics["_phys_residual"]["rmse"]) <= MAX_PHYS_RESIDUAL


def test_held_out_speedup_near_the_prior(run, tmp_path):
    world = simulator.load_world(str(run / "world" / "world.phw"))
    test_ids = pipeline.load_dataset(str(run / "data")).test.cell_id
    samples = simulator.export_samples(world)
    prior = tmp_path / "prior.phr"
    blobio.write_restart(str(prior), samples.cell_id,
                         pools_from(samples.groups, 0.0), world.n_pft,
                         world.n_layers)
    assert (held_out_speedup(world, run / "drift.phr", test_ids)
            >= MIN_SPEEDUP_OF_PRIOR * held_out_speedup(world, prior, test_ids))
