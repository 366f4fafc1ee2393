"""Checks and quality figures computed from the files the set-up wrote.

This module imports the package under test (``src`` must be on
``sys.path``) and only reads files; nothing here is timed.
"""

import csv
import json
import math
import os

import numpy as np

from phase_surrogate import blobio, pipeline, simulator


def _oracle_problems(world, data_dir):
    """Dataset targets must equal the closed-form u/k equilibria of every
    land cell, each cell appearing exactly once across the two splits."""
    eq = simulator.analytic_equilibrium(world)
    oracle = {t: getattr(eq.pools, t) for t in simulator.SLOW_POOLS}
    oracle.update(tlai=eq.tlai, gpp=eq.gpp, ar=eq.ar, npp=eq.npp)
    dataset = pipeline.load_dataset(data_dir)
    row = {int(c): i for i, c in enumerate(world.land_idx)}
    problems = []
    ids = np.concatenate([dataset.train.cell_id, dataset.test.cell_id])
    if sorted(ids.tolist()) != sorted(row):
        problems.append(f"dataset holds {ids.size} cells, world has "
                        f"{len(row)} land cells")
        return problems
    for split in (dataset.train, dataset.test):
        rows = np.array([row[int(c)] for c in split.cell_id])
        for task in pipeline.TASKS:
            got = dataset.denorm_target(task, split.targets[task])
            want = oracle[task][rows]
            # targets are stored min-max normalised in float32
            tol = 1e-5 * float(np.max(np.abs(oracle[task])))
            worst = float(np.max(np.abs(got - want)))
            if not worst <= tol:
                problems.append(f"target {task}: off the u/k oracle by "
                                f"{worst:.3g} (tolerance {tol:.3g})")
    return problems


def _restart_pools(world, path):
    """Slow pools from a restart file, in world cell order, as float64."""
    cell_ids, pools, _, _ = blobio.read_restart(path)
    pos = {int(c): i for i, c in enumerate(cell_ids)}
    order = np.array([pos[int(c)] for c in world.land_idx])
    return {k: pools[k][order].astype(np.float64)
            for k in simulator.SLOW_POOLS}


def _restart_problems(world, path):
    """The restart file must cover every land cell exactly once, with finite
    and strictly positive slow pools."""
    cell_ids, pools, _, _ = blobio.read_restart(path)
    if sorted(int(c) for c in cell_ids) != sorted(int(c) for c in
                                                  world.land_idx):
        return [f"restart covers {len(cell_ids)} cells, world has "
                f"{world.n_cells} land cells"]
    return [f"restart pool {k} is not finite and positive"
            for k in simulator.SLOW_POOLS
            if not (np.all(np.isfinite(pools[k])) and np.all(pools[k] > 0))]


def _spinup_speedups(world, restart_path):
    """Per-cell cold-start over warm-start years to reach equilibrium.

    A monthly linear pool relaxes as C_n - C* = (1 - k/12)^n (C_0 - C*).
    A cell is spun up once every slow-pool element is inside the
    EQUILIBRIUM_BAND relative band around its u/k value C*.  The warm start
    begins at the restart file's pools, the cold start at zero.  A cell
    already inside the band counts one month, the shortest restart.
    """
    eq = simulator.analytic_equilibrium(world)
    band = simulator.EQUILIBRIUM_BAND
    start = _restart_pools(world, restart_path)
    warm = np.zeros(world.n_cells)
    cold = np.zeros(world.n_cells)
    for key in simulator.SLOW_POOLS:
        target = getattr(eq.pools, key)
        k = simulator.K_GROUP[key] * world.params.decomp
        log_rate = np.log1p(-k / 12.0)[:, None]
        gap = np.abs(start[key] - target)
        with np.errstate(divide="ignore"):
            months = np.ceil(np.log(band * target / gap) / log_rate)
        warm = np.maximum(warm, np.where(gap > band * target, months,
                                         0.0).max(axis=1))
        cold_months = np.ceil(math.log(band) / log_rate)
        cold = np.maximum(cold, cold_months.max(axis=1))
    return cold / np.maximum(warm, 1.0)


def _history(log_path):
    """Rows of the training history CSV as dicts of floats."""
    with open(log_path, newline="", encoding="ascii") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _eval_scores(report_dir):
    """(mean slow-task R^2, physics residual) from eval's metrics.csv."""
    with open(f"{report_dir}/metrics.csv", newline="",
              encoding="ascii") as fh:
        rows = {row["task"]: row for row in csv.DictReader(fh)}
    r2 = float(np.mean([float(rows[t]["r2"]) for t in pipeline.SLOW_TASKS]))
    return r2, float(rows["_phys_residual"]["rmse"])


def check_setup(fixture, epochs):
    """(problems, figures) for the set-up outputs under ``fixture``.

    ``problems`` lists every failed check; ``figures`` holds the land-cell
    and training-split counts and the quality figures of the set-up model.
    """
    world = simulator.load_world(os.path.join(fixture, "world", "world.phw"))
    restart = os.path.join(fixture, "drift.phr")
    problems = (_oracle_problems(world, os.path.join(fixture, "data"))
                + _restart_problems(world, restart))
    try:
        spinup = float(np.median(_spinup_speedups(world, restart)))
    except KeyError:  # a land cell is missing from the restart file
        spinup = float("nan")
    rows = _history(os.path.join(fixture, "model_log.csv"))
    test_r2, phys = _eval_scores(os.path.join(fixture, "report"))
    with open(os.path.join(fixture, "data", "manifest.json"),
              encoding="utf-8") as fh:
        n_train = json.load(fh)["n_train"]
    figures = {"n_cells": world.n_cells, "n_train": n_train,
               "val_loss": rows[-1]["val_loss"], "test_r2": test_r2,
               "phys_residual": phys,
               "spinup_speedup_median": spinup}
    values = [v for row in rows for v in row.values()] + [test_r2, phys]
    if len(rows) != epochs or not np.all(np.isfinite(values)):
        problems.append(f"training history is not {epochs} finite epochs, "
                        f"or the eval scores are not finite")
    return problems, figures
