"""Component-removal study: trains each variant and tabulates held-out R^2.

Variants differ from the full model by exactly one designated component.
The table covers the slow tasks only: every variant computes the fluxes in
the same closed form, so their scores do not differ between variants.
"""

import dataclasses
import io

import numpy as np

from . import blobio
from . import pipeline
from .errors import ConfigurationError
from .metrics import evaluate, format_mean_std
from .model import VARIANTS, ModelConfig
from .training import TrainConfig, train

TABLE_TASKS = pipeline.SLOW_TASKS


def run_variant(name, dataset, seed, model_config=None, train_config=None):
    """Trains one variant at one seed, from the given configs or the
    defaults; returns (model, report)."""
    mc = dataclasses.replace(model_config or ModelConfig(), variant=name)
    tc = dataclasses.replace(train_config or TrainConfig(), seed=seed)
    model = train(tc, dataset, model_config=mc)
    return model, evaluate(model, dataset, "test")


def run_ablation_suite(dataset, seeds, model_config=None, train_config=None,
                       out_csv=None):
    """Per-task R^2 (mean +- std over seeds) for every variant.

    Returns {"variants": names, "r2": {variant: {task: [per-seed]}},
    "mean_r2": {variant: float}}; optionally writes the comparison table.
    """
    seeds = list(seeds)
    if not seeds:
        raise ConfigurationError("need at least one seed")
    scores = {}
    for name in VARIANTS:
        per_task = {t: [] for t in TABLE_TASKS}
        for seed in seeds:
            _, report = run_variant(name, dataset, seed, model_config,
                                    train_config)
            for t in TABLE_TASKS:
                per_task[t].append(report.tasks[t]["r2"])
        scores[name] = per_task
    mean_r2 = {name: float(np.mean([np.mean(v) for v in per_task.values()]))
               for name, per_task in scores.items()}
    result = {"variants": VARIANTS, "r2": scores, "mean_r2": mean_r2}
    if out_csv is not None:
        write_table(out_csv, result)
    return result


def write_table(path, result):
    variants = result["variants"]
    buf = io.StringIO()
    buf.write("task," + ",".join(variants) + "\n")
    for t in TABLE_TASKS:
        cells = []
        for name in variants:
            vals = result["r2"][name][t]
            cells.append(format_mean_std(float(np.mean(vals)),
                                         float(np.std(vals))))
        buf.write(f"{t}," + ",".join(cells) + "\n")
    buf.write("mean," + ",".join(f"{result['mean_r2'][name]:.3f}"
                                 for name in variants) + "\n")
    blobio.atomic_write_bytes(path, buf.getvalue().encode("ascii"))
