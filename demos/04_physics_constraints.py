#!/usr/bin/env python3
"""The two physics guards: hard positivity and the hard flux identity.

First pushes absurd latents through the prediction heads to show that
every output stays strictly positive (the property that makes predicted
pools safe to write into a restart file). Then scores the fluxes of an
untrained model on held-out cells: the model computes GPP, AR and NPP from
each cell's own forcing and parameters with the simulator's formula, so
NPP = GPP - AR holds to rounding and the fluxes match the equilibrium
targets without any training.
"""

import tempfile

import numpy as np

from phase_surrogate import metrics, pipeline, simulator
from phase_surrogate.autodiff import Tensor
from phase_surrogate.heads import TaskHeads, task_registry
from phase_surrogate.model import ModelConfig, Surrogate


def positivity_probe():
    rng = np.random.default_rng(0)
    heads = TaskHeads(task_registry({"n_pft": 5, "n_layers": 9}), in_dim=64,
                      hidden=64, rng=rng)
    z = rng.uniform(-100.0, 100.0, size=(10_000, 64)).astype(np.float32)
    bundle = heads.predict_all(Tensor(z))
    worst = min(float(v.data.min()) for v in bundle.values())
    n = sum(v.data.size for v in bundle.values())
    print(f"hard constraint: {n} outputs from latents in [-100, 100], "
          f"minimum value {worst:.3e} (softplus keeps all > 0)\n")


def main():
    positivity_probe()

    world = simulator.generate_world(seed=0,
                                     grid=simulator.grid_spec("coarse"))
    samples = simulator.export_samples(world)
    with tempfile.TemporaryDirectory() as tmp:
        dataset = pipeline.build_dataset(samples, seed=0, out_dir=tmp)
    model = Surrogate(ModelConfig(), pipeline.group_dims(dataset.train.groups))
    model.feature_stats = dict(dataset.feature_stats)
    model.target_stats = dict(dataset.target_stats)
    report = metrics.evaluate(model, dataset, "test")
    print("hard flux identity: an untrained model, held-out cells")
    for task in pipeline.FLUX_TASKS:
        print(f"  {task:<4} R2 = {report.tasks[task]['r2']:.5f}")
    residual = report.tasks["_phys_residual"]
    print(f"  held-out (npp-gpp+ar)^2 = {residual:.3e} of the flux scale")
    if residual > 1e-24 or min(report.tasks[t]["r2"]
                               for t in pipeline.FLUX_TASKS) < 0.999:
        raise SystemExit("the closed-form fluxes missed their targets")


if __name__ == "__main__":
    main()
