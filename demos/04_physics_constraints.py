#!/usr/bin/env python3
"""The two physics guards: hard positivity and soft flux balance.

First pushes absurd latents through the prediction heads to show that
every output stays strictly positive (the property that makes predicted
pools safe to write into a restart file). Then trains the same model
twice, with and without the flux-balance penalty, and compares how well
NPP = GPP - AR holds on held-out cells.
"""

import tempfile

import numpy as np

from phase_surrogate import metrics, pipeline, simulator, training
from phase_surrogate.autodiff import Tensor
from phase_surrogate.heads import TaskHeads, task_registry


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
        print("soft constraint: paired runs, same seed, 25 epochs")
        residuals = {}
        for lam in (0.0, 1.0):
            config = training.TrainConfig(seed=0, max_epochs=25,
                                          phys_weight=lam)
            model = training.train(config, dataset)
            report = metrics.evaluate(model, dataset, "test")
            residuals[lam] = report.tasks["_phys_residual"]
            print(f"  lambda={lam:.0f}: held-out (npp-gpp+ar)^2 = "
                  f"{residuals[lam]:.3e}")
        drop = 1.0 - residuals[1.0] / residuals[0.0]
        print(f"penalty cuts the flux-balance residual by {drop:.0%}")


if __name__ == "__main__":
    main()
