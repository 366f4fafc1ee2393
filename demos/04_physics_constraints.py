#!/usr/bin/env python3
"""The two physics guards: hard positivity and the hard flux identity.

The model predicts each slow pool as obs * exp(r), where obs is the
cell's observed window-end pool and r the head's log ratio. First it
pushes absurd latents through heads with trained-size output layers to
show that every pool stays positive whatever r is (the property that
makes predicted pools safe to write into a restart file), and that an
untrained model, whose output layers start at zero, predicts the observed
state exactly. Then it scores the fluxes of that untrained model on
held-out cells: the model computes GPP, AR and NPP from each cell's own
forcing and parameters with the simulator's formula, so NPP = GPP - AR
holds to rounding and the fluxes match the equilibrium targets without
any training.
"""

import tempfile

import numpy as np

from phase_surrogate import metrics, model as model_mod, pipeline, simulator
from phase_surrogate.autodiff import Tensor
from phase_surrogate.heads import TaskHeads, task_registry
from phase_surrogate.model import ModelConfig, Surrogate


def positivity_probe(groups):
    rng = np.random.default_rng(0)
    heads = TaskHeads(task_registry(pipeline.group_dims(groups)), in_dim=64,
                      hidden=64, rng=rng)
    # a trained head's output layer is not zero
    for p in heads.params.values():
        p["w2"].data = rng.normal(0.0, 0.1, p["w2"].data.shape).astype(np.float32)
    n = groups["g1"].shape[0]
    z = rng.uniform(-100.0, 100.0, size=(n, 64)).astype(np.float32)
    ratios = {t: r.data for t, r in heads.predict_all(Tensor(z)).items()}
    pools = model_mod.from_log_ratios(groups, ratios)
    spread = max(float(np.abs(r).max()) for r in ratios.values())
    worst = min(float(v.min()) for v in pools.values())
    count = sum(v.size for v in pools.values())
    print(f"hard constraint: {count} pools from latents in [-100, 100], "
          f"log ratios up to {spread:.0f} in size, minimum pool "
          f"{worst:.3e} (exp keeps all > 0)")


def main():
    world = simulator.generate_world(seed=0,
                                     grid=simulator.grid_spec("coarse"))
    samples = simulator.export_samples(world)
    with tempfile.TemporaryDirectory() as tmp:
        dataset = pipeline.build_dataset(samples, seed=0, out_dir=tmp)
    positivity_probe(dataset.test.groups)

    model = Surrogate(ModelConfig(), pipeline.group_dims(dataset.train.groups))
    model.feature_stats = dict(dataset.feature_stats)
    report = metrics.evaluate(model, dataset, "test")
    observed = model_mod.observed(dataset.test.groups)
    if any(not np.array_equal(report.preds[t], observed[t])
           for t in pipeline.SLOW_TASKS):
        raise SystemExit("the untrained model left the observed state")
    print("persistence: the untrained model predicts the observed "
          "window-end pools exactly\n")
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
