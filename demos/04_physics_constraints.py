#!/usr/bin/env python3
"""The two physics guards: hard positivity and the hard flux identity.

The model predicts each slow pool as obs * exp(s + r), where obs is the
cell's observed window-end pool, s the spin-up prior of its turnover
group and r the head's residual for that group. First it pushes absurd
latents through a head with a trained-size output layer to show that
every pool stays positive whatever r is (the property that makes
predicted pools safe to write into a restart file), and that an
untrained model, whose output layer starts at zero, predicts
obs * exp(s), the prior, exactly. Then it scores the fluxes of that untrained model on
held-out cells: the model computes GPP, AR and NPP from each cell's own
forcing and parameters with the simulator's formula, so NPP = GPP - AR
holds to rounding and the fluxes match the equilibrium targets without
any training.
"""

import tempfile

import numpy as np

from phase_surrogate import metrics, model as model_mod, pipeline, simulator
from phase_surrogate.autodiff import Tensor
from phase_surrogate.encoders import Mlp
from phase_surrogate.model import ModelConfig, Surrogate


def positivity_probe(groups):
    rng = np.random.default_rng(0)
    # the default model's head, 64 latents to one residual per turnover
    # group; a trained head's output layer is not zero
    heads = Mlp((64,), (64, len(pipeline.PRIOR_GROUPS)), rng=rng)
    w2 = heads.params["w2"]
    w2.data = rng.normal(0.0, 0.1, w2.data.shape).astype(np.float32)
    n = groups["g1"].shape[0]
    z = rng.uniform(-100.0, 100.0, size=(n, 64)).astype(np.float32)
    residual = heads.encode(Tensor(z)).data
    pools = model_mod.pools_from(groups, residual)
    worst = min(float(v.min()) for v in pools.values())
    count = sum(v.size for v in pools.values())
    print(f"hard constraint: {count} pools from latents in [-100, 100], "
          f"residuals up to {float(np.abs(residual).max()):.0f} in size, "
          f"minimum pool {worst:.3e} (exp keeps all > 0)")


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
    prior = model_mod.pools_from(dataset.test.groups, 0.0)
    if any(not np.array_equal(report.preds[t], prior[t])
           for t in pipeline.SLOW_TASKS):
        raise SystemExit("the untrained model left the prior")
    print("prior: the untrained model predicts obs * exp(prior) "
          "exactly\n")
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
