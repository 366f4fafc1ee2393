#!/usr/bin/env python3
"""Train a surrogate and read its report card.

Generates a world, builds the dataset, trains briefly (a short run for
demonstration; no test trains to convergence either), then prints
per-task scores and the fusion attention for one test cell so you can
see which input modality each group attends to.
"""

import tempfile

from phase_surrogate import metrics, pipeline, simulator, training
from phase_surrogate.model import active_branches


def main():
    world = simulator.generate_world(seed=0,
                                     grid=simulator.grid_spec("coarse"))
    samples = simulator.export_samples(world)
    with tempfile.TemporaryDirectory() as tmp:
        dataset = pipeline.build_dataset(samples, seed=0, out_dir=tmp)

        config = training.TrainConfig(seed=0, max_epochs=30)
        model = training.train(config, dataset)
        epochs = len(model.history)
        print(f"trained {epochs} epochs "
              f"(early stop patience {config.patience})\n")

        report = metrics.evaluate(model, dataset, "test")
        print(f"{'task':<12} {'R2':>8} {'RMSE':>12}")
        for task in pipeline.TASKS:
            entry = report.tasks[task]
            print(f"{task:<12} {entry['r2']:>8.3f} {entry['rmse']:>12.4f}")
        print(f"{'physics residual (normalized)':<21} "
              f"{report.tasks['_phys_residual']:>11.2e}")
        print(f"mean R2 over slow pools: {report.mean_r2():.3f}\n")

        # the dataset stores physical units; the model applies its own
        # scaling
        cell = dataset.split("test").take(slice(0, 1))
        weights = model.attention_weights(cell.groups)[0]
        names = active_branches(model.config.variant)
        print("fusion attention, head 0, one test cell "
              "(rows attend over columns):")
        print(" " * 10 + "".join(f"{n:>8}" for n in names))
        for qi, q in enumerate(names):
            row = "".join(f"{weights[0, qi, ki]:>8.3f}"
                          for ki in range(len(names)))
            print(f"{q:>10}{row}")


if __name__ == "__main__":
    main()
