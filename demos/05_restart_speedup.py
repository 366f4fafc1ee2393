#!/usr/bin/env python3
"""Warm-starting the simulator from predicted pools.

Trains a surrogate, has it predict the slow pools for every cell, writes
those predictions into a restart file, and lets the simulator continue
from there. The report compares the distance to true equilibrium before
and after a short continuation run, the drift it would add, and the
speedup over a cold start: cold-start over warm-start time to reach the
equilibrium band.
"""

import os
import tempfile

import numpy as np

from phase_surrogate import blobio, pipeline, simulator, training
from phase_surrogate.heads import denormalize


def main():
    world = simulator.generate_world(seed=0,
                                     grid=simulator.grid_spec("coarse"),
                                     years=6)
    samples = simulator.export_samples(world)
    with tempfile.TemporaryDirectory() as tmp:
        dataset = pipeline.build_dataset(samples, seed=0,
                                         out_dir=os.path.join(tmp, "ds"))
        model = training.train(training.TrainConfig(seed=0, max_epochs=40),
                               dataset)

        # predict every cell from its physical-unit features and write the
        # restart file
        preds, _ = model.predict(samples.groups)
        slow = denormalize({t: preds[t] for t in pipeline.SLOW_TASKS},
                           model.target_stats)
        path = os.path.join(tmp, "warm.phr")
        blobio.write_restart(path, samples.cell_id, slow, world.n_pft,
                             world.n_layers)
        print(f"wrote {os.path.basename(path)} for {world.n_cells} cells")

        initial, _ = simulator.load_restart_state(world, path)
        _, report = simulator.restart_run(initial, world, years=100)

        print(f"\n{'pool':>12} {'before':>10} {'after':>10} {'drift':>10}"
              f"   (median relative distance to equilibrium)")
        for pool in simulator.SLOW_POOLS:
            print(f"{pool:>12} {report.before[pool]['median']:>10.4f} "
                  f"{report.after[pool]['median']:>10.4f} "
                  f"{report.drift[pool]['median']:>10.4f}")
        print(f"\ncold start needs >= {report.cold_start_years.min():.0f} yr; "
              f"the model read the last {model.config.window_months} months "
              f"of a {report.window_years}-yr simulated window")
        print(f"warm start needs a median "
              f"{np.median(report.warm_start_years):.0f} yr to the same band")
        print(f"speedup: min {report.speedup_min:.2f}x, "
              f"median {report.speedup_median:.2f}x")


if __name__ == "__main__":
    main()
