#!/usr/bin/env python3
"""From raw world to a train/test dataset.

Walks the cells' samples (one array per feature group, one row per cell)
through the data pipeline: nearest forcing-point alignment, the mean
annual cycle of the stationary forcing years, the seeded 80:20 train/test
permutation, MinMax statistics fitted on the training split, and the
dataset directory: a manifest plus one file per split, rows sorted by
(lat, lon).  Features are stored in physical units and targets
normalized.  A model built on the dataset takes its shapes from the
manifest's dims (vegetation types, soil layers) and both
sets of statistics from the training split: it scales its own inputs, and
it returns its predictions in physical units.
"""

import os
import tempfile

import numpy as np

from phase_surrogate import pipeline, simulator


def main():
    world = simulator.generate_world(seed=0,
                                     grid=simulator.grid_spec("coarse"))
    samples = simulator.export_samples(world)
    g = samples.groups
    print(f"{samples.n} samples; row 0 is cell {samples.cell_id[0]} at "
          f"({samples.lat[0]:.1f}, {samples.lon[0]:.1f})")
    print(f"  g1 annual cycle   : {g['g1'].shape}  (cells x months x variables)")
    print(f"                      the mean of the last {simulator.STATIONARY_YEARS} of "
          f"{world.years} simulated yr: the stationary years after the "
          f"{simulator.TREND_RAMP_YEARS:.0f}-yr trend ramp")
    print(f"  g2 static         : {g['g2'].shape}  {pipeline.G2_FIELDS}")
    print(f"  g3 traits         : {g['g3'].shape}  (cells x types x traits)")
    print(f"  g4 type state     : {g['g4'].shape}")
    print(f"  g5 layered state  : {g['g5'].shape}")
    print(f"  targets           : {sorted(samples.targets)}\n")

    # the model grid is aligned to the sparser forcing network by nearest
    # neighbor
    model_pts = np.stack([world.cell_lat, world.cell_lon], axis=1)
    forcing_pts = np.stack([world.points.lat, world.points.lon], axis=1)
    nearest = pipeline.kdtree_map(model_pts, forcing_pts)
    print(f"{len(nearest)} cells draw forcing from "
          f"{len(np.unique(nearest))} of {len(forcing_pts)} forcing points")

    with tempfile.TemporaryDirectory() as tmp:
        dataset = pipeline.build_dataset(samples, seed=0, out_dir=tmp)
        print(f"split: {dataset.train.n} train / {dataset.test.n} test "
              f"(seeded permutation of the cells)")
        print(f"dataset files: {sorted(os.listdir(tmp))}")
        print(f"dims a model takes from it: "
              f"{pipeline.group_dims(dataset.train.groups)}\n")
        stats = dataset.feature_stats
        for channel in ("g2.alpha", "g2.nutrient", "g1.temperature"):
            lo, hi = stats[channel]
            print(f"  {channel:<16} train range [{lo:.3f}, {hi:.3f}]")
        x = dataset.test.groups["g2"][:, pipeline.G2_FIELDS.index("alpha")]
        print(f"\ntest g2.alpha is stored in physical units: "
              f"[{x.min():.3f}, {x.max():.3f}]")
        print("a trained model maps each train range to [0, 1] itself; test "
              "cells may fall outside it, and the guard flags how far")

if __name__ == "__main__":
    main()
