#!/usr/bin/env python3
"""The out-of-distribution guard, and moving to a finer grid.

A trained model carries its training data's feature range and the latent
statistics of the rows its weights were fitted to. Part one feeds it a clean
batch and a corrupted one and shows how the guard reacts. Part two takes the
coarse-grid model to a finer grid with wider parameter spreads: first
zero-shot, then fine-tuned on a 10% sample of the fine-grid data, once per
tune seed, since one tune's R2 swings with its seed. Each time it counts the
fine test cells each rule flags. Fine-tuning refits the latent rule on the
tune sample; the source model's rule, applied to the tuned latents, is shown
beside it.

Both worlds are the default 20-year ones. To keep the demo short, the
coarse model trains for 40 epochs instead of the default 200.
"""

import os
import tempfile

import numpy as np

from phase_surrogate import metrics, ood, pipeline, simulator, training


TRAIN_EPOCHS = 40
TUNE_SEEDS = range(4)


def build(seed, grid_name, out_dir):
    world = simulator.generate_world(seed=seed,
                                     grid=simulator.grid_spec(grid_name))
    samples = simulator.export_samples(world)
    return pipeline.build_dataset(samples, seed=seed, out_dir=out_dir)


def rule_counts(z, groups, model):
    """Cells the feature-range rule and the latent rule of ``model``'s guard
    each flag, given latents ``z`` for ``groups``."""
    _, _, reasons = ood.check(z, groups, model)
    latent = sum("latent" in r for r in reasons)
    ranged = sum(any(name != "latent" for name in r) for r in reasons)
    return ranged, latent


def main():
    with tempfile.TemporaryDirectory() as tmp:
        coarse = build(0, "coarse", os.path.join(tmp, "coarse"))
        model = training.train(
            training.TrainConfig(seed=0, max_epochs=TRAIN_EPOCHS), coarse)
        print(f"coarse model: {len(model.history)} of {TRAIN_EPOCHS} epochs "
              f"(the default is {training.TrainConfig().max_epochs})\n")

        # -- guard ---------------------------------------------------------
        # the guard, like the model and the dataset, reads physical units
        batch = coarse.split("test").take(slice(0, 64)).groups
        _, z = model.predict(batch)
        flags, _, _ = ood.check(z, batch, model)
        print(f"clean test batch: {int(flags.sum())}/{len(flags)} flagged")

        corrupted = {g: v.copy() for g, v in batch.items()}
        col = pipeline.G2_FIELDS.index("alpha")
        _, alpha_hi = model.feature_stats["g2.alpha"]
        corrupted["g2"][:8, col] = 25.0 * alpha_hi   # far above training
        _, z = model.predict(corrupted)
        flags, _, reasons = ood.check(z, corrupted, model)
        print(f"corrupted batch:  {int(flags.sum())}/{len(flags)} flagged, "
              f"first reason: {reasons[0]}")

        # -- transfer ------------------------------------------------------
        fine = build(1, "fine", os.path.join(tmp, "fine"))
        print(f"\nfine grid: {fine.train.n + fine.test.n} cells, "
              f"wider parameter spreads than training")
        test = fine.split("test")
        zero_shot = metrics.evaluate(model, fine, "test")
        print(f"zero-shot mean R2 on fine test cells: "
              f"{zero_shot.mean_r2():.3f}")
        ranged, latent = rule_counts(zero_shot.latent, test.groups, model)
        print(f"guard on the {test.n} fine test cells before tuning: "
              f"feature range flags {ranged}, latent {latent}")

        print("after fine-tuning on 10% of fine train cells:")
        for seed in TUNE_SEEDS:
            config = training.TrainConfig(seed=seed, max_epochs=15)
            adapted = training.fine_tune(model, fine, fraction=0.10,
                                         config=config)
            report = metrics.evaluate(adapted, fine, "test")
            ranged, latent = rule_counts(report.latent, test.groups, adapted)
            _, stale = rule_counts(report.latent, test.groups, model)
            print(f"  tune seed {seed}: R2 {report.mean_r2():.3f}, feature "
                  f"range flags {ranged}, latent {latent} (the source "
                  f"model's latent rule: {stale})")


if __name__ == "__main__":
    main()
