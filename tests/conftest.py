import numpy as np
import pytest

from phase_surrogate import ood, pipeline
from phase_surrogate.model import ModelConfig
from phase_surrogate.pipeline import Dataset, Samples
from phase_surrogate.training import TrainConfig, train


def build_toy_dataset(n=40, seed=0):
    """Small in-memory dataset with a smooth learnable input-target map.

    Every group influences every slow target so component-removal tests
    see a signal.  The flux targets satisfy npp = gpp - ar but are not the
    closed form a model computes from these inputs, and the prior is noise
    about 0, not the spin-up prior of these pools.
    """
    rng = np.random.default_rng(seed)
    g1 = rng.uniform(0.05, 0.95, (n, 12, 5)).astype(np.float32)
    g2 = rng.uniform(0.05, 0.95, (n, 8)).astype(np.float32)
    g3 = rng.uniform(0.05, 0.95, (n, 5, 3)).astype(np.float32)
    g4 = rng.uniform(0.05, 0.95, (n, 5, 5)).astype(np.float32)
    g5 = rng.uniform(0.05, 0.95, (n, 9, 3)).astype(np.float32)
    drive = (g1.mean(axis=(1, 2)) + g2.mean(axis=1)
             + g3.mean(axis=(1, 2)) + g4.mean(axis=(1, 2))
             + g5.mean(axis=(1, 2))) / 5.0
    targets = {}
    for i, task in enumerate(pipeline.SLOW_TASKS):
        width = 5 if i < 3 else 9
        shape_term = g4[:, :width, 0] if width == 5 else g5[:, :, 0]
        vals = 0.2 + 0.5 * drive[:, None] + 0.25 * shape_term
        targets[task] = vals.astype(np.float32)
    gpp = (0.2 + 0.6 * drive).astype(np.float32)
    ar = (0.8 * gpp).astype(np.float32)
    targets["gpp"] = gpp
    targets["ar"] = ar
    targets["npp"] = gpp - ar
    prior = np.random.default_rng([seed, 1]).uniform(-0.2, 0.2, (n, 3))

    def split(sl):
        return Samples(
            cell_id=np.arange(n, dtype=np.int64)[sl],
            lat=rng.uniform(-60, 60, n)[sl],
            lon=rng.uniform(0, 360, n)[sl],
            groups={"g1": g1[sl], "g2": g2[sl], "g3": g3[sl],
                    "g4": g4[sl], "g5": g5[sl], "prior": prior[sl]},
            targets={t: v[sl] for t, v in targets.items()})

    n_train = (n * 8) // 10
    feature_stats = {name: [0.0, 1.0] for name, _, _ in
                     pipeline.FEATURE_CHANNELS}
    target_stats = {t: [0.0, 1.0] for t in pipeline.TASKS}
    return Dataset(train=split(slice(0, n_train)),
                   test=split(slice(n_train, n)),
                   feature_stats=feature_stats, target_stats=target_stats)


# the dims of build_toy_dataset's default arrays
TOY_DIMS = {"n_pft": 5, "n_layers": 9}


def with_guard(model):
    """``model`` with an OOD guard fitted to a toy train split in its dims,
    as a model must carry one to be saved."""
    dims = model.dims
    groups = build_toy_dataset().train.groups
    groups = dict(groups, g3=groups["g3"][:, :dims["n_pft"]],
                  g4=groups["g4"][:, :dims["n_pft"]],
                  g5=groups["g5"][:, :dims["n_layers"]])
    model.ood_stats = ood.fit_ood(model, groups)
    return model


def toy_model_config(**overrides):
    base = dict(dim=16, hidden=16, heads=2, depth=1, ff_mult=2,
                channels=(4, 6))
    base.update(overrides)
    return ModelConfig(**base)


@pytest.fixture(scope="session")
def toy_dataset():
    return build_toy_dataset()


@pytest.fixture(scope="session")
def toy_model(toy_dataset):
    cfg = TrainConfig(seed=0, max_epochs=12, batch_size=16)
    return train(cfg, toy_dataset, model_config=toy_model_config())
