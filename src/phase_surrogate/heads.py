"""Task-specific prediction heads.

Each registered task owns a dense(relu)dense stack from the fused latent
to its output shape, whose output layer starts at zero.  The model that
owns the heads reads their outputs as log ratios to the observed pools,
so an untrained head predicts the observed state, and maps them back to
physical units; the fluxes have no head.
"""

import numpy as np

from . import autodiff as ad
from . import pipeline
from .encoders import xavier, zeros_param
from .errors import ContractError, ShapeError


def task_registry(dims):
    """Default task set, in :data:`pipeline.SLOW_TASKS` order: each slow
    task's output shape, that of its target array in
    :data:`pipeline.SPLIT_LAYOUT` less its row axis, with the named
    dimensions taken from ``dims``.  A head of any rank is legal."""
    return {t: tuple(dims[d] for d in pipeline.SPLIT_LAYOUT[t][1:])
            for t in pipeline.SLOW_TASKS}


class TaskHeads:
    def __init__(self, registry, in_dim=64, hidden=64, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.registry = dict(registry)
        self.in_dim = in_dim
        self.params = {}
        for name, shape in self.registry.items():
            width = int(np.prod(shape))
            self.params[name] = {
                "w1": xavier(rng, (in_dim, hidden), dtype),
                "b1": zeros_param(hidden, dtype),
                "w2": zeros_param((hidden, width), dtype),
                "b2": zeros_param(width, dtype),
            }

    def named_params(self):
        out = {}
        for name in sorted(self.params):
            for key, tensor in self.params[name].items():
                out[f"{name}.{key}"] = tensor
        return out

    def predict(self, z, task):
        """Fused latent [batch, d] -> prediction [batch, *shape]."""
        if task not in self.registry:
            raise ContractError(f"no head registered for task {task!r}")
        if z.data.ndim != 2 or z.shape[1] != self.in_dim:
            raise ShapeError(f"latent must be [batch, {self.in_dim}], "
                             f"got {z.shape}")
        p = self.params[task]
        hidden = ad.dense(z, p["w1"], p["b1"], relu=True)
        out = ad.dense(hidden, p["w2"], p["b2"])
        return ad.reshape(out, (z.shape[0],) + self.registry[task])

    def predict_all(self, z):
        return {task: self.predict(z, task) for task in self.registry}
