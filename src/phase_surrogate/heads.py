"""Task-specific prediction heads with a hard positivity constraint.

Each registered task owns a dense(relu)dense stack from the fused latent
to its output shape.  Tasks flagged non-negative (all nine defaults) end
in softplus, so every prediction is strictly positive no matter how
extreme the latent: the property that makes the predicted state safe to
write into a restart file.

The net primary production head is a free head, not the difference of the
other two flux heads; the identity NPP = GPP - AR is enforced only softly
during training, which keeps the physics residual informative.
"""

import numpy as np

from . import autodiff as ad
from . import pipeline
from .encoders import xavier, zeros_param
from .errors import ContractError, ShapeError


def task_registry(n_pft, n_layers):
    """Default task set: per-type pools, per-layer pools, flux scalars.
    Shapes may have any rank; a (type x layer) matrix head is legal."""
    reg = {
        "deadcrootc": (n_pft,),
        "deadstemc": (n_pft,),
        "tlai": (n_pft,),
        "cwdc": (n_layers,),
        "soil3c": (n_layers,),
        "soil4c": (n_layers,),
        "gpp": (),
        "ar": (),
        "npp": (),
    }
    return {name: {"shape": shape, "nonneg": True} for name, shape in reg.items()}


class TaskHeads:
    def __init__(self, registry, in_dim=64, hidden=64, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.registry = dict(registry)
        self.in_dim = in_dim
        self.params = {}
        for name, spec in self.registry.items():
            width = int(np.prod(spec["shape"])) if spec["shape"] else 1
            self.params[name] = {
                "w1": xavier(rng, (in_dim, hidden), dtype),
                "b1": zeros_param(hidden, dtype),
                "w2": xavier(rng, (hidden, width), dtype),
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
        hidden = ad.relu(ad.add_rowvec(ad.matmul(z, p["w1"]), p["b1"]))
        out = ad.add_rowvec(ad.matmul(hidden, p["w2"]), p["b2"])
        if self.registry[task]["nonneg"]:
            out = ad.softplus(out)
        shape = self.registry[task]["shape"]
        return ad.reshape(out, (z.shape[0],) + shape)

    def predict_all(self, z):
        return {task: self.predict(z, task) for task in self.registry}


def denormalize(bundle, stats):
    """Map normalized predictions back to physical units via the stored
    per-task (min, max).  Takes and returns arrays."""
    out = {}
    for task, values in bundle.items():
        if task not in stats:
            raise ContractError(f"no normalization stats for task {task!r}")
        out[task] = pipeline.minmax_invert(values, stats[task])
    return out

