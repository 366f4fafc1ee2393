"""The prediction head: one dense(relu)dense stack from the fused latent to
one residual per turnover group of :data:`pipeline.PRIOR_GROUPS`, whose
output layer starts at zero.  The model that owns the head adds each
residual to the sample's spin-up prior, so an untrained head predicts the
prior; the fluxes have no head.
"""

import numpy as np

from . import autodiff as ad
from . import pipeline
from .encoders import xavier, zeros_param
from .errors import ShapeError


class TaskHeads:
    def __init__(self, in_dim=64, hidden=64, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.in_dim = in_dim
        width = len(pipeline.PRIOR_GROUPS)
        self.params = {"w1": xavier(rng, (in_dim, hidden), dtype),
                       "b1": zeros_param(hidden, dtype),
                       "w2": zeros_param((hidden, width), dtype),
                       "b2": zeros_param(width, dtype)}

    def named_params(self):
        return dict(self.params)

    def predict_all(self, z):
        """Fused latent [batch, d] -> residuals [batch, groups]."""
        if z.data.ndim != 2 or z.shape[1] != self.in_dim:
            raise ShapeError(f"latent must be [batch, {self.in_dim}], "
                             f"got {z.shape}")
        p = self.params
        hidden = ad.dense(z, p["w1"], p["b1"], relu=True)
        return ad.dense(hidden, p["w2"], p["b2"])
