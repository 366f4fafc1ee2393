"""Attention fusion of the per-modality latents.

The branch outputs are stacked into a short sequence (one position per
feature group), tagged with learned modality embeddings, passed through a
small stack of self-attention blocks (one ``autodiff.transformer_layer``
node each), then normalized and mean-pooled back to a single latent (one
``autodiff.norm_pool`` node).  Because the pool is symmetric, permuting
the groups together with their embeddings leaves the fused latent
unchanged.

A concatenate+dense variant offers the same call surface so the fusion
stage can be swapped out wholesale in ablation runs.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoders import xavier, zeros_param
from .errors import ConfigurationError, ContractError, ShapeError


def _stack_groups(z_list, n_groups, dim):
    """[n_groups] latents of [batch, d] -> [batch, n_groups, d]."""
    if len(z_list) != n_groups:
        raise ShapeError(f"expected {n_groups} group latents, got {len(z_list)}")
    if len(z_list) == 0:
        raise ShapeError("fusion needs at least one group latent")
    for z in z_list:
        if z.data.ndim != 2:
            raise ShapeError(f"group latent must be [batch, d], got {z.shape}")
        if z.shape[1] != dim:
            raise ShapeError(f"group latent width {z.shape[1]} != fusion width {dim}")
    batches = {z.shape[0] for z in z_list}
    if len(batches) != 1:
        raise ShapeError(f"group latents disagree on batch size: {sorted(batches)}")
    return ad.stack(z_list, axis=1)


class TransformerFusion:
    """Multi-head self-attention over the group axis, mean-pooled."""

    def __init__(self, n_groups, dim=64, heads=4, n_layers=2, ff_mult=4,
                 rng=None, dtype=np.float32):
        if dim % heads:
            raise ConfigurationError(f"latent width {dim} not divisible by "
                                     f"{heads} heads")
        rng = rng or np.random.default_rng(0)
        self.n_groups = n_groups
        self.dim = dim
        self.heads = heads
        self.n_layers = n_layers
        # distinct rows so positions stay distinguishable at initialization
        self.embed = Tensor(
            (0.02 * rng.standard_normal((n_groups, dim))).astype(dtype),
            requires_grad=True)
        self.layers = []
        ff = ff_mult * dim
        for _ in range(n_layers):
            self.layers.append({
                "wq": xavier(rng, (dim, dim), dtype),
                "wk": xavier(rng, (dim, dim), dtype),
                "wv": xavier(rng, (dim, dim), dtype),
                "wo": xavier(rng, (dim, dim), dtype),
                "ln1_g": Tensor(np.ones(dim, dtype=dtype), requires_grad=True),
                "ln1_b": zeros_param(dim, dtype),
                "ff1": xavier(rng, (dim, ff), dtype),
                "ff1_b": zeros_param(ff, dtype),
                "ff2": xavier(rng, (ff, dim), dtype),
                "ff2_b": zeros_param(dim, dtype),
                "ln2_g": Tensor(np.ones(dim, dtype=dtype), requires_grad=True),
                "ln2_b": zeros_param(dim, dtype),
            })
        self.ln_f_g = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.ln_f_b = zeros_param(dim, dtype)

    def named_params(self):
        out = {"embed": self.embed,
               "ln_f_g": self.ln_f_g, "ln_f_b": self.ln_f_b}
        for i, layer in enumerate(self.layers):
            for key, tensor in layer.items():
                out[f"layer{i}.{key}"] = tensor
        return out

    def _encode(self, z_list):
        """Encoded group sequence [batch, n, d] and the first layer's
        attention weights."""
        x = ad.add_rowvec(_stack_groups(z_list, self.n_groups, self.dim),
                          self.embed)
        # normalize before each sublayer and keep the residual path clean,
        # which trains stably at the default learning rate without warmup
        weights = []
        for layer in self.layers:
            x, layer_weights = ad.transformer_layer(x, heads=self.heads,
                                                    **layer)
            weights.append(layer_weights)
        return x, weights[0]

    def fuse(self, z_list):
        """[n_groups] latents of [batch, d] -> fused [batch, d]."""
        x, _ = self._encode(z_list)
        return ad.norm_pool(x, self.ln_f_g, self.ln_f_b)

    def attention_weights(self, z_list):
        """First-layer softmax attention: [batch, heads, n, n]."""
        return self._encode(z_list)[1]


class ConcatFusion:
    """Ablation replacement: concatenate the group latents and project."""

    def __init__(self, n_groups, dim=64, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.n_groups = n_groups
        self.dim = dim
        self.w = xavier(rng, (n_groups * dim, dim), dtype)
        self.b = zeros_param(dim, dtype)

    def named_params(self):
        return {"w": self.w, "b": self.b}

    def fuse(self, z_list):
        x = _stack_groups(z_list, self.n_groups, self.dim)
        flat = ad.reshape(x, (x.shape[0], self.n_groups * self.dim))
        return ad.dense(flat, self.w, self.b)

    def attention_weights(self, z_list):
        raise ContractError("concatenation fusion has no attention weights")
