"""Attention fusion of the per-modality latents.

The branch outputs are stacked into a short sequence (one position per
feature group), tagged with learned modality embeddings, passed through a
small stack of self-attention blocks, and mean-pooled back to a single
latent.  Because the pool is symmetric, permuting the groups together with
their embeddings leaves the fused latent unchanged.

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

    def _split_heads(self, t, batch, n):
        dh = self.dim // self.heads
        t = ad.reshape(t, (batch, n, self.heads, dh))
        t = ad.transpose(t, (0, 2, 1, 3))
        return ad.reshape(t, (batch * self.heads, n, dh))

    def _merge_heads(self, t, batch, n):
        dh = self.dim // self.heads
        t = ad.reshape(t, (batch, self.heads, n, dh))
        t = ad.transpose(t, (0, 2, 1, 3))
        return ad.reshape(t, (batch, n, self.dim))

    def _attention(self, x, layer, batch, n):
        """Self-attention output and its softmax weights [batch, heads, n, n]."""
        q = self._split_heads(ad.matmul(x, layer["wq"]), batch, n)
        k = self._split_heads(ad.matmul(x, layer["wk"]), batch, n)
        v = self._split_heads(ad.matmul(x, layer["wv"]), batch, n)
        dh = self.dim // self.heads
        scores = ad.mul_scalar(ad.matmul(q, ad.transpose(k, (0, 2, 1))),
                               1.0 / np.sqrt(dh))
        attn = ad.softmax(scores, axis=-1)
        mixed = self._merge_heads(ad.matmul(attn, v), batch, n)
        out = ad.matmul(mixed, layer["wo"])
        return out, attn.data.reshape(batch, self.heads, n, n)

    def _encode(self, z_list):
        """Encoded group sequence [batch, n, d] and the first layer's
        attention weights."""
        x = _stack_groups(z_list, self.n_groups, self.dim)
        batch, n = x.shape[0], x.shape[1]
        x = ad.add_leading(x, self.embed)
        # normalize before each sublayer and keep the residual path clean,
        # which trains stably at the default learning rate without warmup
        weights = []
        for layer in self.layers:
            normed = ad.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            att, layer_weights = self._attention(normed, layer, batch, n)
            weights.append(layer_weights)
            x = ad.add(x, att)
            normed = ad.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
            hidden = ad.relu(ad.add_rowvec(ad.matmul(normed, layer["ff1"]),
                                           layer["ff1_b"]))
            ffn = ad.add_rowvec(ad.matmul(hidden, layer["ff2"]), layer["ff2_b"])
            x = ad.add(x, ffn)
        return ad.layer_norm(x, self.ln_f_g, self.ln_f_b), weights[0]

    def fuse(self, z_list):
        """[n_groups] latents of [batch, d] -> fused [batch, d]."""
        x, _ = self._encode(z_list)
        return ad.mean_axis(x, axis=1)

    def attention_weights(self, z_list):
        """First-layer softmax attention: [batch, heads, n, n]."""
        return self._encode(z_list)[1]


class ConcatFusion:
    """Ablation replacement: concatenate the group latents and project."""

    def __init__(self, n_groups, dim=64, rng=None, dtype=np.float32, **_ignored):
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
        return ad.add_rowvec(ad.matmul(flat, self.w), self.b)

    def attention_weights(self, z_list):
        raise ContractError("concatenation fusion has no attention weights")
