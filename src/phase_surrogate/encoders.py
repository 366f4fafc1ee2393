"""Modality-specific encoders mapping each feature group to a shared
latent width.

Four branches cover the five feature groups: a gated recurrent branch for
the monthly forcing sequence, a depth-convolution branch for layered
pools, and two dense branches (static cell attributes; per-type traits
concatenated with per-type states, flattened).  Every branch takes a
batch (the leading axis) and nothing else, raising ``ShapeError`` on an
unbatched sample, and emits [batch, d] so the fusion stage can stack them.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, ShapeError


def xavier(rng, shape, dtype=np.float32):
    fan_in, fan_out = shape[0], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, size=shape).astype(dtype),
                  requires_grad=True)


def zeros_param(shape, dtype=np.float32):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _check_batch(x, ndim):
    if x.data.ndim != ndim:
        raise ShapeError(f"expected a {ndim}-dim batch, got shape {x.shape}")


class TemporalEncoder:
    """Single-layer gated recurrent network over a monthly sequence; the
    final hidden state is projected to the latent width."""

    def __init__(self, n_vars, hidden=64, out_dim=64, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.n_vars = n_vars
        self.hidden = hidden
        self.out_dim = out_dim
        self.w_x = xavier(rng, (n_vars, 4 * hidden), dtype)
        self.w_h = xavier(rng, (hidden, 4 * hidden), dtype)
        bias = np.zeros(4 * hidden, dtype=dtype)
        bias[hidden:2 * hidden] = 1.0  # forget gate starts open
        self.b = Tensor(bias, requires_grad=True)
        self.w_p = xavier(rng, (hidden, out_dim), dtype)
        self.b_p = zeros_param(out_dim, dtype)

    def named_params(self):
        return {"w_x": self.w_x, "w_h": self.w_h, "b": self.b,
                "w_p": self.w_p, "b_p": self.b_p}

    def encode(self, x):
        _check_batch(x, 3)
        batch, steps, n_vars = x.shape
        if steps == 0:
            raise ContractError("temporal encoder needs at least one step")
        if n_vars != self.n_vars:
            raise ShapeError(f"expected {self.n_vars} forcing variables, got {n_vars}")
        h = ad.lstm_sequence(x, self.w_x, self.w_h, self.b)
        return ad.add_rowvec(ad.matmul(h, self.w_p), self.b_p)


class LayeredEncoder:
    """Two depth-axis convolutions (kernel 3, padding 1, relu) followed by
    flatten and a dense projection."""

    def __init__(self, n_layers, n_fields, channels=(16, 32), out_dim=64,
                 rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.n_layers = n_layers
        self.n_fields = n_fields
        self.out_dim = out_dim
        c1, c2 = channels
        self.k1 = xavier(rng, (3, n_fields, c1), dtype)
        self.b1 = zeros_param(c1, dtype)
        self.k2 = xavier(rng, (3, c1, c2), dtype)
        self.b2 = zeros_param(c2, dtype)
        self.w = xavier(rng, (n_layers * c2, out_dim), dtype)
        self.b = zeros_param(out_dim, dtype)

    def named_params(self):
        return {"k1": self.k1, "b1": self.b1, "k2": self.k2, "b2": self.b2,
                "w": self.w, "b": self.b}

    def encode(self, x):
        _check_batch(x, 3)
        batch, layers, fields = x.shape
        if layers != self.n_layers or fields != self.n_fields:
            raise ShapeError(f"expected [{self.n_layers}, {self.n_fields}] "
                             f"layered input, got [{layers}, {fields}]")
        y = ad.relu(ad.add_rowvec(ad.conv1d(x, self.k1, padding=1), self.b1))
        y = ad.relu(ad.add_rowvec(ad.conv1d(y, self.k2, padding=1), self.b2))
        flat = ad.reshape(y, (batch, layers * self.k2.shape[2]))
        return ad.add_rowvec(ad.matmul(flat, self.w), self.b)


class StaticEncoder:
    """Two dense layers with relu for flat per-cell attributes."""

    def __init__(self, n_fields, hidden=64, out_dim=64, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.n_fields = n_fields
        self.out_dim = out_dim
        self.w1 = xavier(rng, (n_fields, hidden), dtype)
        self.b1 = zeros_param(hidden, dtype)
        self.w2 = xavier(rng, (hidden, out_dim), dtype)
        self.b2 = zeros_param(out_dim, dtype)

    def named_params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def encode(self, x):
        _check_batch(x, 2)
        if x.shape[1] != self.n_fields:
            raise ShapeError(f"expected {self.n_fields} static fields, "
                             f"got {x.shape[1]}")
        hidden = ad.relu(ad.add_rowvec(ad.matmul(x, self.w1), self.b1))
        return ad.add_rowvec(ad.matmul(hidden, self.w2), self.b2)


class PftEncoder:
    """Flattens the vegetation-type axis, then two dense layers with relu.
    The input is per-type traits concatenated with per-type states."""

    def __init__(self, n_pft, n_fields, hidden=64, out_dim=64, rng=None,
                 dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.n_pft = n_pft
        self.n_fields = n_fields
        self.out_dim = out_dim
        self.w1 = xavier(rng, (n_pft * n_fields, hidden), dtype)
        self.b1 = zeros_param(hidden, dtype)
        self.w2 = xavier(rng, (hidden, out_dim), dtype)
        self.b2 = zeros_param(out_dim, dtype)

    def named_params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def encode(self, x):
        _check_batch(x, 3)
        batch, n_pft, fields = x.shape
        if n_pft != self.n_pft or fields != self.n_fields:
            raise ShapeError(f"expected [{self.n_pft}, {self.n_fields}] "
                             f"type-trait input, got [{n_pft}, {fields}]")
        flat = ad.reshape(x, (batch, n_pft * fields))
        hidden = ad.relu(ad.add_rowvec(ad.matmul(flat, self.w1), self.b1))
        return ad.add_rowvec(ad.matmul(hidden, self.w2), self.b2)
