"""Modality-specific encoders mapping each feature group to a shared
latent width.

Four branches cover the five feature groups: a gated recurrent branch for
the monthly forcing sequence, a depth-convolution branch for layered
pools, and two dense stacks (:class:`Mlp`: static cell attributes;
per-type traits concatenated with per-type states, flattened).  Every
branch takes a batch (the leading axis) and nothing else, raising
``ShapeError`` on an unbatched sample, and emits [batch, d] so the fusion
stage can stack them.  The model's head and the dense baseline's trunk
are dense stacks too.
"""

import math

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
    final hidden state is projected to the latent width.  The surrogate
    hands it a sample's g1, the mean annual forcing cycle: 12 steps."""

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
        return ad.dense(h, self.w_p, self.b_p)


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
        return ad.dense(flat, self.w, self.b)


class Mlp:
    """A dense stack: flattens a [batch, *in_shape] input, then one dense
    layer per entry of ``widths``, with relu on every layer but the last.
    Its parameters are w1, b1, w2, b2, ... in layer order, and each weight
    is drawn in that order."""

    def __init__(self, in_shape, widths, rng=None, dtype=np.float32):
        rng = rng or np.random.default_rng(0)
        self.in_shape = tuple(in_shape)
        self.params = {}
        fan_in = math.prod(self.in_shape)
        for i, width in enumerate(widths, 1):
            self.params[f"w{i}"] = xavier(rng, (fan_in, width), dtype)
            self.params[f"b{i}"] = zeros_param(width, dtype)
            fan_in = width

    def named_params(self):
        return dict(self.params)

    def encode(self, x):
        if x.shape[1:] != self.in_shape:
            raise ShapeError(f"expected a batch of {self.in_shape} samples, "
                             f"got shape {x.shape}")
        if len(self.in_shape) > 1:
            x = ad.reshape(x, (x.shape[0], -1))
        depth = len(self.params) // 2
        for i in range(1, depth + 1):
            x = ad.dense(x, self.params[f"w{i}"], self.params[f"b{i}"],
                         relu=i < depth)
        return x
