"""Dense-tensor engine with reverse-mode differentiation.

Everything the surrogate computes runs through the ``Tensor`` type and the
primitive operations in this module.  Each primitive records itself on the
active :class:`GradTape` when any input requires gradients; ``GradTape.backward``
replays the tape in reverse and accumulates ``grad`` buffers on the leaves.

Conventions:

- buffers are row-major ``numpy`` arrays, float32 for training or float64 for
  the tight finite-difference checks;
- elementwise binary ops require identical shapes (scalar variants exist for
  the scalar-broadcast case); bias-style broadcasts go through the dedicated
  ``add_rowvec`` primitive instead of silent numpy broadcasting;
- a tape is single-threaded: one training step builds and consumes one tape,
  and parallel workers must each use their own.
"""

import numpy as np

from .errors import ContractError, ShapeError

# Above this threshold softplus(x) is x to <1e-13, and exp(x) would overflow
# float32 anyway.
_SOFTPLUS_LINEAR_CUTOFF = 30.0


class Tensor:
    """A dense n-dimensional value participating in the gradient graph.

    ``data`` is the (row-major) buffer, ``grad`` the accumulated gradient of
    the most recent backward pass (same shape, or None).  Tensors are treated
    as immutable once created; ops return fresh tensors.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g):
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    def item(self):
        if self.data.size != 1:
            raise ContractError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class _TapeNode:
    """One recorded primitive: output, inputs, and the pullback closure."""

    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class GradTape:
    """Ordered record of primitive ops for one forward pass.

    Creation order is topological (an op's parents exist before the op runs),
    so a single reverse sweep visits each op exactly once.  Use as a context
    manager around the forward pass, then call :meth:`backward` on the scalar
    loss.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _push_tape(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _pop_tape(self)
        return False

    def record(self, inputs, output, backward_fn):
        self.nodes.append(_TapeNode(inputs, output, backward_fn))

    def backward(self, loss):
        """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

        Gradients accumulate additively both across multiple uses of a tensor
        within the graph and across repeated backward calls (use ``zero_grad``
        between optimizer steps).
        """
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            raise ContractError("backward requires a scalar loss tensor")
        produced = {id(node.output) for node in self.nodes}
        flowing = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self.nodes):
            g_out = flowing.pop(id(node.output), None)
            if g_out is None:
                continue
            grads_in = node.backward_fn(g_out)
            for tensor, g in zip(node.inputs, grads_in):
                if g is None or not tensor.requires_grad:
                    continue
                key = id(tensor)
                if id(tensor) in produced:
                    if key in flowing:
                        flowing[key] = flowing[key] + g
                    else:
                        flowing[key] = g
                else:
                    tensor.accumulate_grad(g)


_TAPE_STACK = []


def _push_tape(tape):
    _TAPE_STACK.append(tape)


def _pop_tape(tape):
    if not _TAPE_STACK or _TAPE_STACK[-1] is not tape:
        raise ContractError("mismatched GradTape enter/exit")
    _TAPE_STACK.pop()


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(inputs, out_data, backward_fn):
    requires = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    tape = active_tape()
    if requires and tape is not None:
        tape.record(tuple(inputs), out, backward_fn)
    return out


def _check_same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# Elementwise primitives
# ---------------------------------------------------------------------------

def add(a, b):
    _check_same_shape(a, b, "add")
    return _record([a, b], a.data + b.data, lambda g: (g, g))


def sub(a, b):
    _check_same_shape(a, b, "sub")
    return _record([a, b], a.data - b.data, lambda g: (g, -g))


def mul(a, b):
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _record([a, b], ad * bd, lambda g: (g * bd, g * ad))


def mul_scalar(a, s):
    s = a.data.dtype.type(s)
    return _record([a], a.data * s, lambda g: (g * s,))


def square(a):
    ad = a.data
    return _record([a], ad * ad, lambda g: (2.0 * ad * g,))


def add_rowvec(a, v):
    """Add a vector along the last axis of ``a`` (bias add).

    Non-scalar broadcasts go through dedicated primitives like this one so the
    gradient (sum over the leading axes) stays explicit.
    """
    if v.data.ndim != 1 or a.data.shape[-1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: last axis {a.data.shape} vs vector {v.data.shape}")
    lead = tuple(range(a.data.ndim - 1))
    return _record([a, v], a.data + v.data, lambda g: (g, g.sum(axis=lead) if lead else g.copy()))


def add_leading(a, b):
    """Add ``b`` to every slice of ``a`` along its first axis.

    ``b.shape`` must equal ``a.shape[1:]``; the gradient of ``b`` sums over the
    leading axis.  Used for per-position tables applied across a batch.
    """
    if a.data.shape[1:] != b.data.shape:
        raise ShapeError(f"add_leading: trailing dims of {a.data.shape} vs {b.data.shape}")
    return _record([a, b], a.data + b.data, lambda g: (g, g.sum(axis=0)))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(a):
    ad = a.data
    mask = ad > 0
    return _record([a], np.where(mask, ad, 0), lambda g: (g * mask,))


def sigmoid(a):
    out = _stable_sigmoid(a.data)
    return _record([a], out, lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(a.data)
    return _record([a], out, lambda g: (g * (1.0 - out * out),))


def softplus(a):
    """ln(1 + e^x), linear above the overflow cutoff, strictly positive.

    The result is clamped to the smallest positive normal of the dtype so
    positivity survives underflow at very negative inputs.
    """
    ad = a.data
    linear = ad > _SOFTPLUS_LINEAR_CUTOFF
    safe = np.where(linear, 0.0, ad)
    out = np.where(linear, ad, np.log1p(np.exp(safe)))
    out = np.maximum(out, np.finfo(ad.dtype).tiny)

    def backward(g):
        return (g * np.where(linear, 1.0, _stable_sigmoid(safe)),)

    return _record([a], out, backward)


def _stable_sigmoid(x):
    # the tanh form cannot overflow, unlike 1 / (1 + exp(-x)) at large
    # negative inputs, and keeps the input's float dtype
    return 0.5 * np.tanh(0.5 * x) + 0.5


def softmax(a, axis=-1):
    """Softmax along ``axis``, computed with max-subtraction for stability."""
    ad = a.data
    shifted = ad - ad.max(axis=axis, keepdims=True)
    ex = np.exp(shifted)
    out = ex / ex.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _record([a], out, backward)


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def matmul(a, b):
    """Matrix product: 2-D x 2-D, batched 3-D x 3-D, or batched 3-D x 2-D."""
    ad, bd = a.data, b.data
    if ad.shape[-1] != bd.shape[-2 if bd.ndim > 1 else 0]:
        raise ShapeError(f"matmul: inner dims of {ad.shape} and {bd.shape} differ")
    if ad.ndim == 2 and bd.ndim == 2:
        out = ad @ bd

        def backward(g):
            return (g @ bd.T, ad.T @ g)

    elif ad.ndim == 3 and bd.ndim == 3:
        if ad.shape[0] != bd.shape[0]:
            raise ShapeError(f"matmul: batch dims of {ad.shape} and {bd.shape} differ")
        out = ad @ bd

        def backward(g):
            return (g @ bd.transpose(0, 2, 1), ad.transpose(0, 2, 1) @ g)

    elif ad.ndim == 3 and bd.ndim == 2:
        out = ad @ bd

        def backward(g):
            da = g @ bd.T
            db = np.einsum("bik,bij->kj", ad, g)
            return (da, db)

    else:
        raise ShapeError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")
    return _record([a, b], out, backward)


def conv1d(x, kernels, stride=1, padding=0):
    """1-D convolution over the length axis of a batch.

    ``x`` is ``[B, L, Cin]`` (batches only); ``kernels`` is ``[K, Cin, Cout]``.
    Output length is ``floor((L + 2*padding - K)/stride) + 1``.
    """
    xd, kd = x.data, kernels.data
    if kd.ndim != 3:
        raise ShapeError(f"conv1d: kernels must be [K, Cin, Cout], got {kd.shape}")
    if xd.ndim != 3 or xd.shape[2] != kd.shape[1]:
        raise ShapeError(f"conv1d: input {xd.shape} incompatible with kernels {kd.shape}")
    batch, length, cin = xd.shape
    ksize, _, cout = kd.shape
    padded_len = length + 2 * padding
    if ksize > padded_len:
        raise ShapeError(f"conv1d: kernel size {ksize} exceeds padded length {padded_len}")
    out_len = (padded_len - ksize) // stride + 1

    xp = np.zeros((batch, padded_len, cin), dtype=xd.dtype)
    xp[:, padding:padding + length, :] = xd
    # windows[b, i, j, c] = xp[b, i*stride + j, c]
    idx = (np.arange(out_len)[:, None] * stride + np.arange(ksize)[None, :])
    windows = xp[:, idx, :]                                  # [B, L', K, Cin]
    wmat = kd.reshape(ksize * cin, cout)
    out = windows.reshape(batch, out_len, ksize * cin) @ wmat

    def backward(g):
        flat = windows.reshape(batch, out_len, ksize * cin)
        dk = np.einsum("bik,bio->ko", flat, g).reshape(ksize, cin, cout)
        dcols = g @ wmat.T                                   # [B, L', K*Cin]
        dwin = dcols.reshape(batch, out_len, ksize, cin)
        dxp = np.zeros_like(xp)
        # Positions within one kernel tap are distinct, so fancy += is exact;
        # overlap between taps is handled by the loop.
        for j in range(ksize):
            dxp[:, idx[:, j], :] += dwin[:, :, j, :]
        return (dxp[:, padding:padding + length, :], dk)

    return _record([x, kernels], out, backward)


def lstm_sequence(x, w_x, w_h, b):
    """Full gated-recurrent pass over ``[B, T, V]`` input; returns the final
    hidden state ``[B, H]``.

    Records a single tape node for the whole sequence: the forward loop runs
    in plain numpy and the backward replays the recurrence in reverse, which
    avoids building thousands of per-step nodes for long windows.  The seven
    ``[T, B, H]`` histories the backward needs exist only when a tape records
    the call (a tape is active and some input requires gradients).  Gate
    blocks along the last axis of ``w_x``/``w_h``/``b`` are
    [input, forget, candidate, output]; the step equations are
    ``c' = f*c + i*g`` and ``h' = o*tanh(c')`` with sigmoid gates and a tanh
    candidate.
    """
    xd, wxd, whd, bd = x.data, w_x.data, w_h.data, b.data
    if xd.ndim != 3:
        raise ShapeError(f"lstm_sequence: input must be [B, T, V], got {xd.shape}")
    batch, steps, n_vars = xd.shape
    if steps == 0:
        raise ShapeError("lstm_sequence: needs at least one step")
    if whd.ndim != 2 or whd.shape[1] != 4 * whd.shape[0]:
        raise ShapeError(f"lstm_sequence: recurrent weights must be [H, 4H], "
                         f"got {whd.shape}")
    hid = whd.shape[0]
    if wxd.shape != (n_vars, 4 * hid) or bd.shape != (4 * hid,):
        raise ShapeError(f"lstm_sequence: input weights {wxd.shape} / bias "
                         f"{bd.shape} incompatible with {n_vars} vars, "
                         f"hidden {hid}")

    inputs = [x, w_x, w_h, b]
    records = active_tape() is not None and any(t.requires_grad for t in inputs)
    if records:
        (gate_i, gate_f, gate_g, gate_o, tanh_c, h_prev,
         c_prev) = np.empty((7, steps, batch, hid), dtype=xd.dtype)
    h = np.zeros((batch, hid), dtype=xd.dtype)
    c = np.zeros((batch, hid), dtype=xd.dtype)
    for t in range(steps):
        z = (xd[:, t, :] @ wxd + bd) + h @ whd
        sig = _stable_sigmoid(z)
        i, f, o = sig[:, :hid], sig[:, hid:2 * hid], sig[:, 3 * hid:]
        g = np.tanh(z[:, 2 * hid:3 * hid])
        c_next = f * c + i * g
        tc = np.tanh(c_next)
        if records:
            gate_i[t], gate_f[t], gate_g[t], gate_o[t] = i, f, g, o
            tanh_c[t], h_prev[t], c_prev[t] = tc, h, c
        c, h = c_next, o * tc

    def backward(g_out):
        work = np.result_type(g_out.dtype, xd.dtype)
        dh = g_out.astype(work, copy=True)
        dc = np.zeros_like(dh)
        dz_seq = np.empty((batch, steps, 4 * hid), dtype=work)
        dwh = np.zeros(whd.shape, dtype=work)
        for t in range(steps - 1, -1, -1):
            i, f = gate_i[t], gate_f[t]
            gg, o, tc = gate_g[t], gate_o[t], tanh_c[t]
            dc = dc + dh * o * (1.0 - tc * tc)
            dz = dz_seq[:, t, :]
            dz[:, :hid] = dc * gg * i * (1.0 - i)
            dz[:, hid:2 * hid] = dc * c_prev[t] * f * (1.0 - f)
            dz[:, 2 * hid:3 * hid] = dc * i * (1.0 - gg * gg)
            dz[:, 3 * hid:] = dh * tc * o * (1.0 - o)
            dwh += h_prev[t].T @ dz
            dh = dz @ whd.T
            dc = dc * f
        flat = dz_seq.reshape(batch * steps, 4 * hid)
        dwx = xd.reshape(batch * steps, n_vars).T @ flat
        db = flat.sum(axis=0)
        dx = (flat @ wxd.T).reshape(batch, steps, n_vars)
        return (dx, dwx, dwh, db)

    return _record(inputs, h, backward)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then apply affine
    gain and bias (both shaped like the last axis)."""
    xd = x.data
    n = xd.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({n},)")
    mean = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + xd.dtype.type(eps))
    xhat = (xd - mean) * inv
    out = gain.data * xhat + bias.data
    lead = tuple(range(xd.ndim - 1))

    def backward(g):
        gg = g * gain.data
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        dx = (gg - m1 - xhat * m2) * inv
        dgain = (g * xhat).sum(axis=lead) if lead else (g * xhat).copy()
        dbias = g.sum(axis=lead) if lead else g.copy()
        return (dx, dgain, dbias)

    return _record([x, gain, bias], out, backward)


# ---------------------------------------------------------------------------
# Shape manipulation and reductions
# ---------------------------------------------------------------------------

def reshape(a, shape):
    old = a.data.shape
    out = a.data.reshape(shape)
    return _record([a], out, lambda g: (g.reshape(old),))


def transpose(a, axes):
    inverse = tuple(np.argsort(axes))
    return _record([a], a.data.transpose(axes), lambda g: (g.transpose(inverse),))


def slice_axis(a, axis, start, stop):
    """Contiguous slice along one axis; gradient scatters back into zeros."""
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = a.data[sl].copy()

    def backward(g):
        da = np.zeros_like(a.data)
        da[sl] = g
        return (da,)

    return _record([a], out, backward)


def stack(tensors, axis=0):
    """Stack same-shape tensors along a new axis."""
    shapes = {t.data.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"stack: mismatched shapes {sorted(shapes)}")
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        parts = np.moveaxis(g, axis, 0)
        return tuple(parts[i] for i in range(len(tensors)))

    return _record(list(tensors), out, backward)


def concat(tensors, axis=0):
    sizes = [t.data.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    bounds = np.cumsum([0] + sizes)

    def backward(g):
        outs = []
        for i in range(len(tensors)):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(bounds[i], bounds[i + 1])
            outs.append(g[tuple(sl)])
        return tuple(outs)

    return _record(list(tensors), out, backward)


def mean_axis(a, axis):
    ad = a.data
    n = ad.shape[axis]
    out = ad.mean(axis=axis)

    def backward(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _record([a], out, backward)


def sum_all(a):
    shape = a.data.shape
    return _record([a], np.asarray(a.data.sum(), dtype=a.data.dtype),
                   lambda g: (np.full(shape, g, dtype=a.data.dtype),))


def mean_all(a):
    shape = a.data.shape
    n = a.data.size
    return _record([a], np.asarray(a.data.mean(), dtype=a.data.dtype),
                   lambda g: (np.full(shape, g / n, dtype=a.data.dtype),))


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def numeric_gradient(fn, tensors, index, h=1e-5):
    """Central-difference gradient of scalar-valued ``fn`` w.r.t. one input.

    ``fn`` maps the tensors to a scalar Tensor and is evaluated forward-only;
    this is the independent check against the tape's reverse sweep.  Use
    float64 tensors for tight tolerances.
    """
    target = tensors[index]
    base = target.data.copy()
    grad = np.zeros_like(base)
    flat = base.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        target.data = base.reshape(base.shape)
        fplus = fn(*tensors).item()
        flat[i] = orig - h
        fminus = fn(*tensors).item()
        flat[i] = orig
        gflat[i] = (fplus - fminus) / (2.0 * h)
    target.data = base
    return grad


def gradcheck(fn, tensors, h=1e-5, rtol=1e-4, atol=1e-7):
    """Compare tape gradients of scalar ``fn`` against central differences.

    Returns the worst relative error over all differentiable inputs; raises
    AssertionError if it exceeds ``rtol``.
    """
    for t in tensors:
        t.zero_grad()
    with GradTape() as tape:
        loss = fn(*tensors)
        tape.backward(loss)
    worst = 0.0
    for i, t in enumerate(tensors):
        if not t.requires_grad:
            continue
        numeric = numeric_gradient(fn, list(tensors), i, h=h)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        scale = np.maximum(np.abs(numeric), np.abs(analytic))
        err = np.abs(analytic - numeric) / np.maximum(scale, atol / rtol)
        worst = max(worst, float(err.max()) if err.size else 0.0)
    if worst > rtol:
        raise AssertionError(f"gradient check failed: max relative error {worst:.3e} > {rtol:.0e}")
    return worst
