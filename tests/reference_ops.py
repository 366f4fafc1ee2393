"""Tape-recording ops and the finite-difference oracle that only the tests
use: the reference LSTM is built from the elementwise ops and slices here,
the reference attention fusion (``test_fused_layer.py``) from the
per-op layer norm, softmax and matmuls, and every gradient check runs
through :func:`gradcheck`.  They record on the engine's tape as its own
ops do."""

import numpy as np

from phase_surrogate.autodiff import GradTape, _check_same_shape, _record
from phase_surrogate.errors import ShapeError


def add(a, b):
    _check_same_shape(a, b, "add")
    return _record([a, b], a.data + b.data, lambda g: (g, g))


def mul_scalar(a, s):
    s = a.data.dtype.type(s)
    return _record([a], a.data * s, lambda g: (g * s,))


def add_leading(a, b):
    """Add ``b`` to every slice of ``a`` along its first axis.

    ``b.shape`` must equal ``a.shape[1:]``; the gradient of ``b`` sums over the
    leading axis.  Used for per-position tables applied across a batch.
    """
    if a.data.shape[1:] != b.data.shape:
        raise ShapeError(f"add_leading: trailing dims of {a.data.shape} vs {b.data.shape}")
    return _record([a, b], a.data + b.data, lambda g: (g, g.sum(axis=0)))


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


def matmul(a, b):
    """Matrix product: 2-D x 2-D or batched 3-D x 3-D."""
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

    else:
        raise ShapeError(f"matmul: unsupported ranks {ad.ndim} and {bd.ndim}")
    return _record([a, b], out, backward)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then apply affine
    gain and bias (both shaped like the last axis)."""
    xd = x.data
    n = xd.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise ShapeError(f"layer_norm: gain/bias must have shape ({n},)")
    # the mean of the centred squares is np.var's own arithmetic
    centred = xd - xd.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + xd.dtype.type(eps))
    xhat = centred * inv
    out = gain.data * xhat + bias.data
    lead = tuple(range(xd.ndim - 1))
    gd = gain.data

    def backward(g):
        gg = g * gd
        m1 = gg.mean(axis=-1, keepdims=True)
        m2 = (gg * xhat).mean(axis=-1, keepdims=True)
        dx = (gg - m1 - xhat * m2) * inv
        dgain = (g * xhat).sum(axis=lead) if lead else (g * xhat).copy()
        dbias = g.sum(axis=lead) if lead else g.copy()
        return (dx, dgain, dbias)

    return _record([x, gain, bias], out, backward)


def transpose(a, axes):
    inverse = tuple(np.argsort(axes))
    return _record([a], a.data.transpose(axes), lambda g: (g.transpose(inverse),))


def mean_axis(a, axis):
    ad = a.data
    n = ad.shape[axis]
    out = ad.mean(axis=axis)

    def backward(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return _record([a], out, backward)




def mul(a, b):
    _check_same_shape(a, b, "mul")
    ad, bd = a.data, b.data
    return _record([a, b], ad * bd, lambda g: (g * bd, g * ad))


def sigmoid(a):
    # the tanh form cannot overflow, unlike 1 / (1 + exp(-x)) at large
    # negative inputs, and keeps the input's float dtype
    out = 0.5 * np.tanh(0.5 * a.data) + 0.5
    return _record([a], out, lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(a.data)
    return _record([a], out, lambda g: (g * (1.0 - out * out),))


def slice_axis(a, axis, start, stop):
    """Contiguous slice along one axis; gradient scatters back into zeros."""
    sl = [slice(None)] * a.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = a.data[sl].copy()
    shape, dtype = a.data.shape, a.data.dtype

    def backward(g):
        da = np.zeros(shape, dtype=dtype)
        da[sl] = g
        return (da,)

    return _record([a], out, backward)


def sum_all(a):
    shape, dtype = a.data.shape, a.data.dtype
    return _record([a], np.asarray(a.data.sum(), dtype=dtype),
                   lambda g: (np.full(shape, g, dtype=dtype),))


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
