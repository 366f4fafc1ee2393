"""Tape-recording ops and the finite-difference oracle that only the tests
use: the reference LSTM is built from the elementwise ops and slices here,
and every gradient check runs through :func:`gradcheck`.  They record on
the engine's tape as its own ops do."""

import numpy as np

from phase_surrogate.autodiff import GradTape, _check_same_shape, _record


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
