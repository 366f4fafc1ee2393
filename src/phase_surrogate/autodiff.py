"""Dense-tensor engine with reverse-mode differentiation.

Everything the surrogate computes runs through the ``Tensor`` type and the
primitive operations in this module.  Each primitive records itself on the
active :class:`GradTape` when any input requires gradients; ``GradTape.backward``
replays the tape in reverse and accumulates ``grad`` buffers on the leaves.

A tape holds graph nodes, not tensors.  A node keeps its pullback, which
closes over only the arrays its backward formula reads, and its parents:
the node that made each input on the same tape, or the input itself when
it is a leaf that takes a gradient.  An op's output tensor points at its
node (``Tensor.node``), so an activation the backward does not read is
freed as soon as the forward drops it.  A tape is used once: its
``backward`` frees each node's pullback and parents when the sweep ends,
and a second ``backward`` raises.

Conventions:

- buffers are row-major ``numpy`` arrays, float32 for training or float64 for
  the tight finite-difference checks;
- elementwise binary ops require identical shapes; a dense layer's bias
  goes through ``dense``, one tape node that runs even a 3-D input as one
  2-D GEMM, a whole transformer block through ``transformer_layer``, one
  node too, and any other bias-style broadcast through ``add_rowvec``,
  never numpy broadcasting;
- ``relu`` passes NaN through, so a diverging run reaches the loss check;
- a tape is single-threaded: one training step builds and consumes one tape,
  and parallel workers must each use their own.
"""

import numpy as np

from .errors import ContractError, ShapeError

class Tensor:
    """A dense n-dimensional value participating in the gradient graph.

    ``data`` is the (row-major) buffer, ``grad`` the accumulated gradient of
    the most recent backward pass (same shape, or None), ``node`` the tape
    node that recorded it (or None).  Tensors are treated as immutable once
    created; ops return fresh tensors.
    """

    __slots__ = ("data", "requires_grad", "grad", "node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = np.ascontiguousarray(arr)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.node = None

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
    """One recorded primitive: its pullback, one parent per input (the node
    that made the input on the same tape, the input itself when it is a
    leaf that takes a gradient, or None), and the gradient flowing into it
    during the sweep.  ``owner`` identifies the tape."""

    __slots__ = ("owner", "backward_fn", "parents", "grad")

    def __init__(self, owner, backward_fn, parents):
        self.owner = owner
        self.backward_fn = backward_fn
        self.parents = parents
        self.grad = None


class GradTape:
    """Ordered record of primitive ops for one forward pass.

    Creation order is topological (an op's parents exist before the op runs),
    so a single reverse sweep visits each op exactly once.  Use as a context
    manager around the forward pass, then call :meth:`backward` on the scalar
    loss, once.
    """

    def __init__(self):
        self.nodes = []
        # a plain token, not the tape, so that nodes hold no cycle
        self._owner = object()
        self._swept = False

    def __enter__(self):
        _push_tape(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _pop_tape(self)
        return False

    def record(self, inputs, output, backward_fn):
        # a tensor made on another tape is a leaf on this one
        parents = tuple(
            t.node if t.node is not None and t.node.owner is self._owner
            else t if t.requires_grad else None
            for t in inputs)
        output.node = _TapeNode(self._owner, backward_fn, parents)
        self.nodes.append(output.node)

    def backward(self, loss):
        """Populate ``grad`` on every requires_grad leaf reachable from ``loss``.

        Gradients add up across the uses of a tensor within the graph, and
        on a leaf across the tapes it takes part in (use ``zero_grad``
        between optimizer steps).  A tensor made on another tape is a leaf
        here.  When the sweep ends, each node's pullback and parents are
        freed and the node list is kept; a second call raises
        ContractError.
        """
        if not isinstance(loss, Tensor) or loss.data.size != 1:
            raise ContractError("backward requires a scalar loss tensor")
        if self._swept:
            raise ContractError("backward already ran on this tape")
        self._swept = True
        if loss.node is not None and loss.node.owner is self._owner:
            loss.node.grad = np.ones_like(loss.data)
        for node in reversed(self.nodes):
            g_out, node.grad = node.grad, None
            if g_out is None:
                continue
            for parent, g in zip(node.parents, node.backward_fn(g_out)):
                if g is None or parent is None:
                    continue
                if isinstance(parent, Tensor):
                    parent.accumulate_grad(g)
                elif parent.grad is None:
                    parent.grad = g
                else:
                    parent.grad = parent.grad + g
        # Freed after the sweep, oldest first, not node by node during it:
        # freeing as it goes lowers a default 256-row step's traced peak
        # from 15.0 to 14.3 MB, but made the bench train command about 8%
        # slower, with the heap thresholds fixed (cli._steady_heap) or not.
        for node in self.nodes:
            node.backward_fn = node.parents = None


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

def sub(a, b):
    _check_same_shape(a, b, "sub")
    return _record([a, b], a.data - b.data, lambda g: (g, -g))


def square(a):
    ad = a.data
    return _record([a], ad * ad, lambda g: (2.0 * ad * g,))


def add_rowvec(a, v):
    """Add ``v`` to every trailing block of ``a``: a bias vector along the
    last axis, or a per-position table ``[n, d]`` across a batch ``[B, n,
    d]``.  ``v.shape`` must equal the trailing dims of ``a``.

    Non-scalar broadcasts go through dedicated primitives like this one so the
    gradient (sum over the leading axes) stays explicit.
    """
    vd = v.data
    if not 1 <= vd.ndim <= a.data.ndim or a.data.shape[-vd.ndim:] != vd.shape:
        raise ShapeError(f"add_rowvec: trailing dims of {a.data.shape} vs {vd.shape}")
    lead = tuple(range(a.data.ndim - vd.ndim))
    return _record([a, v], a.data + vd, lambda g: (g, g.sum(axis=lead) if lead else g.copy()))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(a):
    ad = a.data
    return _record([a], np.maximum(ad, 0), lambda g: (g * (ad > 0),))


# ---------------------------------------------------------------------------
# Linear algebra
# ---------------------------------------------------------------------------

def dense(x, w, b=None, relu=False):
    """Dense layer ``x @ w + b``, relu optional, as one tape node: the rows
    of ``x`` [N, Din] or [B, N, Din] go through one 2-D GEMM with ``w``
    [Din, Dout], and the bias [Dout] and the relu act in place on its output.
    A recorded call keeps the input rows, and its output only under relu,
    where the output is the mask."""
    xd, wd = x.data, w.data
    if wd.ndim != 2 or xd.ndim not in (2, 3) or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"dense: input {xd.shape} incompatible with weights {wd.shape}")
    if b is not None and b.data.shape != (wd.shape[1],):
        raise ShapeError(f"dense: bias {b.data.shape} vs weights {wd.shape}")
    rows = xd.reshape(-1, wd.shape[0])
    out = rows @ wd
    if b is not None:
        out += b.data
    if relu:
        np.maximum(out, 0, out=out)
    mask = out if relu else None
    rows_shape, x_shape, x_grad = out.shape, xd.shape, x.requires_grad
    has_bias = b is not None

    def backward(g):
        g = g.reshape(rows_shape)
        if mask is not None:
            g = g * (mask > 0)
        dx = (g @ wd.T).reshape(x_shape) if x_grad else None
        dw = rows.T @ g
        return (dx, dw, g.sum(axis=0)) if has_bias else (dx, dw)

    inputs = [x, w] if b is None else [x, w, b]
    return _record(inputs, out.reshape(xd.shape[:-1] + (wd.shape[1],)), backward)


def conv1d(x, kernels, padding=0):
    """1-D convolution over the length axis of a batch, stride 1.

    ``x`` is ``[B, L, Cin]`` (batches only); ``kernels`` is ``[K, Cin, Cout]``.
    Output length is ``L + 2*padding - K + 1``.
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
    out_len = padded_len - ksize + 1

    xp = np.zeros((batch, padded_len, cin), dtype=xd.dtype)
    xp[:, padding:padding + length, :] = xd
    # windows[b, i, j, c] = xp[b, i + j, c]
    windows = np.stack([xp[:, j:j + out_len] for j in range(ksize)], axis=2)
    wmat = kd.reshape(ksize * cin, cout)
    out = windows.reshape(batch, out_len, ksize * cin) @ wmat

    def backward(g):
        cols = windows.reshape(batch * out_len, ksize * cin)
        dk = (cols.T @ g.reshape(-1, cout)).reshape(ksize, cin, cout)
        dcols = g @ wmat.T                                   # [B, L', K*Cin]
        dwin = dcols.reshape(batch, out_len, ksize, cin)
        dxp = np.zeros((batch, padded_len, cin), dtype=windows.dtype)
        for j in range(ksize):
            dxp[:, j:j + out_len] += dwin[:, :, j]
        return (dxp[:, padding:padding + length, :], dk)

    return _record([x, kernels], out, backward)


def lstm_sequence(x, w_x, w_h, b):
    """Full gated-recurrent pass over ``[B, T, V]`` input; returns the final
    hidden state ``[B, H]``.

    Records a single tape node for the whole sequence: the forward loop runs
    in plain numpy and the backward replays the recurrence in reverse, which
    avoids building thousands of per-step nodes for long windows.  Gate
    blocks along the last axis of ``w_x``/``w_h``/``b`` are
    [input, forget, candidate, output]; the step equations are
    ``c' = f*c + i*g`` and ``h' = o*tanh(c')`` with sigmoid gates and a tanh
    candidate.

    The recurrence runs feature-major: ``h`` and ``c`` are ``[H, B]`` and the
    pre-activation ``W_hᵀ·h + W_xᵀ·x_t + b`` is ``[4H, B]``, so every gate
    block is a contiguous ``[H, B]`` slab.  The sigmoid rows of the weights
    and bias are halved once per call (exact), so one ``tanh`` over all 4H
    rows gives ``σ(z) = 0.5·tanh(z/2) + 0.5`` and ``g = tanh(z)``.

    Only a recorded call (a tape is active and some input requires
    gradients) keeps caches for the backward.  It keeps arrays, no tensor:
    the gates ``[T, 4H, B]``, the cell history ``[T+1, H, B]`` and the
    input with its bias column ``[T, B, V+1]``, besides the weights'
    own buffers.  It keeps no hidden history: the backward recomputes
    ``h_t = o_{t-1}·tanh(c_t)`` from the gates and the cell history, with
    the ``tanh(c)`` it computes anyway.  The backward accumulates the
    weight gradients step by step from one ``[4H, B]`` slab, computes the
    input gradient only when ``x`` requires it, and ends the reverse loop
    once ``max(|dh|, |dc|)`` falls below ``tiny / eps`` of the working
    dtype: every remaining contribution is then below one ulp of anything
    it could be added to, and running on would only grind through
    subnormals.
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
    dtype = np.result_type(xd, wxd, whd, bd)
    half = np.full(4 * hid, 0.5, dtype=dtype)
    half[2 * hid:3 * hid] = 1.0
    wh_t = (whd * half).T                                    # [4H, H]
    # A column of ones carries the bias through the input projection, so
    # its gradient comes out of the same product as dW_x.
    xb = np.ones((steps, batch, n_vars + 1), dtype=dtype)   # [T, B, V+1]
    xb[:, :, :n_vars] = xd.transpose(1, 0, 2)
    wb_t = (np.vstack([wxd, bd]) * half).T                   # [4H, V+1]
    # A recorded call keeps every step's gates and cell state; forward-only
    # cycles through two cell slots and one gate slab.  The hidden state
    # always cycles through two slots.
    slots = steps + 1 if records else 2
    hs = np.empty((2, hid, batch), dtype=dtype)
    cs = np.empty((slots, hid, batch), dtype=dtype)
    hs[0] = 0.0
    cs[0] = 0.0
    gates = np.empty((steps if records else 1, 4 * hid, batch), dtype=dtype)
    proj = np.empty((4 * hid, batch), dtype=dtype)
    tmp = np.empty((hid, batch), dtype=dtype)
    for t in range(steps):
        h, c = hs[t % 2], cs[t % slots]
        h_next, c_next = hs[(t + 1) % 2], cs[(t + 1) % slots]
        z = gates[t % len(gates)]
        np.matmul(wh_t, h, out=z)
        np.matmul(wb_t, xb[t].T, out=proj)
        z += proj
        np.tanh(z, out=z)
        for sig in (z[:2 * hid], z[3 * hid:]):
            sig *= 0.5
            sig += 0.5
        i, f, g, o = z.reshape(4, hid, batch)
        np.multiply(f, c, out=c_next)
        np.multiply(i, g, out=tmp)
        c_next += tmp
        np.tanh(c_next, out=tmp)
        np.multiply(o, tmp, out=h_next)
    h_out = hs[steps % 2].T
    x_grad = x.requires_grad

    def backward(g_out):
        work = np.result_type(g_out.dtype, dtype)
        floor = np.finfo(work).tiny / np.finfo(work).eps
        dh = np.array(g_out.T, dtype=work, order="C")       # [H, B]
        dc = np.zeros_like(dh)
        # tanh(c_{t+1}) for step t, and tanh(c_t) for h_t and step t - 1
        tcs = np.empty((2, hid, batch), dtype=work)
        np.tanh(cs[steps], out=tcs[steps % 2])
        h = np.empty((hid, batch), dtype=dtype)
        dz = np.empty((4 * hid, batch), dtype=work)
        dz_i, dz_f, dz_g, dz_o = dz.reshape(4, hid, batch)
        dwh_t = np.zeros((4 * hid, hid), dtype=work)
        dwb_t = np.zeros((4 * hid, n_vars + 1), dtype=work)
        dx = np.zeros((steps, batch, n_vars), dtype=work) if x_grad else None
        for t in range(steps - 1, -1, -1):
            i, f, g, o = gates[t].reshape(4, hid, batch)
            tc = tcs[(t + 1) % 2]
            # dc += dh * o * (1 - tanh(c)^2), with dz_g as scratch
            np.multiply(tc, tc, out=dz_g)
            np.subtract(1.0, dz_g, out=dz_g)
            dz_g *= o
            dz_g *= dh
            dc += dz_g
            np.subtract(1.0, o, out=dz_o)
            dz_o *= o
            dz_o *= tc
            dz_o *= dh
            np.subtract(1.0, i, out=dz_i)
            dz_i *= i
            dz_i *= g
            dz_i *= dc
            np.subtract(1.0, f, out=dz_f)
            dz_f *= f
            dz_f *= cs[t]
            dz_f *= dc
            np.multiply(g, g, out=dz_g)
            np.subtract(1.0, dz_g, out=dz_g)
            dz_g *= i
            dz_g *= dc
            # h_t = o_{t-1}·tanh(c_t), as the forward made it; h_0 = 0
            if t:
                np.tanh(cs[t], out=tcs[t % 2])
                np.multiply(gates[t - 1, 3 * hid:], tcs[t % 2], out=h)
            else:
                h.fill(0.0)
            dwh_t += dz @ h.T
            dwb_t += dz @ xb[t]
            if dx is not None:
                np.matmul(dz.T, wxd.T, out=dx[t])
            np.matmul(whd, dz, out=dh)
            dc *= f
            if max(np.abs(dh).max(), np.abs(dc).max()) < floor:
                break
        return (None if dx is None else dx.transpose(1, 0, 2),
                dwb_t[:, :n_vars].T, dwh_t.T, dwb_t[:, n_vars])

    return _record(inputs, h_out, backward)


# ---------------------------------------------------------------------------
# Transformer blocks
# ---------------------------------------------------------------------------

def _norm_rows(rows, gain, bias, eps=1e-5):
    """Layer norm of each row of ``rows`` [N, d], then gain and bias [d]:
    (the normalized rows, their inverse deviations [N, 1], the output).
    The row means and variances are GEMVs with a 1/d vector, which beat
    numpy's reductions over a short trailing axis."""
    mean_w = np.full(rows.shape[1], 1.0 / rows.shape[1], dtype=rows.dtype)
    xhat = rows - (rows @ mean_w)[:, None]
    inv = (xhat * xhat) @ mean_w
    inv += rows.dtype.type(eps)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    inv = inv[:, None]
    xhat *= inv
    out = xhat * gain
    out += bias
    return xhat, inv, out


def _norm_rows_backward(g, xhat, inv, gain):
    """(rows, gain, bias) gradients of :func:`_norm_rows` for the output
    gradient ``g`` [N, d], which becomes the rows' gradient in place.  The
    row means are GEMVs with a 1/d vector and the gain and bias gradients
    GEMVs with a ones vector."""
    ones = np.ones(g.shape[0], dtype=g.dtype)
    mean_w = np.full(g.shape[1], 1.0 / g.shape[1], dtype=g.dtype)
    g_xhat = g * xhat
    d_gain = ones @ g_xhat
    d_bias = ones @ g
    g_xhat *= gain
    dx = g
    dx *= gain
    dx -= (dx @ mean_w)[:, None]
    np.multiply(xhat, (g_xhat @ mean_w)[:, None], out=g_xhat)
    dx -= g_xhat
    dx *= inv
    return dx, d_gain, d_bias


def transformer_layer(x, ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b,
                      ff1, ff1_b, ff2, ff2_b, heads):
    """One pre-norm transformer block over tokens ``x`` [B, n, d], as one
    tape node: ``x1 = x + attention(LN1(x)) @ wo``, then ``x1 +
    relu(LN2(x1) @ ff1 + ff1_b) @ ff2 + ff2_b``, with ``heads`` scaled
    dot-product heads of width d / heads.  Returns the output tensor
    [B, n, d] and the softmax weights [B, heads, n, n] (query by key), an
    array.

    The B·n tokens are the rows of one matrix, so each projection is one
    GEMM, the query, key and value ones a single [d, 3d] product whose
    query columns carry the 1/sqrt(d / heads) scale.  The per-head batched
    products read and write [B, heads, n, dh] views of those token rows,
    so no head is copied out or back.  The weights are held key-leading,
    [n, B, heads, n], so the softmax reduces over the keys by adding
    contiguous slabs, not along a trailing axis of length n.  Layer norms
    take their row moments, and bias gradients their column sums, as
    GEMVs.  Only a recorded call keeps what its backward reads: per norm
    the normalized rows, inverse deviations and output, the query, key
    and value rows, the weights, the mixed values and the ReLU layer.
    """
    xd = x.data
    if xd.ndim != 3:
        raise ShapeError(f"transformer_layer: input must be [B, n, d], got {xd.shape}")
    batch, n, d = xd.shape
    if heads < 1 or d % heads:
        raise ShapeError(f"transformer_layer: width {d} not divisible by {heads} heads")
    ff = ff1.data.shape[-1]
    params = (ln1_g, ln1_b, wq, wk, wv, wo, ln2_g, ln2_b, ff1, ff1_b, ff2, ff2_b)
    shapes = ((d,), (d,), (d, d), (d, d), (d, d), (d, d), (d,), (d,),
              (d, ff), (ff,), (ff, d), (d,))
    if any(p.data.shape != s for p, s in zip(params, shapes)):
        raise ShapeError(f"transformer_layer: parameters "
                         f"{[p.data.shape for p in params]} do not fit width {d}")
    dh = d // heads
    dtype = xd.dtype
    scale = dtype.type(1.0 / np.sqrt(dh))
    ln1_gd, ln2_gd, wo_d, ff1_d, ff2_d = (ln1_g.data, ln2_g.data, wo.data,
                                          ff1.data, ff2.data)
    rows = xd.reshape(-1, d)
    w_qkv = np.concatenate([wq.data * scale, wk.data, wv.data], axis=1)
    xhat1, inv1, h1 = _norm_rows(rows, ln1_gd, ln1_b.data)
    # [B, heads, n, dh] views of the token-major products, which the
    # batched products read and write in place
    qkv = (h1 @ w_qkv).reshape(batch, n, 3, heads, dh)
    q, k, v = (qkv[:, :, i].transpose(0, 2, 1, 3) for i in range(3))
    att = np.empty((n, batch, heads, n), dtype=dtype)
    np.matmul(k, q.transpose(0, 1, 3, 2), out=att.transpose(1, 2, 0, 3))
    att -= att.max(axis=0)
    np.exp(att, out=att)
    att /= att.sum(axis=0)
    mixed = np.empty((batch, n, heads, dh), dtype=dtype)
    np.matmul(att.transpose(1, 2, 3, 0), v, out=mixed.transpose(0, 2, 1, 3))
    mixed = mixed.reshape(-1, d)
    x1 = mixed @ wo_d
    x1 += rows
    xhat2, inv2, h2 = _norm_rows(x1, ln2_gd, ln2_b.data)
    hidden = h2 @ ff1_d
    hidden += ff1_b.data
    np.maximum(hidden, 0, out=hidden)
    out = hidden @ ff2_d
    out += ff2_b.data
    out += x1

    def backward(g):
        # each large temporary is dropped once read, as the peak of a
        # step is the forward's caches plus what one pullback holds
        g = g.reshape(-1, d)
        ones = np.ones(len(g), dtype=g.dtype)
        d_ff2, d_ff2_b = hidden.T @ g, ones @ g
        d_hidden = g @ ff2_d.T
        d_hidden *= hidden > 0
        d_ff1, d_ff1_b = h2.T @ d_hidden, ones @ d_hidden
        d_h2 = d_hidden @ ff1_d.T
        del d_hidden
        d_x1, d_ln2_g, d_ln2_b = _norm_rows_backward(d_h2, xhat2, inv2, ln2_gd)
        d_x1 += g
        d_wo = mixed.T @ d_x1
        d_mixed = (d_x1 @ wo_d.T).reshape(batch, n, heads, dh).transpose(0, 2, 1, 3)
        d_qkv = np.empty((batch, n, 3, heads, dh), dtype=d_mixed.dtype)
        dq, dk, dv = (d_qkv[:, :, i].transpose(0, 2, 1, 3) for i in range(3))
        np.matmul(att.transpose(1, 2, 0, 3), d_mixed, out=dv)
        d_att = np.empty_like(att)
        np.matmul(v, d_mixed.transpose(0, 1, 3, 2), out=d_att.transpose(1, 2, 0, 3))
        del d_mixed
        d_att -= (att * d_att).sum(axis=0)
        d_att *= att
        np.matmul(d_att.transpose(1, 2, 3, 0), k, out=dq)
        np.matmul(d_att.transpose(1, 2, 0, 3), q, out=dk)
        del d_att
        d_qkv = d_qkv.reshape(-1, 3 * d)
        d_w_qkv = h1.T @ d_qkv
        d_h1 = d_qkv @ w_qkv.T
        del d_qkv
        dx, d_ln1_g, d_ln1_b = _norm_rows_backward(d_h1, xhat1, inv1, ln1_gd)
        dx += d_x1
        return (dx.reshape(batch, n, d), d_ln1_g, d_ln1_b,
                d_w_qkv[:, :d] * scale, d_w_qkv[:, d:2 * d], d_w_qkv[:, 2 * d:],
                d_wo, d_ln2_g, d_ln2_b, d_ff1, d_ff1_b, d_ff2, d_ff2_b)

    weights = att.transpose(1, 2, 3, 0)
    return _record((x,) + params, out.reshape(batch, n, d), backward), weights


def norm_pool(x, gain, bias):
    """Layer norm of each token of ``x`` [B, n, d], with gain and bias
    [d], then the mean over the n tokens: [B, d], as one tape node."""
    xd = x.data
    if xd.ndim != 3:
        raise ShapeError(f"norm_pool: input must be [B, n, d], got {xd.shape}")
    batch, n, d = xd.shape
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(f"norm_pool: gain/bias must have shape ({d},)")
    xhat, inv, normed = _norm_rows(xd.reshape(-1, d), gain.data, bias.data)
    gd = gain.data

    def backward(g):
        dx, d_gain, d_bias = _norm_rows_backward(np.repeat(g / n, n, axis=0),
                                                 xhat, inv, gd)
        return dx.reshape(batch, n, d), d_gain, d_bias

    return _record([x, gain, bias], normed.reshape(batch, n, d).mean(axis=1),
                   backward)


# ---------------------------------------------------------------------------
# Shape manipulation and reductions
# ---------------------------------------------------------------------------

def reshape(a, shape):
    old = a.data.shape
    out = a.data.reshape(shape)
    return _record([a], out, lambda g: (g.reshape(old),))


def stack(tensors, axis=0):
    """Stack same-shape tensors along a new axis."""
    shapes = {t.data.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"stack: mismatched shapes {sorted(shapes)}")
    out = np.stack([t.data for t in tensors], axis=axis)
    n = len(tensors)

    def backward(g):
        parts = np.moveaxis(g, axis, 0)
        return tuple(parts[i] for i in range(n))

    return _record(list(tensors), out, backward)


def mean_all(a):
    shape, dtype, n = a.data.shape, a.data.dtype, a.data.size
    return _record([a], np.asarray(a.data.mean(), dtype=dtype),
                   lambda g: (np.full(shape, g / n, dtype=dtype),))
