"""Tensor engine tests: forward values against hand results, gradients
against central finite differences in float64."""

import gc
import time
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from phase_surrogate import autodiff as ad
from phase_surrogate.autodiff import GradTape, Tensor
from phase_surrogate.errors import ContractError, ShapeError

import reference_ops as ref


def _t(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True, dtype=np.float64)


def _probe_fn(op, tensors, rng):
    """Wrap op into a scalar objective via a fixed random probe so that
    directional errors in the gradient cannot cancel under a plain sum."""
    out = op(*tensors)
    probe = Tensor(rng.normal(size=out.shape), dtype=np.float64)

    def fn(*ts):
        return ref.sum_all(ref.mul(op(*ts), probe))

    return fn


def _case_add(rng):
    ts = [_t(rng, (3, 4)), _t(rng, (3, 4))]
    return _probe_fn(ref.add, ts, rng), ts


def _case_sub(rng):
    ts = [_t(rng, (5,)), _t(rng, (5,))]
    return _probe_fn(ad.sub, ts, rng), ts


def _case_mul(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (2, 3, 4))]
    return _probe_fn(ref.mul, ts, rng), ts


def _case_mul_scalar(rng):
    ts = [_t(rng, (6,))]
    return _probe_fn(lambda a: ref.mul_scalar(a, -1.3), ts, rng), ts


def _case_square(rng):
    ts = [_t(rng, (3, 3), -2.0, 2.0)]
    return _probe_fn(ad.square, ts, rng), ts


def _case_add_rowvec_2d(rng):
    ts = [_t(rng, (4, 5)), _t(rng, (5,))]
    return _probe_fn(ad.add_rowvec, ts, rng), ts


def _case_add_rowvec_3d(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (4,))]
    return _probe_fn(ad.add_rowvec, ts, rng), ts


def _case_add_rowvec_table(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (3, 4))]
    return _probe_fn(ad.add_rowvec, ts, rng), ts


def _case_add_leading(rng):
    ts = [_t(rng, (5, 3, 4)), _t(rng, (3, 4))]
    return _probe_fn(ref.add_leading, ts, rng), ts


def _case_relu(rng):
    # Keep inputs away from the kink so the finite difference is valid.
    data = rng.uniform(0.2, 1.5, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
    ts = [Tensor(data, requires_grad=True, dtype=np.float64)]
    return _probe_fn(ad.relu, ts, rng), ts


def _case_sigmoid(rng):
    ts = [_t(rng, (3, 5), -4.0, 4.0)]
    return _probe_fn(ref.sigmoid, ts, rng), ts


def _case_tanh(rng):
    ts = [_t(rng, (7,), -3.0, 3.0)]
    return _probe_fn(ref.tanh, ts, rng), ts


def _case_softmax_last(rng):
    ts = [_t(rng, (4, 6), -2.0, 2.0)]
    return _probe_fn(ref.softmax, ts, rng), ts


def _case_softmax_mid(rng):
    ts = [_t(rng, (3, 4, 5), -2.0, 2.0)]
    return _probe_fn(lambda a: ref.softmax(a, axis=1), ts, rng), ts


def _case_matmul_2d(rng):
    ts = [_t(rng, (3, 4)), _t(rng, (4, 5))]
    return _probe_fn(ref.matmul, ts, rng), ts


def _case_matmul_3d(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (2, 4, 5))]
    return _probe_fn(ref.matmul, ts, rng), ts


def _case_dense_2d(rng):
    ts = [_t(rng, (3, 4)), _t(rng, (4, 5))]
    return _probe_fn(ad.dense, ts, rng), ts


def _case_dense_3d(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (4, 5))]
    return _probe_fn(ad.dense, ts, rng), ts


def _case_dense_2d_bias(rng):
    ts = [_t(rng, (4, 3)), _t(rng, (3, 5)), _t(rng, (5,))]
    return _probe_fn(ad.dense, ts, rng), ts


def _case_dense_2d_relu(rng):
    ts = [_t(rng, (4, 3)), _t(rng, (3, 5))]
    return _probe_fn(lambda x, w: ad.dense(x, w, relu=True), ts, rng), ts


def _case_dense_3d_bias_relu(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (4, 5)), _t(rng, (5,))]
    return _probe_fn(lambda x, w, b: ad.dense(x, w, b, relu=True), ts, rng), ts


def _case_conv1d_plain(rng):
    ts = [_t(rng, (1, 8, 3)), _t(rng, (3, 3, 4))]
    return _probe_fn(lambda x, k: ad.conv1d(x, k, padding=1), ts, rng), ts


def _case_conv1d_padded(rng):
    ts = [_t(rng, (2, 6, 2)), _t(rng, (5, 2, 2))]
    return _probe_fn(lambda x, k: ad.conv1d(x, k, padding=2), ts, rng), ts


def _case_layer_norm_2d(rng):
    ts = [_t(rng, (4, 6)), _t(rng, (6,), 0.5, 1.5), _t(rng, (6,))]
    return _probe_fn(ref.layer_norm, ts, rng), ts


def _case_layer_norm_3d(rng):
    ts = [_t(rng, (2, 3, 8)), _t(rng, (8,), 0.5, 1.5), _t(rng, (8,))]
    return _probe_fn(ref.layer_norm, ts, rng), ts


def _lstm_tensors(rng, batch, steps, n_vars, hid):
    return [_t(rng, (batch, steps, n_vars)),
            _t(rng, (n_vars, 4 * hid), -0.4, 0.4),
            _t(rng, (hid, 4 * hid), -0.4, 0.4),
            _t(rng, (4 * hid,), -0.2, 0.2)]


def _lstm_encoder_arrays(dtype, batch, steps, n_vars, hid, forget_bias, seed=47):
    """Forcing-like input and the temporal encoder's initialisation: Xavier
    weights, zero bias except the forget block."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, steps, n_vars))
    w_x = rng.uniform(-1.0, 1.0, size=(n_vars, 4 * hid)) * np.sqrt(6.0 / (n_vars + 4 * hid))
    w_h = rng.uniform(-1.0, 1.0, size=(hid, 4 * hid)) * np.sqrt(6.0 / (5 * hid))
    b = np.zeros(4 * hid)
    b[hid:2 * hid] = forget_bias
    return [a.astype(dtype) for a in (x, w_x, w_h, b)]


def _case_lstm_short(rng):
    ts = _lstm_tensors(rng, batch=3, steps=4, n_vars=2, hid=3)
    return _probe_fn(ad.lstm_sequence, ts, rng), ts


def _case_lstm_long(rng):
    ts = _lstm_tensors(rng, batch=2, steps=12, n_vars=3, hid=4)
    return _probe_fn(ad.lstm_sequence, ts, rng), ts


def _case_transformer_layer(rng):
    d, ff = 4, 6
    ts = [_t(rng, (2, 3, d)), _t(rng, (d,), 0.5, 1.5), _t(rng, (d,)),
          *(_t(rng, (d, d)) for _ in range(4)), _t(rng, (d,), 0.5, 1.5),
          _t(rng, (d,)), _t(rng, (d, ff)), _t(rng, (ff,)), _t(rng, (ff, d)),
          _t(rng, (d,))]
    return _probe_fn(lambda *a: ad.transformer_layer(*a, heads=2)[0], ts, rng), ts


def _case_norm_pool(rng):
    ts = [_t(rng, (2, 3, 5)), _t(rng, (5,), 0.5, 1.5), _t(rng, (5,))]
    return _probe_fn(ad.norm_pool, ts, rng), ts


def _case_reshape(rng):
    ts = [_t(rng, (2, 3, 4))]
    return _probe_fn(lambda a: ad.reshape(a, (6, 4)), ts, rng), ts


def _case_transpose(rng):
    ts = [_t(rng, (2, 3, 4))]
    return _probe_fn(lambda a: ref.transpose(a, (1, 0, 2)), ts, rng), ts


def _case_transpose_swap_last(rng):
    ts = [_t(rng, (2, 3, 4))]
    return _probe_fn(lambda a: ref.transpose(a, (0, 2, 1)), ts, rng), ts


def _case_slice(rng):
    ts = [_t(rng, (4, 6))]
    return _probe_fn(lambda a: ref.slice_axis(a, 1, 1, 4), ts, rng), ts


def _case_stack(rng):
    ts = [_t(rng, (3, 4)) for _ in range(3)]
    return _probe_fn(lambda *xs: ad.stack(list(xs), axis=0), ts, rng), ts


def _case_stack_mid(rng):
    ts = [_t(rng, (3, 4)) for _ in range(2)]
    return _probe_fn(lambda *xs: ad.stack(list(xs), axis=1), ts, rng), ts


def _case_mean_axis(rng):
    ts = [_t(rng, (3, 4, 5))]
    return _probe_fn(lambda a: ref.mean_axis(a, 1), ts, rng), ts


def _case_sum_all(rng):
    ts = [_t(rng, (4, 5))]
    return (lambda a: ref.sum_all(a)), ts


def _case_mean_all(rng):
    ts = [_t(rng, (6,))]
    return (lambda a: ad.mean_all(a)), ts


def _case_mlp(rng):
    x = _t(rng, (2, 5))
    w1 = _t(rng, (5, 4))
    b1 = _t(rng, (4,))
    w2 = _t(rng, (4, 3))
    b2 = _t(rng, (3,))

    def fn(x, w1, b1, w2, b2):
        h = ref.tanh(ad.add_rowvec(ref.matmul(x, w1), b1))
        y = ad.relu(ad.add_rowvec(ref.matmul(h, w2), b2))
        return ad.mean_all(y)

    return fn, [x, w1, b1, w2, b2]


def _case_attention(rng):
    q = _t(rng, (2, 3, 4))
    k = _t(rng, (2, 3, 4))
    v = _t(rng, (2, 3, 4))

    def fn(q, k, v):
        scores = ref.mul_scalar(ref.matmul(q, ref.transpose(k, (0, 2, 1))), 0.5)
        return ad.mean_all(ref.matmul(ref.softmax(scores), v))

    return fn, [q, k, v]


def _case_norm_residual(rng):
    x = _t(rng, (3, 6))
    g = _t(rng, (6,), 0.5, 1.5)
    b = _t(rng, (6,))

    def fn(x, g, b):
        return ad.mean_all(ad.square(ref.add(x, ref.layer_norm(x, g, b))))

    return fn, [x, g, b]


GRAD_CASES = [
    ("add", _case_add),
    ("sub", _case_sub),
    ("mul", _case_mul),
    ("mul_scalar", _case_mul_scalar),
    ("square", _case_square),
    ("add_rowvec_2d", _case_add_rowvec_2d),
    ("add_rowvec_3d", _case_add_rowvec_3d),
    ("add_rowvec_table", _case_add_rowvec_table),
    ("add_leading", _case_add_leading),
    ("relu", _case_relu),
    ("sigmoid", _case_sigmoid),
    ("tanh", _case_tanh),
    ("softmax_last", _case_softmax_last),
    ("softmax_mid", _case_softmax_mid),
    ("matmul_2d", _case_matmul_2d),
    ("matmul_3d", _case_matmul_3d),
    ("dense_2d", _case_dense_2d),
    ("dense_3d", _case_dense_3d),
    ("dense_2d_bias", _case_dense_2d_bias),
    ("dense_2d_relu", _case_dense_2d_relu),
    ("dense_3d_bias_relu", _case_dense_3d_bias_relu),
    ("conv1d_plain", _case_conv1d_plain),
    ("conv1d_padded", _case_conv1d_padded),
    ("layer_norm_2d", _case_layer_norm_2d),
    ("layer_norm_3d", _case_layer_norm_3d),
    ("lstm_short", _case_lstm_short),
    ("lstm_long", _case_lstm_long),
    ("transformer_layer", _case_transformer_layer),
    ("norm_pool", _case_norm_pool),
    ("reshape", _case_reshape),
    ("transpose", _case_transpose),
    ("transpose_swap_last", _case_transpose_swap_last),
    ("slice", _case_slice),
    ("stack", _case_stack),
    ("stack_mid", _case_stack_mid),
    ("mean_axis", _case_mean_axis),
    ("sum_all", _case_sum_all),
    ("mean_all", _case_mean_all),
    ("mlp", _case_mlp),
    ("attention", _case_attention),
    ("norm_residual", _case_norm_residual),
]


class TestGradientChecks:
    """Every primitive's tape gradient agrees with central differences
    (h = 1e-5, float64) to a relative error below 1e-4."""

    @pytest.mark.parametrize("name,builder", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_against_central_differences(self, name, builder):
        for rep in range(3):
            rng = np.random.default_rng(1000 * rep + zlib.crc32(name.encode()) % 1000)
            fn, tensors = builder(rng)
            ref.gradcheck(fn, tensors, h=1e-5, rtol=1e-4)

    @pytest.mark.parametrize("name,builder", GRAD_CASES, ids=[c[0] for c in GRAD_CASES])
    def test_pullbacks_hold_no_tensor(self, name, builder):
        """A pullback that held a tensor would keep its array alive until
        the sweep ends, where the backward reads only a flag, a shape or
        nothing of it."""
        fn, tensors = builder(np.random.default_rng(zlib.crc32(name.encode())))
        with GradTape() as tape:
            fn(*tensors)
        assert tape.nodes
        for node in tape.nodes:
            cells = [c.cell_contents for c in node.backward_fn.__closure__ or ()]
            held = [v for c in cells
                    for v in (c if isinstance(c, (tuple, list)) else (c,))]
            assert not any(isinstance(v, Tensor) for v in held)

    def test_numeric_gradient_matches_analytic_square(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        numeric = ref.numeric_gradient(lambda a: ref.sum_all(ad.square(a)), [x], 0)
        assert np.allclose(numeric, 2.0 * x.data, rtol=1e-6, atol=1e-8)


class TestForwardValues:
    def test_add_and_sub(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.array_equal(ref.add(a, b).data, [4.0, 6.0])
        assert np.array_equal(ad.sub(a, b).data, [-2.0, -2.0])

    def test_matmul_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ref.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_activation_fixed_points(self):
        z = Tensor([0.0])
        assert ref.sigmoid(z).data[0] == pytest.approx(0.5)
        assert ref.tanh(z).data[0] == pytest.approx(0.0)
        assert np.array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_relu_propagates_nan(self):
        out = ad.relu(Tensor(np.array([np.nan, -1.0, 2.0], dtype=np.float32)))
        assert np.isnan(out.data[0])
        assert np.array_equal(out.data[1:], [0.0, 2.0])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 7)).astype(np.float32))
        s = ref.softmax(x)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(s.data > 0)

    def test_softmax_shift_invariance_and_stability(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        shifted = Tensor(x.data + 1000.0)
        assert np.allclose(ref.softmax(x).data, ref.softmax(shifted).data, atol=1e-6)
        huge = ref.softmax(Tensor(np.array([[0.0, 5000.0, 0.0]])))
        assert np.all(np.isfinite(huge.data))
        assert huge.data[0, 1] == pytest.approx(1.0)

    def test_layer_norm_normalizes_then_affines(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(2.0, 3.0, size=(6, 16)))
        unit = ref.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(unit.data.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(unit.data.var(axis=-1), 1.0, atol=1e-3)
        affine = ref.layer_norm(x, Tensor(np.full(16, 2.0)), Tensor(np.full(16, 3.0)))
        assert np.allclose(affine.data.mean(axis=-1), 3.0, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm_forward_is_bitwise_the_var_form(self, dtype):
        rng = np.random.default_rng(12)
        x = rng.normal(0.5, 2.0, size=(64, 5, 48)).astype(dtype)
        gain = rng.uniform(0.5, 1.5, size=48).astype(dtype)
        bias = rng.normal(size=48).astype(dtype)
        # the form with np.var that layer_norm replaced
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + dtype(1e-5))
        expected = gain * ((x - x.mean(axis=-1, keepdims=True)) * inv) + bias
        out = ref.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
        np.testing.assert_array_equal(out.data, expected)

    def test_conv1d_hand_case(self):
        x = Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
        k = Tensor(np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1))
        out = ad.conv1d(x, k)
        assert out.shape == (1, 2, 1)
        assert np.allclose(out.data[0, :, 0], [-2.0, -2.0])

    def test_conv1d_output_length_formula(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(1, 10, 2)).astype(np.float32))
        k = Tensor(rng.normal(size=(3, 2, 4)).astype(np.float32))
        assert ad.conv1d(x, k, padding=1).shape == (1, 10, 4)
        assert ad.conv1d(x, k, padding=0).shape == (1, 8, 4)
        assert ad.conv1d(x, k, padding=2).shape == (1, 12, 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_conv1d_kernel_gradient_matches_einsum_form(self, dtype, padding):
        rng = np.random.default_rng(13)
        batch, length, cin, ksize, cout = 16, 9, 3, 3, 6
        x = rng.normal(size=(batch, length, cin)).astype(dtype)
        kernels = Tensor(rng.normal(size=(ksize, cin, cout)).astype(dtype),
                         requires_grad=True)
        with GradTape() as tape:
            out = ad.conv1d(Tensor(x), kernels, padding=padding)
            probe = rng.normal(size=out.shape).astype(dtype)
            tape.backward(ref.sum_all(ref.mul(out, Tensor(probe))))
        # the einsum over the windows that the GEMM form replaced
        xp = np.pad(x, ((0, 0), (padding, padding), (0, 0)))
        idx = np.arange(out.shape[1])[:, None] + np.arange(ksize)[None, :]
        windows = xp[:, idx, :].reshape(batch, out.shape[1], ksize * cin)
        expected = np.einsum("bik,bio->ko", windows, probe).reshape(
            ksize, cin, cout)
        assert kernels.grad.dtype == dtype
        np.testing.assert_allclose(kernels.grad, expected,
                                   rtol=16 * np.finfo(dtype).eps,
                                   atol=16 * np.finfo(dtype).eps
                                   * np.abs(expected).max())

    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_conv1d_equals_the_gathered_windows_bit_for_bit(self, padding):
        # the sliced windows and their gradient's scatter touch the same
        # elements in the same order as an index-array gather and scatter
        rng = np.random.default_rng(17)
        x = Tensor(rng.normal(size=(8, 9, 3)).astype(np.float32),
                   requires_grad=True)
        kernels = rng.normal(size=(3, 3, 5)).astype(np.float32)
        with GradTape() as tape:
            out = ad.conv1d(x, Tensor(kernels, requires_grad=True),
                            padding=padding)
            probe = rng.normal(size=out.shape).astype(np.float32)
            tape.backward(ref.sum_all(ref.mul(out, Tensor(probe))))
        xp = np.pad(x.data, ((0, 0), (padding, padding), (0, 0)))
        idx = np.arange(out.shape[1])[:, None] + np.arange(3)[None, :]
        wmat = kernels.reshape(9, 5)
        np.testing.assert_array_equal(
            out.data, xp[:, idx, :].reshape(8, out.shape[1], 9) @ wmat)
        dwin = (probe @ wmat.T).reshape(8, out.shape[1], 3, 3)
        dxp = np.zeros_like(xp)
        for j in range(3):
            dxp[:, idx[:, j], :] += dwin[:, :, j, :]
        np.testing.assert_array_equal(x.grad, dxp[:, padding:padding + 9])

    @pytest.mark.parametrize("shape", [(32, 24), (8, 5, 24)])
    @pytest.mark.parametrize("bias,relu", [(False, False), (True, False),
                                           (True, True)])
    def test_dense_matches_per_op_layer(self, shape, bias, relu):
        """One dense node against matmul -> add_rowvec (-> relu) in float32:
        same values and gradients to float32 rounding."""
        rng = np.random.default_rng(14)
        x_np = rng.normal(size=shape).astype(np.float32)
        w_np = rng.normal(scale=0.3, size=(24, 16)).astype(np.float32)
        b_np = rng.normal(scale=0.3, size=16).astype(np.float32)
        probe = Tensor(rng.normal(size=shape[:-1] + (16,)).astype(np.float32))
        results = []
        for fused in (True, False):
            x = Tensor(x_np, requires_grad=True)
            w = Tensor(w_np, requires_grad=True)
            b = Tensor(b_np, requires_grad=True) if bias else None
            with GradTape() as tape:
                if fused:
                    out = ad.dense(x, w, b, relu=relu)
                else:
                    out = ref.matmul(ad.reshape(x, (-1, 24)), w)
                    if bias:
                        out = ad.add_rowvec(out, b)
                    if relu:
                        out = ad.relu(out)
                    out = ad.reshape(out, probe.shape)
                tape.backward(ref.sum_all(ref.mul(out, probe)))
            assert len(tape.nodes) == (3 if fused else 5 + bias + relu)
            results.append([out.data, x.grad, w.grad]
                           + ([b.grad] if bias else []))
        tol = 8 * np.finfo(np.float32).eps
        for got, want in zip(*results):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=tol,
                                       atol=tol * np.abs(want).max())

    def test_dense_weight_gradient_with_a_constant_input(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        with GradTape() as tape:
            tape.backward(ref.sum_all(ad.dense(x, w, relu=True)))
        assert x.grad is None
        np.testing.assert_array_equal(
            w.grad, x.data.T @ (x.data @ w.data > 0).astype(x.data.dtype))

    def test_lstm_sequence_matches_stepwise_primitives(self):
        rng = np.random.default_rng(41)
        x, w_x, w_h, b = _lstm_tensors(rng, batch=3, steps=6, n_vars=2, hid=4)
        fused = ad.lstm_sequence(x, w_x, w_h, b)

        batch, steps, n_vars = x.shape
        hid = w_h.shape[0]
        h = Tensor(np.zeros((batch, hid)), dtype=np.float64)
        c = Tensor(np.zeros((batch, hid)), dtype=np.float64)
        for t in range(steps):
            x_t = ad.reshape(ref.slice_axis(x, 1, t, t + 1), (batch, n_vars))
            z = ad.add_rowvec(ref.add(ref.matmul(x_t, w_x), ref.matmul(h, w_h)), b)
            i = ref.sigmoid(ref.slice_axis(z, 1, 0, hid))
            f = ref.sigmoid(ref.slice_axis(z, 1, hid, 2 * hid))
            g = ref.tanh(ref.slice_axis(z, 1, 2 * hid, 3 * hid))
            o = ref.sigmoid(ref.slice_axis(z, 1, 3 * hid, 4 * hid))
            c = ref.add(ref.mul(f, c), ref.mul(i, g))
            h = ref.mul(o, ref.tanh(c))
        assert np.allclose(fused.data, h.data, rtol=1e-10, atol=1e-12)

    def test_lstm_sequence_rejects_bad_shapes(self):
        rng = np.random.default_rng(42)
        x, w_x, w_h, b = _lstm_tensors(rng, batch=2, steps=3, n_vars=2, hid=3)
        with pytest.raises(ShapeError):
            ad.lstm_sequence(ad.reshape(x, (2, 6)), w_x, w_h, b)
        with pytest.raises(ShapeError):
            ad.lstm_sequence(x, w_h, w_x, b)
        with pytest.raises(ShapeError):
            ad.lstm_sequence(x, w_x, w_h, Tensor(np.zeros(5)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lstm_forward_only_matches_recorded_call(self, dtype):
        rng = np.random.default_rng(43)
        arrays = [t.data.astype(dtype) for t in
                  _lstm_tensors(rng, batch=5, steps=9, n_vars=3, hid=4)]
        with GradTape() as tape:
            recorded = ad.lstm_sequence(
                *[Tensor(a, requires_grad=True) for a in arrays])
        assert len(tape.nodes) == 1 and recorded.requires_grad
        no_tape = ad.lstm_sequence(*[Tensor(a) for a in arrays])
        with GradTape() as tape:
            frozen = ad.lstm_sequence(*[Tensor(a) for a in arrays])
        assert not tape.nodes
        for out in (no_tape, frozen):
            assert not out.requires_grad and out.data.dtype == dtype
            np.testing.assert_array_equal(out.data, recorded.data)

    def test_lstm_forward_only_holds_no_gate_caches(self):
        rng = np.random.default_rng(44)
        batch, steps, n_vars, hid = 64, 240, 5, 64
        x, w_x, w_h, b = [
            Tensor(a.astype(np.float32)) for a in
            (rng.normal(size=(batch, steps, n_vars)),
             rng.normal(scale=0.3, size=(n_vars, 4 * hid)),
             rng.normal(scale=0.3, size=(hid, 4 * hid)),
             rng.normal(scale=0.1, size=4 * hid))]
        tracemalloc.start()
        try:
            ad.lstm_sequence(x, w_x, w_h, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one [T, B, H] float32 history is 3.9 MB; a recorded call keeps five
        # (the gates and the cell history)
        assert peak < steps * batch * hid * 4

    def test_recorded_lstm_keeps_no_hidden_history(self):
        batch, steps, n_vars, hid = 32, 120, 5, 32
        tensors = [Tensor(a, requires_grad=True) for a in
                   _lstm_encoder_arrays(np.float32, batch, steps, n_vars, hid, 1.0)]
        tracemalloc.start()
        try:
            with GradTape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                ad.lstm_sequence(*tensors)
                kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.nodes) == 1
        # the gates [T, 4H, B], the cell history [T+1, H, B] and the input
        # with its bias column [T, B, V+1]; a hidden history would add
        # another [T+1, H, B]
        caches = 4 * (steps * 4 * hid * batch + (steps + 1) * hid * batch
                      + steps * batch * (n_vars + 1))
        history = 4 * (steps + 1) * hid * batch
        assert caches <= kept < caches + history // 2

    def test_lstm_backward_holds_no_sequence_gradient_buffer(self):
        batch, steps, n_vars, hid = 64, 240, 5, 64
        tensors = [Tensor(a, requires_grad=True) for a in
                   _lstm_encoder_arrays(np.float32, batch, steps, n_vars, hid, 1.0)]
        with GradTape() as tape:
            loss = ad.mean_all(ad.lstm_sequence(*tensors))
            tracemalloc.start()
            try:
                tape.backward(loss)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert all(t.grad is not None for t in tensors)
        # below one [T, B, H] float32 array (3.9 MB); a [B, T, 4H] gradient
        # buffer would be four of them
        assert peak < steps * batch * hid * 4

    @pytest.mark.parametrize("forget_bias", [0.0, 1.0])
    def test_lstm_float32_gradients_agree_with_float64(self, forget_bias):
        # forget bias 0 drives the f32 reverse pass into subnormals, where it
        # ends early; every gradient must still match the f64 one
        batch, steps, n_vars, hid = 8, 240, 5, 16
        arrays = _lstm_encoder_arrays(np.float64, batch, steps, n_vars, hid,
                                      forget_bias)
        probe = np.random.default_rng(46).normal(size=(batch, hid))
        grads = {}
        for dtype in (np.float32, np.float64):
            tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
            with GradTape() as tape:
                out = ad.lstm_sequence(*tensors)
                tape.backward(ad.mean_all(ref.mul(out, Tensor(probe.astype(dtype)))))
            grads[dtype] = [t.grad for t in tensors]
        tol = 64 * np.finfo(np.float32).eps
        for name, g32, g64 in zip(("x", "w_x", "w_h", "b"), grads[np.float32],
                                  grads[np.float64]):
            assert g32.dtype == np.float32 and g32.shape == g64.shape, name
            scale = np.abs(g64).max()
            assert scale > 0, name
            assert np.abs(g32 - g64).max() <= tol * scale, name

    def test_lstm_float32_backward_does_not_stall_in_subnormals(self):
        batch, steps, n_vars, hid = 64, 240, 5, 64

        def best_backward(forget_bias):
            arrays = _lstm_encoder_arrays(np.float32, batch, steps, n_vars,
                                          hid, forget_bias)
            best = np.inf
            for _ in range(3):
                tensors = [Tensor(a, requires_grad=True) for a in arrays]
                with GradTape() as tape:
                    loss = ad.mean_all(ad.lstm_sequence(*tensors))
                    start = time.perf_counter()
                    tape.backward(loss)
                    best = min(best, time.perf_counter() - start)
            return best

        assert best_backward(0.0) <= 3.0 * best_backward(1.0)

    def test_shape_ops_round_trip(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert ad.reshape(x, (6, 4)).shape == (6, 4)
        assert ref.transpose(x, (2, 0, 1)).shape == (4, 2, 3)
        assert ref.slice_axis(x, 2, 1, 3).shape == (2, 3, 2)
        stacked = ad.stack([x, x], axis=0)
        assert stacked.shape == (2, 2, 3, 4)
        assert ref.mean_axis(x, 0).shape == (3, 4)
        assert np.allclose(ref.mean_axis(x, 0).data, x.data.mean(axis=0))
        assert ref.sum_all(x).item() == pytest.approx(float(x.data.sum()), rel=1e-6)
        assert ad.mean_all(x).item() == pytest.approx(float(x.data.mean()), rel=1e-6)

    def test_dtype_discipline(self):
        x32 = Tensor(np.ones((2, 2), dtype=np.float32))
        y32 = ref.tanh(ref.matmul(x32, x32))
        assert y32.dtype == np.float32
        x64 = Tensor(np.ones((2, 2)), dtype=np.float64)
        assert ref.tanh(ref.matmul(x64, x64)).dtype == np.float64
        assert Tensor([1, 2, 3]).dtype == np.float32


class TestAccumulation:
    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float64), requires_grad=True)
        with GradTape() as tape:
            loss = ref.sum_all(ref.mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_self_add_doubles(self):
        x = Tensor(np.array([5.0, 7.0], dtype=np.float64), requires_grad=True)
        with GradTape() as tape:
            tape.backward(ref.sum_all(ref.add(x, x)))
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_repeated_backward_adds_and_zero_grad_resets(self):
        x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        for _ in range(2):
            with GradTape() as tape:
                tape.backward(ref.sum_all(ad.square(x)))
        assert np.allclose(x.grad, [8.0])
        x.zero_grad()
        assert x.grad is None

    def test_constant_inputs_get_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        with GradTape() as tape:
            tape.backward(ref.sum_all(ref.mul(x, c)))
        assert c.grad is None
        assert x.grad is not None


class TestTapeDiscipline:
    def test_no_recording_without_grads(self):
        with GradTape() as tape:
            ref.add(Tensor(np.ones(2)), Tensor(np.ones(2)))
        assert tape.nodes == []

    def test_backward_runs_once_per_tape(self):
        x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        with GradTape() as tape:
            loss = ref.sum_all(ad.square(x))
        tape.backward(loss)
        with pytest.raises(ContractError):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [4.0])
        assert len(tape.nodes) == 2

    def test_tensor_made_on_another_tape_is_a_leaf(self):
        x = Tensor(np.array([1.0, -2.0], dtype=np.float64), requires_grad=True)
        with GradTape() as first:
            y = ref.mul_scalar(x, 3.0)
            first_loss = ref.sum_all(y)
        with GradTape() as second:
            second.backward(ref.sum_all(ad.square(y)))
        np.testing.assert_array_equal(y.grad, 2.0 * y.data)
        assert x.grad is None
        first.backward(first_loss)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_backward_frees_activations_without_the_collector(self):
        """The tape holds nodes, not tensors, and its nodes hold no cycle:
        once the sweep is over, an activation a pullback read is freed by
        reference counting alone."""
        rng = np.random.default_rng(48)
        x = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        gc.disable()
        try:
            with GradTape() as tape:
                hidden = ref.matmul(x, w)
                activation = weakref.ref(hidden.data)
                loss = ref.sum_all(ad.relu(hidden))
                del hidden
            assert activation() is not None  # the relu pullback reads it
            tape.backward(loss)
            assert activation() is None
        finally:
            gc.enable()
        assert x.grad is not None and w.grad is not None

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with GradTape() as tape:
            y = ad.square(x)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_mismatched_exit_raises(self):
        outer, inner = GradTape(), GradTape()
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(ContractError):
            outer.__exit__(None, None, None)
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert ad.active_tape() is None


class TestShapeErrors:
    def test_mismatches_raise(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError):
            ref.add(a, b)
        with pytest.raises(ShapeError):
            ref.matmul(a, Tensor(np.ones((2, 2))))
        with pytest.raises(ShapeError):
            ref.matmul(Tensor(np.ones((2, 2, 3))), a)
        with pytest.raises(ShapeError):
            ad.dense(a, Tensor(np.ones((2, 2))))
        with pytest.raises(ShapeError):
            ad.dense(a, b, Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.dense(Tensor(np.ones((2, 2, 2, 3))), b)
        with pytest.raises(ShapeError):
            ad.add_rowvec(a, Tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            ref.layer_norm(a, Tensor(np.ones(2)), Tensor(np.ones(3)))
        with pytest.raises(ShapeError):
            ad.stack([a, b])
        with pytest.raises(ShapeError):
            ad.conv1d(Tensor(np.ones((1, 4, 2))), Tensor(np.ones((7, 2, 3))))


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        def run():
            rng = np.random.default_rng(42)
            x = Tensor(rng.normal(size=(8, 5)).astype(np.float32))
            w = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
            b = Tensor(rng.normal(size=4).astype(np.float32))
            return ad.relu(ad.add_rowvec(ref.matmul(x, w), b)).data

        assert np.array_equal(run(), run())
