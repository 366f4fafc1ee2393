"""Tensor engine tests: forward values against hand results, gradients
against central finite differences in float64."""

import tracemalloc

import numpy as np
import pytest

from phase_surrogate import autodiff as ad
from phase_surrogate.autodiff import GradTape, Tensor
from phase_surrogate.errors import ContractError, ShapeError


def _t(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True, dtype=np.float64)


def _probe_fn(op, tensors, rng):
    """Wrap op into a scalar objective via a fixed random probe so that
    directional errors in the gradient cannot cancel under a plain sum."""
    out = op(*tensors)
    probe = Tensor(rng.normal(size=out.shape), dtype=np.float64)

    def fn(*ts):
        return ad.sum_all(ad.mul(op(*ts), probe))

    return fn


def _case_add(rng):
    ts = [_t(rng, (3, 4)), _t(rng, (3, 4))]
    return _probe_fn(ad.add, ts, rng), ts


def _case_sub(rng):
    ts = [_t(rng, (5,)), _t(rng, (5,))]
    return _probe_fn(ad.sub, ts, rng), ts


def _case_mul(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (2, 3, 4))]
    return _probe_fn(ad.mul, ts, rng), ts


def _case_mul_scalar(rng):
    ts = [_t(rng, (6,))]
    return _probe_fn(lambda a: ad.mul_scalar(a, -1.3), ts, rng), ts


def _case_square(rng):
    ts = [_t(rng, (3, 3), -2.0, 2.0)]
    return _probe_fn(ad.square, ts, rng), ts


def _case_add_rowvec_2d(rng):
    ts = [_t(rng, (4, 5)), _t(rng, (5,))]
    return _probe_fn(ad.add_rowvec, ts, rng), ts


def _case_add_rowvec_3d(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (4,))]
    return _probe_fn(ad.add_rowvec, ts, rng), ts


def _case_add_leading(rng):
    ts = [_t(rng, (5, 3, 4)), _t(rng, (3, 4))]
    return _probe_fn(ad.add_leading, ts, rng), ts


def _case_relu(rng):
    # Keep inputs away from the kink so the finite difference is valid.
    data = rng.uniform(0.2, 1.5, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
    ts = [Tensor(data, requires_grad=True, dtype=np.float64)]
    return _probe_fn(ad.relu, ts, rng), ts


def _case_sigmoid(rng):
    ts = [_t(rng, (3, 5), -4.0, 4.0)]
    return _probe_fn(ad.sigmoid, ts, rng), ts


def _case_tanh(rng):
    ts = [_t(rng, (7,), -3.0, 3.0)]
    return _probe_fn(ad.tanh, ts, rng), ts


def _case_softplus(rng):
    ts = [_t(rng, (3, 4), -6.0, 6.0)]
    return _probe_fn(ad.softplus, ts, rng), ts


def _case_softplus_near_cutoff(rng):
    ts = [_t(rng, (8,), 28.0, 32.0)]
    return _probe_fn(ad.softplus, ts, rng), ts


def _case_softmax_last(rng):
    ts = [_t(rng, (4, 6), -2.0, 2.0)]
    return _probe_fn(ad.softmax, ts, rng), ts


def _case_softmax_mid(rng):
    ts = [_t(rng, (3, 4, 5), -2.0, 2.0)]
    return _probe_fn(lambda a: ad.softmax(a, axis=1), ts, rng), ts


def _case_matmul_2d(rng):
    ts = [_t(rng, (3, 4)), _t(rng, (4, 5))]
    return _probe_fn(ad.matmul, ts, rng), ts


def _case_matmul_3d(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (2, 4, 5))]
    return _probe_fn(ad.matmul, ts, rng), ts


def _case_matmul_3d_2d(rng):
    ts = [_t(rng, (2, 3, 4)), _t(rng, (4, 5))]
    return _probe_fn(ad.matmul, ts, rng), ts


def _case_conv1d_plain(rng):
    ts = [_t(rng, (1, 8, 3)), _t(rng, (3, 3, 4))]
    return _probe_fn(lambda x, k: ad.conv1d(x, k, stride=1, padding=1), ts, rng), ts


def _case_conv1d_stride(rng):
    ts = [_t(rng, (2, 9, 2)), _t(rng, (3, 2, 3))]
    return _probe_fn(lambda x, k: ad.conv1d(x, k, stride=2, padding=0), ts, rng), ts


def _case_conv1d_padded(rng):
    ts = [_t(rng, (2, 6, 2)), _t(rng, (5, 2, 2))]
    return _probe_fn(lambda x, k: ad.conv1d(x, k, stride=1, padding=2), ts, rng), ts


def _case_layer_norm_2d(rng):
    ts = [_t(rng, (4, 6)), _t(rng, (6,), 0.5, 1.5), _t(rng, (6,))]
    return _probe_fn(ad.layer_norm, ts, rng), ts


def _case_layer_norm_3d(rng):
    ts = [_t(rng, (2, 3, 8)), _t(rng, (8,), 0.5, 1.5), _t(rng, (8,))]
    return _probe_fn(ad.layer_norm, ts, rng), ts


def _lstm_tensors(rng, batch, steps, n_vars, hid):
    return [_t(rng, (batch, steps, n_vars)),
            _t(rng, (n_vars, 4 * hid), -0.4, 0.4),
            _t(rng, (hid, 4 * hid), -0.4, 0.4),
            _t(rng, (4 * hid,), -0.2, 0.2)]


def _case_lstm_short(rng):
    ts = _lstm_tensors(rng, batch=3, steps=4, n_vars=2, hid=3)
    return _probe_fn(ad.lstm_sequence, ts, rng), ts


def _case_lstm_long(rng):
    ts = _lstm_tensors(rng, batch=2, steps=12, n_vars=3, hid=4)
    return _probe_fn(ad.lstm_sequence, ts, rng), ts


def _case_reshape(rng):
    ts = [_t(rng, (2, 3, 4))]
    return _probe_fn(lambda a: ad.reshape(a, (6, 4)), ts, rng), ts


def _case_transpose(rng):
    ts = [_t(rng, (2, 3, 4))]
    return _probe_fn(lambda a: ad.transpose(a, (1, 0, 2)), ts, rng), ts


def _case_transpose_swap_last(rng):
    ts = [_t(rng, (2, 3, 4))]
    return _probe_fn(lambda a: ad.transpose(a, (0, 2, 1)), ts, rng), ts


def _case_slice(rng):
    ts = [_t(rng, (4, 6))]
    return _probe_fn(lambda a: ad.slice_axis(a, 1, 1, 4), ts, rng), ts


def _case_stack(rng):
    ts = [_t(rng, (3, 4)) for _ in range(3)]
    return _probe_fn(lambda *xs: ad.stack(list(xs), axis=0), ts, rng), ts


def _case_stack_mid(rng):
    ts = [_t(rng, (3, 4)) for _ in range(2)]
    return _probe_fn(lambda *xs: ad.stack(list(xs), axis=1), ts, rng), ts


def _case_concat(rng):
    ts = [_t(rng, (3, 4)), _t(rng, (2, 4))]
    return _probe_fn(lambda a, b: ad.concat([a, b], axis=0), ts, rng), ts


def _case_concat_cols(rng):
    ts = [_t(rng, (3, 2)), _t(rng, (3, 5))]
    return _probe_fn(lambda a, b: ad.concat([a, b], axis=1), ts, rng), ts


def _case_mean_axis(rng):
    ts = [_t(rng, (3, 4, 5))]
    return _probe_fn(lambda a: ad.mean_axis(a, 1), ts, rng), ts


def _case_sum_all(rng):
    ts = [_t(rng, (4, 5))]
    return (lambda a: ad.sum_all(a)), ts


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
        h = ad.tanh(ad.add_rowvec(ad.matmul(x, w1), b1))
        y = ad.softplus(ad.add_rowvec(ad.matmul(h, w2), b2))
        return ad.mean_all(y)

    return fn, [x, w1, b1, w2, b2]


def _case_attention(rng):
    q = _t(rng, (2, 3, 4))
    k = _t(rng, (2, 3, 4))
    v = _t(rng, (2, 3, 4))

    def fn(q, k, v):
        scores = ad.mul_scalar(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 0.5)
        return ad.mean_all(ad.matmul(ad.softmax(scores), v))

    return fn, [q, k, v]


def _case_norm_residual(rng):
    x = _t(rng, (3, 6))
    g = _t(rng, (6,), 0.5, 1.5)
    b = _t(rng, (6,))

    def fn(x, g, b):
        return ad.mean_all(ad.square(ad.add(x, ad.layer_norm(x, g, b))))

    return fn, [x, g, b]


GRAD_CASES = [
    ("add", _case_add),
    ("sub", _case_sub),
    ("mul", _case_mul),
    ("mul_scalar", _case_mul_scalar),
    ("square", _case_square),
    ("add_rowvec_2d", _case_add_rowvec_2d),
    ("add_rowvec_3d", _case_add_rowvec_3d),
    ("add_leading", _case_add_leading),
    ("relu", _case_relu),
    ("sigmoid", _case_sigmoid),
    ("tanh", _case_tanh),
    ("softplus", _case_softplus),
    ("softplus_near_cutoff", _case_softplus_near_cutoff),
    ("softmax_last", _case_softmax_last),
    ("softmax_mid", _case_softmax_mid),
    ("matmul_2d", _case_matmul_2d),
    ("matmul_3d", _case_matmul_3d),
    ("matmul_3d_2d", _case_matmul_3d_2d),
    ("conv1d_plain", _case_conv1d_plain),
    ("conv1d_stride", _case_conv1d_stride),
    ("conv1d_padded", _case_conv1d_padded),
    ("layer_norm_2d", _case_layer_norm_2d),
    ("layer_norm_3d", _case_layer_norm_3d),
    ("lstm_short", _case_lstm_short),
    ("lstm_long", _case_lstm_long),
    ("reshape", _case_reshape),
    ("transpose", _case_transpose),
    ("transpose_swap_last", _case_transpose_swap_last),
    ("slice", _case_slice),
    ("stack", _case_stack),
    ("stack_mid", _case_stack_mid),
    ("concat", _case_concat),
    ("concat_cols", _case_concat_cols),
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
            rng = np.random.default_rng(1000 * rep + abs(hash(name)) % 1000)
            fn, tensors = builder(rng)
            ad.gradcheck(fn, tensors, h=1e-5, rtol=1e-4)

    def test_numeric_gradient_matches_analytic_square(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True, dtype=np.float64)
        numeric = ad.numeric_gradient(lambda a: ad.sum_all(ad.square(a)), [x], 0)
        assert np.allclose(numeric, 2.0 * x.data, rtol=1e-6, atol=1e-8)


class TestForwardValues:
    def test_add_and_sub(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.array_equal(ad.add(a, b).data, [4.0, 6.0])
        assert np.array_equal(ad.sub(a, b).data, [-2.0, -2.0])

    def test_matmul_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_activation_fixed_points(self):
        z = Tensor([0.0])
        assert ad.sigmoid(z).data[0] == pytest.approx(0.5)
        assert ad.tanh(z).data[0] == pytest.approx(0.0)
        assert ad.softplus(z).data[0] == pytest.approx(np.log(2.0))
        assert np.array_equal(ad.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 7)).astype(np.float32))
        s = ad.softmax(x)
        assert np.allclose(s.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.all(s.data > 0)

    def test_softmax_shift_invariance_and_stability(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        shifted = Tensor(x.data + 1000.0)
        assert np.allclose(ad.softmax(x).data, ad.softmax(shifted).data, atol=1e-6)
        huge = ad.softmax(Tensor(np.array([[0.0, 5000.0, 0.0]])))
        assert np.all(np.isfinite(huge.data))
        assert huge.data[0, 1] == pytest.approx(1.0)

    def test_softplus_linear_branch_and_positivity(self):
        x = Tensor(np.array([40.0, 31.0], dtype=np.float64))
        out = ad.softplus(x)
        assert np.array_equal(out.data, x.data)
        for dtype in (np.float32, np.float64):
            deep = ad.softplus(Tensor(np.array([-1e4, -500.0, -100.0], dtype=dtype)))
            assert np.all(deep.data > 0.0)

    def test_layer_norm_normalizes_then_affines(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(2.0, 3.0, size=(6, 16)))
        unit = ad.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        assert np.allclose(unit.data.mean(axis=-1), 0.0, atol=1e-5)
        assert np.allclose(unit.data.var(axis=-1), 1.0, atol=1e-3)
        affine = ad.layer_norm(x, Tensor(np.full(16, 2.0)), Tensor(np.full(16, 3.0)))
        assert np.allclose(affine.data.mean(axis=-1), 3.0, atol=1e-5)

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
        assert ad.conv1d(x, k, stride=2, padding=1).shape == (1, 5, 4)
        assert ad.conv1d(x, k, stride=1, padding=1).shape == (1, 10, 4)
        assert ad.conv1d(x, k, stride=1, padding=0).shape == (1, 8, 4)

    def test_lstm_sequence_matches_stepwise_primitives(self):
        rng = np.random.default_rng(41)
        x, w_x, w_h, b = _lstm_tensors(rng, batch=3, steps=6, n_vars=2, hid=4)
        fused = ad.lstm_sequence(x, w_x, w_h, b)

        batch, steps, n_vars = x.shape
        hid = w_h.shape[0]
        h = Tensor(np.zeros((batch, hid)), dtype=np.float64)
        c = Tensor(np.zeros((batch, hid)), dtype=np.float64)
        for t in range(steps):
            x_t = ad.reshape(ad.slice_axis(x, 1, t, t + 1), (batch, n_vars))
            z = ad.add_rowvec(ad.add(ad.matmul(x_t, w_x), ad.matmul(h, w_h)), b)
            i = ad.sigmoid(ad.slice_axis(z, 1, 0, hid))
            f = ad.sigmoid(ad.slice_axis(z, 1, hid, 2 * hid))
            g = ad.tanh(ad.slice_axis(z, 1, 2 * hid, 3 * hid))
            o = ad.sigmoid(ad.slice_axis(z, 1, 3 * hid, 4 * hid))
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
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
        # one [T, B, H] float32 history is 3.9 MB; a recorded call keeps seven
        assert peak < steps * batch * hid * 4

    def test_shape_ops_round_trip(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        assert ad.reshape(x, (6, 4)).shape == (6, 4)
        assert ad.transpose(x, (2, 0, 1)).shape == (4, 2, 3)
        assert ad.slice_axis(x, 2, 1, 3).shape == (2, 3, 2)
        stacked = ad.stack([x, x], axis=0)
        assert stacked.shape == (2, 2, 3, 4)
        joined = ad.concat([x, x], axis=1)
        assert joined.shape == (2, 6, 4)
        assert ad.mean_axis(x, 0).shape == (3, 4)
        assert np.allclose(ad.mean_axis(x, 0).data, x.data.mean(axis=0))
        assert ad.sum_all(x).item() == pytest.approx(float(x.data.sum()), rel=1e-6)
        assert ad.mean_all(x).item() == pytest.approx(float(x.data.mean()), rel=1e-6)

    def test_dtype_discipline(self):
        x32 = Tensor(np.ones((2, 2), dtype=np.float32))
        y32 = ad.tanh(ad.matmul(x32, x32))
        assert y32.dtype == np.float32
        x64 = Tensor(np.ones((2, 2)), dtype=np.float64)
        assert ad.tanh(ad.matmul(x64, x64)).dtype == np.float64
        assert Tensor([1, 2, 3]).dtype == np.float32


class TestAccumulation:
    def test_reused_tensor_accumulates(self):
        x = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float64), requires_grad=True)
        with GradTape() as tape:
            loss = ad.sum_all(ad.mul(x, x))
            tape.backward(loss)
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_self_add_doubles(self):
        x = Tensor(np.array([5.0, 7.0], dtype=np.float64), requires_grad=True)
        with GradTape() as tape:
            tape.backward(ad.sum_all(ad.add(x, x)))
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_repeated_backward_adds_and_zero_grad_resets(self):
        x = Tensor(np.array([2.0], dtype=np.float64), requires_grad=True)
        for _ in range(2):
            with GradTape() as tape:
                tape.backward(ad.sum_all(ad.square(x)))
        assert np.allclose(x.grad, [8.0])
        x.zero_grad()
        assert x.grad is None

    def test_constant_inputs_get_no_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        c = Tensor(np.ones(3))
        with GradTape() as tape:
            tape.backward(ad.sum_all(ad.mul(x, c)))
        assert c.grad is None
        assert x.grad is not None


class TestTapeDiscipline:
    def test_no_recording_without_grads(self):
        with GradTape() as tape:
            ad.add(Tensor(np.ones(2)), Tensor(np.ones(2)))
        assert tape.nodes == []

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
            ad.add(a, b)
        with pytest.raises(ShapeError):
            ad.matmul(a, Tensor(np.ones((2, 2))))
        with pytest.raises(ShapeError):
            ad.add_rowvec(a, Tensor(np.ones(2)))
        with pytest.raises(ShapeError):
            ad.layer_norm(a, Tensor(np.ones(2)), Tensor(np.ones(3)))
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
            return ad.softplus(ad.add_rowvec(ad.matmul(x, w), b)).data

        assert np.array_equal(run(), run())
