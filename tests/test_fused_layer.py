"""The fused attention fusion: ``autodiff.transformer_layer`` (one tape
node per block) and ``autodiff.norm_pool`` (the final norm and mean-pool)
against the per-op composition they replaced, which is built here from
``reference_ops``."""

import tracemalloc

import numpy as np
import pytest

from phase_surrogate import autodiff as ad
from phase_surrogate import fusion as fus
from phase_surrogate.autodiff import GradTape, Tensor
from phase_surrogate.errors import ShapeError

import reference_ops as ref


def reference_encode(f, z_list):
    """``f.fuse(z_list)`` and ``f.attention_weights(z_list)`` as the per-op
    layers the fused nodes replaced: layer norm, dense projections, head
    split by reshape and transpose, scaled scores, softmax over the last
    axis, residual adds, then the final layer norm and mean-pool."""
    x = ad.stack(z_list, axis=1)
    batch, n = x.shape[0], x.shape[1]
    dh = f.dim // f.heads
    x = ref.add_leading(x, f.embed)

    def split(t):
        t = ref.transpose(ad.reshape(t, (batch, n, f.heads, dh)), (0, 2, 1, 3))
        return ad.reshape(t, (batch * f.heads, n, dh))

    def merge(t):
        t = ref.transpose(ad.reshape(t, (batch, f.heads, n, dh)), (0, 2, 1, 3))
        return ad.reshape(t, (batch, n, f.dim))

    weights = []
    for layer in f.layers:
        normed = ref.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
        q, k, v = (split(ad.dense(normed, layer[w])) for w in ("wq", "wk", "wv"))
        scores = ref.mul_scalar(ref.matmul(q, ref.transpose(k, (0, 2, 1))),
                                1.0 / np.sqrt(dh))
        attn = ref.softmax(scores, axis=-1)
        weights.append(attn.data.reshape(batch, f.heads, n, n))
        x = ref.add(x, ad.dense(merge(ref.matmul(attn, v)), layer["wo"]))
        normed = ref.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
        hidden = ad.dense(normed, layer["ff1"], layer["ff1_b"], relu=True)
        x = ref.add(x, ad.dense(hidden, layer["ff2"], layer["ff2_b"]))
    pooled = ref.mean_axis(ref.layer_norm(x, f.ln_f_g, f.ln_f_b), 1)
    return pooled, weights[0]


def make(n_groups, dim, heads, n_layers, ff_mult, batch, dtype, seed):
    """A fusion whose gains and biases sit off 1 and 0, so every term of
    the gradients shows, and its group latents."""
    rng = np.random.default_rng(seed)
    f = fus.TransformerFusion(n_groups, dim=dim, heads=heads,
                              n_layers=n_layers, ff_mult=ff_mult, rng=rng,
                              dtype=dtype)
    for t in f.named_params().values():
        t.data = t.data + (0.1 * rng.standard_normal(t.shape)).astype(dtype)
    z = [Tensor(rng.standard_normal((batch, dim)).astype(dtype),
                requires_grad=True) for _ in range(n_groups)]
    return f, z


class TestAgainstPerOpComposition:
    def test_central_differences_through_fuse(self):
        """float64: every parameter of two blocks and the final norm, and
        every group latent."""
        f, z = make(3, 8, 2, 2, 2, batch=3, dtype=np.float64, seed=0)
        probe = Tensor(np.random.default_rng(1).standard_normal((3, 8)))
        params = list(f.named_params().values())

        def fn(*tensors):
            return ref.sum_all(ref.mul(f.fuse(list(tensors[:3])), probe))

        ref.gradcheck(fn, z + params, h=1e-5, rtol=1e-4)

    def test_float32_training_batch_agrees(self):
        """The default widths at a 256-row batch: outputs, every gradient
        and the first layer's attention weights to 1e-5 of their scale."""
        f, z = make(4, 64, 4, 2, 4, batch=256, dtype=np.float32, seed=2)
        probe = Tensor(np.random.default_rng(3).standard_normal(
            (256, 64)).astype(np.float32))
        params = list(f.named_params().values()) + z
        results = []
        for encode in (lambda zs: f.fuse(zs), lambda zs: reference_encode(f, zs)[0]):
            for t in params:
                t.zero_grad()
            with GradTape() as tape:
                out = encode(z)
                tape.backward(ref.sum_all(ref.mul(out, probe)))
            assert out.data.dtype == np.float32
            results.append([out.data] + [t.grad for t in params])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()
        got, want = f.attention_weights(z), reference_encode(f, z)[1]
        assert got.shape == want.shape == (256, 4, 4, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)

    def test_default_fusion_records_five_nodes(self):
        """The stack, the embedding add, one node per block and the pool."""
        f, z = make(4, 64, 4, 2, 4, batch=8, dtype=np.float32, seed=4)
        with GradTape() as tape:
            f.fuse(z)
        assert len(tape.nodes) == 5


class TestForwardOnly:
    def test_keeps_no_caches(self):
        """A call outside a tape keeps its output and its weights, where a
        recorded one keeps at least the 1 MB ReLU layer besides."""
        f, _ = make(4, 64, 4, 1, 4, batch=1, dtype=np.float32, seed=5)
        x = Tensor(np.random.default_rng(6).standard_normal(
            (256, 4, 64)).astype(np.float32), requires_grad=True)
        kept = []
        for record in (False, True):
            tracemalloc.start()
            try:
                if record:
                    with GradTape():
                        out, weights = ad.transformer_layer(
                            x, heads=4, **f.layers[0])
                else:
                    out, weights = ad.transformer_layer(x, heads=4, **f.layers[0])
                kept.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
        owned = out.data.nbytes + weights.base.nbytes
        assert kept[0] < owned + 16e3
        assert kept[1] > owned + 256 * 4 * 256 * 4

    def test_weights_are_probabilities_per_query(self):
        f, z = make(3, 8, 2, 1, 2, batch=5, dtype=np.float32, seed=7)
        w = f.attention_weights(z)
        assert w.shape == (5, 2, 3, 3)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)


class TestShapes:
    def layer(self):
        return make(2, 8, 2, 1, 2, batch=1, dtype=np.float32, seed=8)[0].layers[0]

    def test_input_must_be_tokens(self):
        with pytest.raises(ShapeError, match=r"\[B, n, d\]"):
            ad.transformer_layer(Tensor(np.zeros((3, 8), np.float32)), heads=2,
                                 **self.layer())

    def test_width_must_divide_into_heads(self):
        with pytest.raises(ShapeError, match="3 heads"):
            ad.transformer_layer(Tensor(np.zeros((1, 2, 8), np.float32)),
                                 heads=3, **self.layer())

    def test_parameters_must_fit_the_width(self):
        layer = self.layer()
        layer["ff2_b"] = Tensor(np.zeros(7, np.float32))
        with pytest.raises(ShapeError, match="width 8"):
            ad.transformer_layer(Tensor(np.zeros((1, 2, 8), np.float32)),
                                 heads=2, **layer)

    def test_pool_gain_must_fit_the_width(self):
        with pytest.raises(ShapeError, match=r"\(8,\)"):
            ad.norm_pool(Tensor(np.zeros((1, 2, 8), np.float32)),
                         Tensor(np.ones(6, np.float32)),
                         Tensor(np.zeros(8, np.float32)))
