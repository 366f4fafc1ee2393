import numpy as np
import pytest

from phase_surrogate import autodiff as ad
from phase_surrogate import blobio
from phase_surrogate import encoders as enc
from phase_surrogate import fusion as fus
from phase_surrogate import heads as hd
from phase_surrogate.autodiff import Tensor
from phase_surrogate.errors import (CompletenessError, ConfigurationError,
                                    ContractError, ShapeError)


def probe_sum(z, rng):
    w = Tensor(rng.normal(size=z.shape))
    return ad.sum_all(ad.mul(z, w))


class TestTemporalEncoder:
    def test_output_shapes(self):
        e = enc.TemporalEncoder(5, hidden=8, out_dim=6, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(3, 12, 5)).astype(np.float32))
        assert e.encode(x).shape == (3, 6)
        assert e.encode(Tensor(x.data[:1])).shape == (1, 6)

    def test_zero_sequence_zero_biases_gives_zero(self):
        e = enc.TemporalEncoder(4, hidden=6, out_dim=5, rng=np.random.default_rng(2))
        e.b.data[:] = 0.0
        e.b_p.data[:] = 0.0
        z = e.encode(Tensor(np.zeros((2, 10, 4), dtype=np.float32)))
        assert np.all(z.data == 0.0)

    def test_time_permutation_changes_output(self):
        rng = np.random.default_rng(3)
        e = enc.TemporalEncoder(3, hidden=8, out_dim=4, rng=rng)
        x = rng.normal(size=(1, 20, 3)).astype(np.float32)
        z1 = e.encode(Tensor(x)).data
        perm = np.random.default_rng(4).permutation(20)
        z2 = e.encode(Tensor(x[:, perm])).data
        assert not np.allclose(z1, z2)

    def test_gradcheck(self):
        rng = np.random.default_rng(5)
        e = enc.TemporalEncoder(3, hidden=4, out_dim=3, rng=rng, dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
        probe = rng.normal(size=(2, 3))

        def fn(xt, w_x, w_h, b, w_p, b_p):
            return ad.sum_all(ad.mul(e.encode(xt), Tensor(probe)))

        ad.gradcheck(fn, [x, e.w_x, e.w_h, e.b, e.w_p, e.b_p], h=1e-5, rtol=1e-4)

    def test_empty_sequence_rejected(self):
        e = enc.TemporalEncoder(3, hidden=4, out_dim=3)
        with pytest.raises(ContractError):
            e.encode(Tensor(np.zeros((1, 0, 3), dtype=np.float32)))

    def test_wrong_variable_count_rejected(self):
        e = enc.TemporalEncoder(5, hidden=4, out_dim=3)
        with pytest.raises(ShapeError):
            e.encode(Tensor(np.zeros((1, 10, 4), dtype=np.float32)))


class TestLayeredEncoder:
    def test_output_shape_for_any_field_count(self):
        for n_fields in (1, 3, 7):
            e = enc.LayeredEncoder(9, n_fields, channels=(4, 6), out_dim=5,
                                   rng=np.random.default_rng(0))
            x = Tensor(np.random.default_rng(1).normal(size=(2, 9, n_fields)).astype(np.float32))
            assert e.encode(x).shape == (2, 5)
        assert e.encode(Tensor(x.data[:1])).shape == (1, 5)

    def test_depth_reversal_changes_output(self):
        rng = np.random.default_rng(2)
        e = enc.LayeredEncoder(9, 3, channels=(4, 4), out_dim=6, rng=rng)
        x = rng.normal(size=(1, 9, 3)).astype(np.float32)
        z1 = e.encode(Tensor(x)).data
        z2 = e.encode(Tensor(x[:, ::-1].copy())).data
        assert not np.allclose(z1, z2)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        e = enc.LayeredEncoder(5, 2, channels=(3, 3), out_dim=4, rng=rng,
                               dtype=np.float64)
        x = Tensor(rng.normal(size=(2, 5, 2)), requires_grad=True)
        probe = rng.normal(size=(2, 4))

        def fn(xt, k1, b1, k2, b2, w, b):
            return ad.sum_all(ad.mul(e.encode(xt), Tensor(probe)))

        ad.gradcheck(fn, [x, e.k1, e.b1, e.k2, e.b2, e.w, e.b], h=1e-5, rtol=1e-4)

    def test_wrong_layer_count_rejected(self):
        e = enc.LayeredEncoder(9, 3)
        with pytest.raises(ShapeError):
            e.encode(Tensor(np.zeros((2, 8, 3), dtype=np.float32)))


class TestDenseEncoders:
    def test_static_shapes_and_zero_case(self):
        e = enc.StaticEncoder(8, hidden=6, out_dim=5, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(4, 8)).astype(np.float32))
        assert e.encode(x).shape == (4, 5)
        z = e.encode(Tensor(np.zeros((1, 8), dtype=np.float32)))
        assert z.shape == (1, 5)
        assert np.all(z.data == 0.0)  # zero input, zero biases

    def test_pft_flattens_and_encodes(self):
        e = enc.PftEncoder(5, 8, hidden=6, out_dim=7, rng=np.random.default_rng(2))
        x = Tensor(np.random.default_rng(3).normal(size=(3, 5, 8)).astype(np.float32))
        assert e.encode(x).shape == (3, 7)
        assert np.all(e.encode(Tensor(np.zeros((1, 5, 8), dtype=np.float32))).data == 0.0)

    def test_gradchecks(self):
        rng = np.random.default_rng(4)
        st = enc.StaticEncoder(4, hidden=5, out_dim=3, rng=rng, dtype=np.float64)
        xs = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        probe = rng.normal(size=(2, 3))

        def fn_s(x, w1, b1, w2, b2):
            return ad.sum_all(ad.mul(st.encode(x), Tensor(probe)))

        ad.gradcheck(fn_s, [xs, st.w1, st.b1, st.w2, st.b2], h=1e-5, rtol=1e-4)

        pf = enc.PftEncoder(3, 4, hidden=5, out_dim=3, rng=rng, dtype=np.float64)
        xp = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def fn_p(x, w1, b1, w2, b2):
            return ad.sum_all(ad.mul(pf.encode(x), Tensor(probe)))

        ad.gradcheck(fn_p, [xp, pf.w1, pf.b1, pf.w2, pf.b2], h=1e-5, rtol=1e-4)

    def test_dimension_mismatches_rejected(self):
        with pytest.raises(ShapeError):
            enc.StaticEncoder(8).encode(Tensor(np.zeros((2, 7), dtype=np.float32)))
        with pytest.raises(ShapeError):
            enc.PftEncoder(5, 8).encode(Tensor(np.zeros((2, 4, 8), dtype=np.float32)))

    def test_deterministic(self):
        e = enc.StaticEncoder(6, rng=np.random.default_rng(7))
        x = Tensor(np.random.default_rng(8).normal(size=(2, 6)).astype(np.float32))
        assert np.array_equal(e.encode(x).data, e.encode(x).data)


@pytest.mark.parametrize("call, sample_shape", [
    (enc.TemporalEncoder(5, hidden=4, out_dim=3).encode, (12, 5)),
    (enc.LayeredEncoder(9, 3, out_dim=3).encode, (9, 3)),
    (enc.StaticEncoder(8, out_dim=3).encode, (8,)),
    (enc.PftEncoder(5, 8, out_dim=3).encode, (5, 8)),
    (lambda x: fus.TransformerFusion(2, dim=8, heads=2).fuse([x, x]), (8,)),
    (lambda x: fus.ConcatFusion(2, dim=8).fuse([x, x]), (8,)),
    (lambda x: ad.conv1d(x, Tensor(np.zeros((3, 2, 4)))), (6, 2)),
], ids=["temporal", "layered", "static", "pft", "transformer", "concat",
        "conv1d"])
def test_unbatched_input_rejected(call, sample_shape):
    with pytest.raises(ShapeError):
        call(Tensor(np.zeros(sample_shape, dtype=np.float32)))


class TestTransformerFusion:
    def make(self, n_groups=3, dim=8, heads=2, n_layers=2, dtype=np.float32, seed=0):
        return fus.TransformerFusion(n_groups, dim=dim, heads=heads,
                                     n_layers=n_layers,
                                     rng=np.random.default_rng(seed), dtype=dtype)

    def latents(self, n_groups, batch, dim, seed=1, dtype=np.float32):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.normal(size=(batch, dim)).astype(dtype))
                for _ in range(n_groups)]

    def test_fuse_shapes(self):
        f = self.make()
        z = self.latents(3, 4, 8)
        assert f.fuse(z).shape == (4, 8)
        assert f.fuse([Tensor(t.data[:1]) for t in z]).shape == (1, 8)

    def test_attention_rows_are_probabilities(self):
        f = self.make()
        z = self.latents(3, 2, 8, seed=2)
        w = f.attention_weights(z)
        assert w.shape == (2, 2, 3, 3)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)
        assert w.min() >= 0.0

    def test_single_group_attention_is_one(self):
        f = self.make(n_groups=1)
        z = self.latents(1, 1, 8, seed=3)
        w = f.attention_weights(z)
        assert w.shape == (1, 2, 1, 1)
        np.testing.assert_array_equal(w, np.ones((1, 2, 1, 1), dtype=w.dtype))

    def test_identical_rows_give_uniform_attention(self):
        f = self.make(n_groups=4)
        f.embed.data[:] = f.embed.data[0]
        row = np.random.default_rng(4).normal(size=(1, 8)).astype(np.float32)
        z = [Tensor(row.copy()) for _ in range(4)]
        w = f.attention_weights(z)
        np.testing.assert_allclose(w, 0.25, atol=1e-6)

    def test_group_permutation_with_embeddings_preserves_pool(self):
        f = self.make(n_groups=4, dim=8, heads=2, n_layers=2, dtype=np.float64)
        z = self.latents(4, 3, 8, seed=5, dtype=np.float64)
        out = f.fuse(z).data
        perm = [2, 0, 3, 1]
        f2 = self.make(n_groups=4, dim=8, heads=2, n_layers=2, dtype=np.float64)
        for name, tensor in f.named_params().items():
            f2.named_params()[name].data[:] = tensor.data
        f2.embed.data[:] = f.embed.data[perm]
        out2 = f2.fuse([z[i] for i in perm]).data
        np.testing.assert_allclose(out2, out, atol=1e-10)

    def test_gradcheck_through_block(self):
        rng = np.random.default_rng(6)
        f = self.make(n_groups=2, dim=4, heads=2, n_layers=1, dtype=np.float64)
        z1 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        z2 = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        probe = rng.normal(size=(2, 4))
        layer = f.layers[0]

        def fn(a, b, embed, wq, wv, ff1, ln2_g):
            return ad.sum_all(ad.mul(f.fuse([a, b]), Tensor(probe)))

        ad.gradcheck(fn, [z1, z2, f.embed, layer["wq"], layer["wv"],
                          layer["ff1"], layer["ln2_g"]], h=1e-5, rtol=1e-4)

    def test_width_and_count_mismatches_rejected(self):
        f = self.make(n_groups=2)
        good = self.latents(2, 2, 8)
        with pytest.raises(ShapeError):
            f.fuse(good[:1])
        with pytest.raises(ShapeError):
            f.fuse([good[0], Tensor(np.zeros((2, 6), dtype=np.float32))])
        with pytest.raises(ShapeError):
            f.fuse([good[0], Tensor(np.zeros((3, 8), dtype=np.float32))])

    def test_width_must_divide_heads(self):
        with pytest.raises(ConfigurationError):
            fus.TransformerFusion(3, dim=6, heads=4)


class TestConcatFusion:
    def test_drop_in_signature(self):
        f = fus.ConcatFusion(3, dim=8, rng=np.random.default_rng(0))
        z = [Tensor(np.random.default_rng(i).normal(size=(2, 8)).astype(np.float32))
             for i in range(3)]
        assert f.fuse(z).shape == (2, 8)
        with pytest.raises(ContractError):
            f.attention_weights(z)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        f = fus.ConcatFusion(2, dim=3, rng=rng, dtype=np.float64)
        z1 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        z2 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        probe = rng.normal(size=(2, 3))

        def fn(a, b, w, bias):
            return ad.sum_all(ad.mul(f.fuse([a, b]), Tensor(probe)))

        ad.gradcheck(fn, [z1, z2, f.w, f.b], h=1e-5, rtol=1e-4)


class TestTaskHeads:
    def make(self, n_pft=5, n_layers=9, dim=8, seed=0):
        reg = hd.task_registry(n_pft, n_layers)
        return hd.TaskHeads(reg, in_dim=dim, hidden=6,
                            rng=np.random.default_rng(seed))

    def test_registry_shapes(self):
        h = self.make()
        z = Tensor(np.random.default_rng(1).normal(size=(3, 8)).astype(np.float32))
        out = h.predict_all(z)
        assert out["gpp"].shape == (3,)
        assert out["deadcrootc"].shape == (3, 5)
        assert out["soil4c"].shape == (3, 9)
        assert set(out) == set(hd.task_registry(5, 9))

    def test_matrix_shaped_head(self):
        reg = {"profile": {"shape": (4, 6), "nonneg": True}}
        h = hd.TaskHeads(reg, in_dim=8, hidden=5, rng=np.random.default_rng(2))
        z = Tensor(np.random.default_rng(3).normal(size=(2, 8)).astype(np.float32))
        out = h.predict(z, "profile")
        assert out.shape == (2, 4, 6)
        assert np.all(out.data > 0)

    def test_strict_positivity_on_extreme_latents(self):
        h = self.make()
        rng = np.random.default_rng(4)
        z = rng.normal(size=(1000, 8)).astype(np.float32) * 10.0
        z[:10] = 100.0
        z[10:20] = -100.0
        out = h.predict_all(Tensor(z))
        for task, pred in out.items():
            assert np.all(pred.data > 0.0), task

    def test_gradcheck_through_head(self):
        rng = np.random.default_rng(5)
        reg = {"vec": {"shape": (3,), "nonneg": True}}
        h = hd.TaskHeads(reg, in_dim=4, hidden=5, rng=rng, dtype=np.float64)
        z = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        p = h.params["vec"]
        probe = rng.normal(size=(2, 3))

        def fn(zt, w1, b1, w2, b2):
            return ad.sum_all(ad.mul(h.predict(zt, "vec"), Tensor(probe)))

        ad.gradcheck(fn, [z, p["w1"], p["b1"], p["w2"], p["b2"]], h=1e-5, rtol=1e-4)

    def test_unregistered_task_rejected(self):
        h = self.make()
        z = Tensor(np.zeros((1, 8), dtype=np.float32))
        with pytest.raises(ContractError):
            h.predict(z, "humus")

    def test_bad_latent_shape_rejected(self):
        h = self.make()
        with pytest.raises(ShapeError):
            h.predict(Tensor(np.zeros((2, 7), dtype=np.float32)), "gpp")


class TestDenormalize:
    def test_endpoints_map_to_min_and_max(self):
        stats = {"gpp": (10.0, 50.0)}
        out = hd.denormalize({"gpp": np.array([0.0, 1.0, 0.5])}, stats)
        np.testing.assert_allclose(out["gpp"], [10.0, 50.0, 30.0])

    def test_round_trip_with_normalization(self):
        from phase_surrogate import pipeline as pl
        rng = np.random.default_rng(0)
        vals = rng.uniform(5.0, 80.0, size=200)
        stats = pl.minmax_fit(vals)
        norm = pl.minmax_apply(vals, stats)
        back = hd.denormalize({"x": norm}, {"x": stats})["x"]
        assert np.abs(back - vals).max() < 1e-6 * (stats[1] - stats[0])

    def test_missing_stats_rejected(self):
        with pytest.raises(ContractError):
            hd.denormalize({"x": np.zeros(3)}, {})


class TestWriteRestartState:
    # the restart writer fed as the CLI feeds it: denormalized slow-pool
    # predictions (float64, physical units)
    def predictions(self, n, n_pft=5, n_layers=9, seed=0):
        rng = np.random.default_rng(seed)
        widths = {"deadcrootc": n_pft, "deadstemc": n_pft, "tlai": n_pft,
                  "cwdc": n_layers, "soil3c": n_layers, "soil4c": n_layers}
        norm = {name: rng.uniform(0.0, 1.0, (n, w))
                for name, w in widths.items()}
        return hd.denormalize(norm, {name: (1.0, 50.0) for name in widths})

    def test_missing_pool_rejected(self, tmp_path):
        preds = self.predictions(2)
        del preds["soil4c"]
        with pytest.raises(CompletenessError, match="soil4c"):
            blobio.write_restart(tmp_path / "y.phr", np.array([0, 1]), preds,
                                 5, 9)
