import numpy as np
import pytest

from conftest import build_toy_dataset, toy_model_config
from phase_surrogate import model as model_mod
from phase_surrogate import pipeline, simulator
from phase_surrogate.cli import main
from phase_surrogate.errors import (CompletenessError, ConfigurationError,
                                    ContractError, ShapeError)
from phase_surrogate.heads import denormalize
from phase_surrogate.model import (ModelConfig, Surrogate, active_branches,
                                   config_from_file)


def toy_batch(n=4, months=6, seed=1):
    rng = np.random.default_rng(seed)
    return {"g1": rng.uniform(0, 1, (n, months, 5)).astype(np.float32),
            "g2": rng.uniform(0, 1, (n, 8)).astype(np.float32),
            "g3": rng.uniform(0, 1, (n, 5, 3)).astype(np.float32),
            "g4": rng.uniform(0, 1, (n, 5, 5)).astype(np.float32),
            "g5": rng.uniform(0, 1, (n, 9, 3)).astype(np.float32)}


def make(variant="full", dtype=np.float32, **overrides):
    """A fresh model with :func:`fill_stats`' stats."""
    cfg = toy_model_config(variant=variant, **overrides)
    return fill_stats(Surrogate(cfg, rng=np.random.default_rng(0),
                                dtype=dtype))


def param_count(model):
    return sum(t.data.size for t in model.named_params().values())


def fill_stats(model):
    """Identity feature stats, so physical units are the network's inputs,
    and a distinct scale per task."""
    model.feature_stats = {name: [0.0, 1.0]
                           for name, _, _ in pipeline.FEATURE_CHANNELS}
    model.target_stats = {t: [0.0, float(i + 1)]
                          for i, t in enumerate(pipeline.TASKS)}
    return model


class TestModelConfig:
    def test_round_trip(self):
        cfg = toy_model_config(variant="no_cnn",
                               masked_features=("g2.nutrient",))
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_default_window_is_the_stationary_years(self):
        assert ModelConfig().window_months == 12 * simulator.STATIONARY_YEARS

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="n_blocks"):
            ModelConfig.from_dict({"n_blocks": 3})

    def test_head_divisibility(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(dim=10, heads=4)

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError, match="no_heads"):
            ModelConfig(variant="no_heads")

    def test_no_phys_refused(self, tmp_path):
        # a loss setting, reachable only through the ablation study, where
        # it also zeroes phys_weight
        with pytest.raises(ConfigurationError, match="phys_weight"):
            ModelConfig(variant="no_phys")
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"variant": "no_phys"}}')
        assert main(["train", "--data", str(tmp_path), "--config", str(path),
                     "--out", str(tmp_path / "m.phm")]) == 2

    def test_unknown_masked_feature(self):
        with pytest.raises(ConfigurationError, match="g2.magic"):
            ModelConfig(masked_features=("g2.magic",))

    def test_config_file_sections(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"dim": 32}, "train": {"lr": 0.01}}')
        mc, tc = config_from_file(str(path))
        assert mc == {"dim": 32} and tc == {"lr": 0.01}
        path.write_text('{"misc": {}}')
        with pytest.raises(ConfigurationError, match="misc"):
            config_from_file(str(path))


class TestVariantStructure:
    def test_branch_sets(self):
        assert active_branches("full") == ("temporal", "layered", "static",
                                           "pft")
        assert active_branches("no_lstm") == ("layered", "static", "pft")
        assert active_branches("no_cnn") == ("temporal", "static", "pft")
        assert active_branches("no_fc") == ("temporal", "layered")
        assert active_branches("no_trans") == active_branches("full")
        assert active_branches("baseline_mlp") == ()

    def test_removal_drops_exactly_that_component(self):
        full = make("full")
        for variant, branch in (("no_cnn", "layered"), ("no_lstm", "temporal")):
            cut = make(variant)
            removed = sum(t.data.size
                          for t in full.branches[branch].named_params().values())
            assert param_count(full) - param_count(cut) == \
                removed + full.config.dim  # branch weights plus its embed row

    def test_no_fc_drops_both_dense_branches(self):
        full = make("full")
        cut = make("no_fc")
        removed = sum(t.data.size
                      for b in ("static", "pft")
                      for t in full.branches[b].named_params().values())
        assert param_count(full) - param_count(cut) == \
            removed + 2 * full.config.dim

    def test_no_trans_has_no_attention_tensors(self):
        cut = make("no_trans")
        assert not any(".wq" in k or "embed" in k
                       for k in cut.named_params())

    def test_baseline_mlp_uses_trunk(self):
        mlp = make("baseline_mlp")
        assert mlp.fusion is None
        assert any(k.startswith("trunk.") for k in mlp.named_params())
        with pytest.raises(ContractError):
            mlp.attention_weights(toy_batch())

    def test_baseline_pinn_adds_delta_heads(self):
        pinn = make("baseline_pinn")
        names = pinn.named_params()
        assert any(k.startswith("delta.soil3c") for k in names)
        preds, z = pinn.forward(toy_batch())
        deltas = pinn.delta_forward(z)
        assert set(deltas) == set(pipeline.SLOW_TASKS)
        assert deltas["soil3c"].data.shape == (4, 9)
        stacked = np.concatenate([deltas[t].data.ravel() for t in deltas])
        assert (stacked < 0).any()  # deltas are unconstrained in sign

    def test_delta_forward_rejected_elsewhere(self):
        full = make("full")
        _, z = full.forward(toy_batch())
        with pytest.raises(ContractError):
            full.delta_forward(z)


class TestForward:
    def test_prediction_shapes(self):
        model = make("full")
        preds, z = model.forward(toy_batch(n=3))
        assert z.data.shape == (3, 16)
        assert preds["gpp"].data.shape == (3,)
        assert preds["tlai"].data.shape == (3, 5)
        assert preds["cwdc"].data.shape == (3, 9)

    def test_every_variant_forward(self):
        batch = toy_batch()
        for variant in ("full", "no_cnn", "no_fc", "no_lstm", "no_trans",
                        "baseline_mlp", "baseline_pinn"):
            preds, _ = make(variant).forward(batch)
            assert preds["soil4c"].data.shape == (4, 9), variant

    def test_missing_group_rejected(self):
        batch = toy_batch()
        del batch["g3"]
        with pytest.raises(ContractError, match="g3"):
            make("full").forward(batch)
        with pytest.raises(ContractError, match="g3"):
            make("full").predict(batch)

    def test_other_window_rejected(self):
        # the LSTM would run over any length, so the model itself refuses a
        # g1 that is not the window it was trained on
        model = make("full")
        for months in (5, 12):
            batch = toy_batch(months=months)
            for call in (model.forward, model.predict, model.attention_weights):
                with pytest.raises(ShapeError, match=f"{months} months.*reads 6"):
                    call(batch)

    def test_attention_shape(self):
        model = make("full")
        w = model.attention_weights(toy_batch(n=2))
        assert w.shape == (2, 2, 4, 4)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-6)

    def test_predict_chunks_match_forward(self, monkeypatch):
        # 7 rows in chunks of 3 cross two chunk boundaries
        monkeypatch.setattr(model_mod, "PREDICT_ROWS", 3)
        model = make("full")
        batch = toy_batch(n=7)
        whole, z = model.forward(batch)
        preds, latent = model.predict(batch)
        assert set(preds) == set(whole)
        for t in pipeline.TASKS:
            assert preds[t].shape == whole[t].shape
            np.testing.assert_allclose(preds[t], whole[t].data,
                                       rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(latent, z.data, rtol=1e-5, atol=1e-6)

    def test_predict_applies_feature_stats(self):
        # physical units in; the network sees them in its own MinMax space
        model = make("full")
        batch = toy_batch()
        whole, z = model.forward(batch)
        attention = model.attention_weights(batch)
        model.feature_stats = {name: [-1.0, 3.0]
                               for name in model.feature_stats}
        physical = {g: 4.0 * a - 1.0 for g, a in batch.items()}
        preds, latent = model.predict(physical)
        np.testing.assert_allclose(preds["soil3c"], whole["soil3c"].data,
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(latent, z.data, rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(model.attention_weights(physical),
                                   attention, rtol=1e-5, atol=1e-6)

    def test_predict_needs_feature_stats(self):
        model = make("full")
        model.feature_stats = None
        with pytest.raises(ContractError, match="normalization stats"):
            model.forward(toy_batch())
        with pytest.raises(ContractError, match="normalization stats"):
            model.predict(toy_batch())
        with pytest.raises(ContractError, match="normalization stats"):
            model.attention_weights(toy_batch())

    def test_deterministic(self):
        model = make("full")
        batch = toy_batch()
        a, _ = model.forward(batch)
        b, _ = model.forward(batch)
        for t in pipeline.TASKS:
            np.testing.assert_array_equal(a[t].data, b[t].data)


class TestFeatureMasking:
    def test_masked_channel_ignored(self):
        masked = make("full", masked_features=("g2.nutrient",))
        plain = make("full")
        for name, tensor in masked.named_params().items():
            plain.named_params()[name].data[:] = tensor.data
        batch = toy_batch()
        zeroed = dict(batch)
        idx = pipeline.G2_FIELDS.index("nutrient")
        zeroed["g2"] = batch["g2"].copy()
        zeroed["g2"][:, idx] = 0.0
        a, _ = masked.forward(batch)
        b, _ = plain.forward(zeroed)
        for t in pipeline.TASKS:
            np.testing.assert_array_equal(a[t].data, b[t].data)

    def test_input_not_mutated(self):
        model = make("full", masked_features=("g4.tlai", "g2.nutrient"))
        batch = toy_batch()
        keep = {g: batch[g].copy() for g in batch}
        model.forward(batch)
        for g in batch:
            np.testing.assert_array_equal(batch[g], keep[g])


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = make("full")
        path = str(tmp_path / "m.phm")
        model.save(path)
        again = Surrogate.load(path)
        batch = toy_batch()
        a, _ = model.forward(batch)
        b, _ = again.forward(batch)
        for t in pipeline.TASKS:
            np.testing.assert_array_equal(a[t].data, b[t].data)
        assert again.target_stats == model.target_stats
        assert again.feature_stats == model.feature_stats

    def test_float64_model_reloads_in_float64(self, tmp_path):
        model = make("full", dtype=np.float64)
        path = str(tmp_path / "m.phm")
        model.save(path)
        again = Surrogate.load(path)
        assert again.dtype == np.float64
        assert {t.data.dtype for t in again.named_params().values()} == {
            np.dtype(np.float64)}
        batch = toy_batch(n=5)
        a, za = model.predict(batch)
        b, zb = again.predict(batch)
        for t in pipeline.TASKS:
            assert b[t].dtype == np.float64
            np.testing.assert_array_equal(b[t], a[t])
        np.testing.assert_array_equal(zb, za)

    def test_save_is_byte_stable(self, tmp_path):
        model = make("no_trans")
        p1, p2 = tmp_path / "a.phm", tmp_path / "b.phm"
        model.save(str(p1))
        model.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_format_rejected(self, tmp_path):
        from phase_surrogate import blobio
        path = str(tmp_path / "x.phm")
        blobio.write_model_file(path, {"format": "world", "params": []}, {})
        with pytest.raises(ContractError, match="world"):
            Surrogate.load(path)

    def test_predict_denormalizes(self):
        model = make("full")
        batch = toy_batch()
        preds, _ = model.forward(batch)
        phys = denormalize(model.predict(batch)[0], model.target_stats)
        scale = model.target_stats["ar"][1]
        np.testing.assert_allclose(phys["ar"],
                                   preds["ar"].data.astype(np.float64) * scale,
                                   rtol=1e-6)

    def test_clone_is_independent(self):
        model = make("full")
        twin = model.clone()
        batch = toy_batch()
        a, _ = model.forward(batch)
        twin.named_params()["heads.gpp.w2"].data[:] += 1.0
        b, _ = model.forward(batch)
        np.testing.assert_array_equal(a["gpp"].data, b["gpp"].data)
