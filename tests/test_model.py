import dataclasses
import json

import numpy as np
import pytest

from conftest import TOY_DIMS, build_toy_dataset, toy_model_config, with_guard
from phase_surrogate import metrics, pipeline, simulator
from phase_surrogate import model as model_mod
from phase_surrogate.cli import main
from phase_surrogate.errors import (CompletenessError, ConfigurationError,
                                    ContractError, ShapeError)
from phase_surrogate.model import (ModelConfig, Surrogate, active_branches,
                                   config_from_file)


def toy_batch(n=4, months=12, seed=1):
    rng = np.random.default_rng(seed)
    return {"g1": rng.uniform(0, 1, (n, months, 5)).astype(np.float32),
            "g2": rng.uniform(0, 1, (n, 8)).astype(np.float32),
            "g3": rng.uniform(0, 1, (n, 5, 3)).astype(np.float32),
            "g4": rng.uniform(0, 1, (n, 5, 5)).astype(np.float32),
            "g5": rng.uniform(0, 1, (n, 9, 3)).astype(np.float32),
            "prior": rng.uniform(-0.5, 0.5, (n, 3))}


def make(variant="full", dtype=np.float32):
    """A fresh toy-dims model, with :func:`fill_stats`' stats and a random
    head output layer, as a trained model has it: an untrained head
    predicts a residual of 0."""
    model = fill_stats(Surrogate(toy_model_config(variant=variant), TOY_DIMS,
                                 rng=np.random.default_rng(0), dtype=dtype))
    rng = np.random.default_rng(1)
    for name, tensor in model.named_params().items():
        if name == "heads.w2":
            tensor.data = rng.normal(0.0, 0.3, tensor.data.shape).astype(dtype)
    return model


def param_count(model):
    return sum(t.data.size for t in model.named_params().values())


def fill_stats(model):
    """Identity feature stats, so physical units are the network's inputs."""
    model.feature_stats = {name: [0.0, 1.0]
                           for name, _, _ in pipeline.FEATURE_CHANNELS}
    return model


class TestModelConfig:
    def test_round_trip(self):
        # through JSON, as a model file stores it: channels come back a list
        cfg = toy_model_config(variant="no_cnn")
        again = ModelConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    @pytest.mark.parametrize("field,value", [
        ("dim", "64"), ("dim", 64.0), ("dim", True), ("channels", 5),
        ("channels", [16, 32.0]), ("variant", None)])
    def test_value_of_another_type_refused(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ModelConfig(**{field: value})

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
        # there is no flux penalty to turn off: the fluxes are a closed form;
        # and no delta heads to add: in log-ratio space they would fit the
        # same target as the pool heads
        path = tmp_path / "cfg.json"
        for variant in ("no_phys", "baseline_pinn"):
            with pytest.raises(ConfigurationError, match="unknown variant"):
                ModelConfig(variant=variant)
            path.write_text(f'{{"model": {{"variant": "{variant}"}}}}')
            assert main(["train", "--data", str(tmp_path), "--config",
                         str(path), "--out", str(tmp_path / "m.phm")]) == 2

    def test_config_file_sections(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"model": {"dim": 32}, "train": {"lr": 0.01}}')
        mc, tc = config_from_file(str(path))
        assert mc == {"dim": 32} and tc == {"lr": 0.01}
        path.write_text('{"misc": {}}')
        with pytest.raises(ConfigurationError, match="misc"):
            config_from_file(str(path))


class TestDims:
    """A model takes its shapes from the dims of its data."""

    @pytest.mark.parametrize("dims", [
        None, [5, 9], {"n_pft": 5}, dict(TOY_DIMS, months=60),
        dict(TOY_DIMS, depth=2), dict(TOY_DIMS, n_pft=0),
        dict(TOY_DIMS, n_layers=9.0), dict(TOY_DIMS, n_layers=True)])
    def test_malformed_dims_refused(self, dims):
        with pytest.raises(ContractError, match="dims must give n_pft, n_layers"):
            Surrogate(toy_model_config(), dims)

    def test_shapes_follow_the_dims(self):
        dims = {"n_pft": 3, "n_layers": 4}
        model = fill_stats(Surrogate(toy_model_config(), dims))
        batch = toy_batch(n=2)
        batch["g3"], batch["g4"] = batch["g3"][:, :3], batch["g4"][:, :3]
        batch["g5"] = batch["g5"][:, :4]
        preds, _ = model.predict(batch)
        assert {t: p.shape for t, p in preds.items()} == {
            **{t: (2, 3) for t in ("deadcrootc", "deadstemc", "tlai")},
            **{t: (2, 4) for t in ("cwdc", "soil3c", "soil4c")},
            **{t: (2,) for t in pipeline.FLUX_TASKS}}
        assert model.dims == dims


class TestVariantStructure:
    def test_branch_sets(self):
        assert active_branches("full") == ("temporal", "layered", "static",
                                           "pft")
        assert active_branches("no_lstm") == ("layered", "static", "pft")
        assert active_branches("no_cnn") == ("temporal", "static", "pft")
        assert active_branches("no_fc") == ("temporal", "layered")
        assert active_branches("no_trans") == active_branches("full")
        assert active_branches("baseline_mlp") == ("trunk",)

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

    def test_parameter_layout_of_every_variant(self):
        # the names and shapes a model file stores at the default config; a
        # change here needs a MODEL_VERSION bump
        temporal = {"temporal.w_x": (5, 256), "temporal.w_h": (64, 256),
                    "temporal.b": (256,), "temporal.w_p": (64, 64),
                    "temporal.b_p": (64,)}
        layered = {"layered.k1": (3, 3, 16), "layered.b1": (16,),
                   "layered.k2": (3, 16, 32), "layered.b2": (32,),
                   "layered.w": (288, 64), "layered.b": (64,)}
        static = {"static.w1": (8, 64), "static.b1": (64,),
                  "static.w2": (64, 64), "static.b2": (64,)}
        pft = {"pft.w1": (40, 64), "pft.b1": (64,), "pft.w2": (64, 64),
               "pft.b2": (64,)}
        head = {"heads.w1": (64, 64), "heads.b1": (64,), "heads.w2": (64, 3),
                "heads.b2": (3,)}
        trunk = {"trunk.w1": (135, 64), "trunk.b1": (64,),
                 "trunk.w2": (64, 64), "trunk.b2": (64,),
                 "trunk.w3": (64, 64), "trunk.b3": (64,)}
        block = {"wq": (64, 64), "wk": (64, 64), "wv": (64, 64),
                 "wo": (64, 64), "ln1_g": (64,), "ln1_b": (64,),
                 "ln2_g": (64,), "ln2_b": (64,), "ff1": (64, 256),
                 "ff1_b": (256,), "ff2": (256, 64), "ff2_b": (64,)}

        def attention(n_branches):
            return {"fusion.embed": (n_branches, 64), "fusion.ln_f_g": (64,),
                    "fusion.ln_f_b": (64,),
                    **{f"fusion.layer{i}.{k}": v for i in (0, 1)
                       for k, v in block.items()}}

        want = {
            "full": {**temporal, **layered, **static, **pft, **attention(4)},
            "no_cnn": {**temporal, **static, **pft, **attention(3)},
            "no_fc": {**temporal, **layered, **attention(2)},
            "no_lstm": {**layered, **static, **pft, **attention(3)},
            "no_trans": {**temporal, **layered, **static, **pft,
                         "fusion.w": (256, 64), "fusion.b": (64,)},
            "baseline_mlp": trunk,
        }
        assert set(want) == set(model_mod.VARIANTS)
        for variant, layout in want.items():
            model = Surrogate(ModelConfig(variant=variant), TOY_DIMS)
            have = sorted((k, t.shape) for k, t in model.named_params().items())
            assert have == sorted({**layout, **head}.items()), variant

    def test_baseline_mlp_uses_trunk(self):
        mlp = make("baseline_mlp")
        assert mlp.fusion is None
        assert any(k.startswith("trunk.") for k in mlp.named_params())
        with pytest.raises(ContractError):
            mlp.attention_weights(toy_batch())


class TestForward:
    def test_prediction_shapes(self):
        model = make("full")
        residual, z = model.forward(toy_batch(n=3))
        assert z.data.shape == (3, 16)
        assert residual.data.shape == (3, len(pipeline.PRIOR_GROUPS))
        preds = model.predict(toy_batch(n=3))[0]
        assert preds["tlai"].shape == (3, 5)
        assert preds["cwdc"].shape == (3, 9)
        assert preds["gpp"].shape == (3,)

    def test_every_variant_forward(self):
        batch = toy_batch()
        for variant in model_mod.VARIANTS:
            residual, _ = make(variant).forward(batch)
            assert residual.data.shape == (4, 3), variant

    def test_missing_group_rejected(self):
        batch = toy_batch()
        del batch["g3"]
        with pytest.raises(ContractError, match="g3"):
            make("full").forward(batch)
        with pytest.raises(ContractError, match="g3"):
            make("full").predict(batch)

    def test_other_window_rejected(self):
        # the LSTM would run over any length, so the model itself refuses a
        # g1 that is not an annual cycle
        model = make("full")
        for months in (6, 24):
            batch = toy_batch(months=months)
            for call in (model.forward, model.predict, model.attention_weights):
                with pytest.raises(ShapeError, match=rf"g1 must be \[batch, 12, "
                                                     rf"vars\], got shape \(4, {months}, 5\)"):
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
        assert set(preds) == set(pipeline.TASKS)
        pools = model_mod.pools_from(batch, whole.data)
        for t in pipeline.SLOW_TASKS:
            assert preds[t].shape == pools[t].shape
            np.testing.assert_allclose(preds[t], pools[t], rtol=1e-5)
        fluxes = model_mod._fluxes(batch)
        for t in pipeline.FLUX_TASKS:
            np.testing.assert_array_equal(preds[t], fluxes[t])
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
        physical["prior"] = batch["prior"]  # not a network input
        preds, latent = model.predict(physical)
        np.testing.assert_allclose(
            preds["soil3c"], model_mod.pools_from(physical, whole.data)["soil3c"],
            rtol=1e-5)
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

    def test_input_not_mutated(self):
        model = make("full")
        batch = toy_batch()
        keep = {g: batch[g].copy() for g in batch}
        model.forward(batch)
        model.predict(batch)
        for g in batch:
            np.testing.assert_array_equal(batch[g], keep[g])

    def test_deterministic(self):
        model = make("full")
        batch = toy_batch()
        a, _ = model.forward(batch)
        b, _ = model.forward(batch)
        np.testing.assert_array_equal(a.data, b.data)


class TestForcingFold:
    """The network reads g1, a sample's mean annual forcing cycle, as 12
    steps; ``simulator.export_samples`` folds the forcing."""

    @pytest.mark.parametrize("variant", ["full", "baseline_mlp"])
    def test_year_order_does_not_matter(self, coarse_world, variant):
        # the prior is held fixed: only what the network reads of the
        # forcing is compared, equal up to the rounding of the fold's sum
        world = coarse_world
        window = 12 * simulator.STATIONARY_YEARS
        years = world.forcing_monthly[:, -window:].reshape(
            world.n_cells, simulator.STATIONARY_YEARS, 12, -1)
        forcing = world.forcing_monthly.copy()
        forcing[:, -window:] = years[:, [3, 0, 4, 2, 1]].reshape(
            world.n_cells, window, -1)
        groups = simulator.export_samples(world).groups
        shuffled = dict(groups, g1=simulator.export_samples(
            dataclasses.replace(world, forcing_monthly=forcing)).groups["g1"])
        model = Surrogate(toy_model_config(variant=variant),
                          pipeline.group_dims(groups),
                          rng=np.random.default_rng(0))
        model.feature_stats = {
            name: list(pipeline.minmax_fit(groups[g][..., i]))
            for name, g, i in pipeline.FEATURE_CHANNELS}
        head = model.named_params()["heads.w2"]
        head.data = np.random.default_rng(1).normal(
            0.0, 0.3, head.data.shape).astype(head.data.dtype)
        a, za = model.predict(groups)
        b, zb = model.predict(shuffled)
        for t in pipeline.TASKS:
            np.testing.assert_allclose(b[t], a[t], rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(zb, za, rtol=1e-5, atol=1e-6)

    def test_recurrence_runs_twelve_steps(self, monkeypatch):
        from phase_surrogate import autodiff
        shapes = []
        lstm = autodiff.lstm_sequence

        def spy(x, *args):
            shapes.append(x.shape)
            return lstm(x, *args)

        monkeypatch.setattr(autodiff, "lstm_sequence", spy)
        make("full").predict(toy_batch(n=3))
        assert shapes == [(3, 12, 5)]

    def test_dense_baseline_reads_one_year_of_forcing(self):
        trunk = make("baseline_mlp").branches["trunk"]
        assert trunk.in_shape == (12 * 5 + 8 + 5 * (3 + 5) + 9 * 3,)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = with_guard(make("full"))
        path = str(tmp_path / "m.phm")
        model.save(path)
        again = Surrogate.load(path)
        batch = toy_batch()
        a, _ = model.forward(batch)
        b, _ = again.forward(batch)
        np.testing.assert_array_equal(a.data, b.data)
        assert again.feature_stats == model.feature_stats
        assert again.dims == model.dims

    def test_float64_model_reloads_in_float64(self, tmp_path):
        model = with_guard(make("full", dtype=np.float64))
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
        model = with_guard(make("no_trans"))
        p1, p2 = tmp_path / "a.phm", tmp_path / "b.phm"
        model.save(str(p1))
        model.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_without_guard_not_saved(self, tmp_path):
        path = tmp_path / "m.phm"
        with pytest.raises(ContractError, match="OOD guard"):
            make("full").save(str(path))
        assert not path.exists()

    def test_wrong_format_rejected(self, tmp_path):
        from phase_surrogate import blobio
        path = str(tmp_path / "x.phm")
        blobio.write_model_file(path, {"format": "world", "params": []}, {})
        with pytest.raises(ContractError, match="world"):
            Surrogate.load(path)

    def test_predict_denormalizes(self):
        # each group's prior and residual map back onto its own tasks'
        # observed pools: tlai is g4's last field and the fast group,
        # deadstemc g4's fourth and wood, soil3c g5's middle one and slow
        model = make("full")
        batch = toy_batch()
        out, _ = model.forward(batch)
        preds, _ = model.predict(batch)
        log_factor = batch["prior"] + out.data.astype(np.float64)
        for t, obs, group in (("tlai", batch["g4"][..., 4], 0),
                              ("deadstemc", batch["g4"][..., 3], 1),
                              ("soil3c", batch["g5"][..., 1], 2)):
            assert preds[t].dtype == np.float64
            np.testing.assert_allclose(
                preds[t], obs * np.exp(log_factor[:, group, None]), rtol=1e-12)

    def test_version_4_file_refused(self, tmp_path):
        # a version-4 model's heads predict MinMax-scaled pools
        from phase_surrogate import blobio
        path = str(tmp_path / "old.phm")
        model = with_guard(make("full"))
        model.save(path)
        manifest, arrays = blobio.read_model_file(path)
        blobio.write_model_file(path, dict(manifest, version=4), arrays)
        with pytest.raises(ContractError, match="model file version 4"):
            Surrogate.load(path)

    def test_version_5_file_refused(self, tmp_path):
        # a version-5 model has a head per slow task, predicting a log
        # ratio per pool element
        from phase_surrogate import blobio
        path = str(tmp_path / "old.phm")
        model = with_guard(make("full"))
        model.save(path)
        manifest, arrays = blobio.read_model_file(path)
        blobio.write_model_file(path, dict(manifest, version=5), arrays)
        with pytest.raises(ContractError, match="model file version 5; this "
                                                "version reads 7: retrain it"):
            Surrogate.load(path)

    def test_version_6_file_refused(self, tmp_path):
        # a version-6 model kept its forcing window in its dims and folded
        # g1 into its annual cycle itself
        from phase_surrogate import blobio
        path = str(tmp_path / "old.phm")
        with_guard(make("full")).save(path)
        manifest, arrays = blobio.read_model_file(path)
        blobio.write_model_file(path, dict(manifest, version=6, dims=dict(
            manifest["dims"], months=60)), arrays)
        with pytest.raises(ContractError, match="model file version 6; this version "
                                                "reads 7: retrain it with train"):
            Surrogate.load(path)

    @pytest.mark.parametrize("variant", model_mod.VARIANTS)
    def test_load_and_clone_predict_as_the_source_without_drawing(
            self, variant, tmp_path, monkeypatch):
        # every weight comes from the file or the source model, so building
        # the network to hold them draws nothing
        model = with_guard(make(variant))
        path = str(tmp_path / "m.phm")
        model.save(path)

        def no_draws(*args, **kwargs):
            raise AssertionError("weights drawn for a loaded or cloned model")

        for name in ("default_rng", "Generator", "RandomState"):
            monkeypatch.setattr(np.random, name, no_draws)
        copies = (Surrogate.load(path), model.clone())
        monkeypatch.undo()
        batch = toy_batch(n=5)
        want, want_z = model.predict(batch)
        for twin in copies:
            got, z = twin.predict(batch)
            for t in pipeline.TASKS:
                np.testing.assert_array_equal(got[t], want[t])
            np.testing.assert_array_equal(z, want_z)

    def test_clone_is_independent(self):
        model = make("full")
        twin = model.clone()
        batch = toy_batch()
        a, _ = model.forward(batch)
        twin.named_params()["heads.w2"].data[:] += 1.0
        b, _ = model.forward(batch)
        np.testing.assert_array_equal(a.data, b.data)

    def test_clone_leaves_the_guard_behind(self):
        # a guard holds only for the weights it was fitted to, and a clone
        # is made to be fitted again
        assert with_guard(make("full")).clone().ood_stats is None


@pytest.fixture(scope="module")
def coarse_world():
    return simulator.generate_world(0, simulator.grid_spec("coarse"))


@pytest.fixture(scope="module")
def coarse_samples(coarse_world):
    return simulator.export_samples(coarse_world)


class TestClosedFormFluxes:
    """The fluxes are the simulator's closed form of each sample's own
    forcing and parameters, so they hold whatever the weights."""

    def test_no_flux_heads(self):
        # one head, one output per turnover group
        for variant in model_mod.VARIANTS:
            model = make(variant)
            assert model.heads.params["b2"].data.shape == (len(pipeline.PRIOR_GROUPS),)
            assert not any(".gpp." in name or ".ar." in name
                           or ".npp." in name for name in model.named_params())

    @pytest.mark.parametrize("variant", model_mod.VARIANTS)
    def test_untrained_model_meets_the_equilibrium_fluxes(
            self, coarse_samples, variant):
        groups = coarse_samples.groups
        model = Surrogate(toy_model_config(variant=variant),
                          pipeline.group_dims(groups))
        model.feature_stats = {
            name: list(pipeline.minmax_fit(groups[g][..., i]))
            for name, g, i in pipeline.FEATURE_CHANNELS}
        preds, _ = model.predict(groups)
        for t in pipeline.FLUX_TASKS:
            assert metrics.r2(preds[t], coarse_samples.targets[t]) >= 0.999, t
        gap = np.abs(preds["npp"] - (preds["gpp"] - preds["ar"]))
        assert np.all(gap <= 1e-12 * preds["gpp"])


class TestLogRatios:
    """The head predicts one residual per turnover group to the sample's
    prior, the log factor from its observed window-end pools to u/k, so the
    model starts from the prior."""

    @staticmethod
    def untrained_predictions(groups, variant):
        model = Surrogate(toy_model_config(variant=variant),
                          pipeline.group_dims(groups))
        model.feature_stats = {
            name: list(pipeline.minmax_fit(groups[g][..., i]))
            for name, g, i in pipeline.FEATURE_CHANNELS}
        return model.predict(groups)[0]

    @pytest.mark.parametrize("variant", model_mod.VARIANTS)
    def test_untrained_model_predicts_the_observed_pools(
            self, coarse_samples, variant):
        # with a prior of 0 the model starts from persistence
        groups = dict(coarse_samples.groups,
                      prior=np.zeros_like(coarse_samples.groups["prior"]))
        preds = self.untrained_predictions(groups, variant)
        for t, (g, i) in model_mod.OBSERVED.items():
            np.testing.assert_array_equal(preds[t], groups[g][..., i])

    @pytest.mark.parametrize("variant", model_mod.VARIANTS)
    def test_untrained_model_predicts_the_prior(self, coarse_samples, variant):
        groups = coarse_samples.groups
        preds = self.untrained_predictions(groups, variant)
        for group, tasks in enumerate(pipeline.PRIOR_GROUPS):
            for t in tasks:
                g, i = model_mod.OBSERVED[t]
                np.testing.assert_array_equal(
                    preds[t], groups[g][..., i] * np.exp(groups["prior"][:, group, None]))

    def test_observed_fields(self):
        assert model_mod.OBSERVED == {
            "deadcrootc": ("g4", 2), "deadstemc": ("g4", 3), "tlai": ("g4", 4),
            "cwdc": ("g5", 0), "soil3c": ("g5", 1), "soil4c": ("g5", 2)}

    def test_round_trip(self, coarse_samples):
        # pools one factor per group away from the observed ones come back
        # from the residuals they give
        groups = coarse_samples.groups
        obs = model_mod.observed(groups)
        factor = np.exp(np.random.default_rng(3).normal(size=(len(obs["tlai"]), 3)))
        pools = {t: obs[t] * factor[:, model_mod.GROUP_OF[t], None]
                 for t in pipeline.SLOW_TASKS}
        residual = model_mod.residual_targets(groups, pools)
        assert residual.dtype == np.float64 and residual.shape == factor.shape
        back = model_mod.pools_from(groups, residual)
        for t in pipeline.SLOW_TASKS:
            np.testing.assert_allclose(back[t], pools[t], rtol=1e-13)

    def test_residual_is_the_group_mean_log_ratio_less_the_prior(self):
        batch = toy_batch(n=6)
        rng = np.random.default_rng(5)
        pools = {t: rng.uniform(0.5, 2.0, batch[g][..., i].shape)
                 for t, (g, i) in model_mod.OBSERVED.items()}
        ratio = {t: np.log(pools[t] / batch[g][..., i].astype(np.float64))
                 for t, (g, i) in model_mod.OBSERVED.items()}
        want = np.stack([ratio["tlai"].mean(axis=1),
                         np.concatenate([ratio["deadcrootc"], ratio["deadstemc"],
                                         ratio["cwdc"]], axis=1).mean(axis=1),
                         np.concatenate([ratio["soil3c"], ratio["soil4c"]],
                                        axis=1).mean(axis=1)], axis=1)
        np.testing.assert_allclose(model_mod.residual_targets(batch, pools),
                                   want - batch["prior"], rtol=1e-12, atol=1e-15)

    def test_strict_positivity_on_extreme_latents(self):
        # a trained output layer and latents far outside any fitted range
        from phase_surrogate.autodiff import Tensor
        from phase_surrogate.encoders import Mlp
        rng = np.random.default_rng(4)
        heads = Mlp((8,), (6, len(pipeline.PRIOR_GROUPS)), rng=rng)
        heads.params["w2"].data = rng.normal(0.0, 0.3, heads.params["w2"].data.shape)
        z = rng.normal(size=(1000, 8)).astype(np.float32) * 10.0
        z[:10] = 100.0
        z[10:20] = -100.0
        residual = heads.encode(Tensor(z)).data
        assert np.abs(residual).max() > 20.0
        pools = model_mod.pools_from(toy_batch(n=1000), residual)
        for task, pool in pools.items():
            assert np.all(pool > 0.0) and np.all(np.isfinite(pool)), task
