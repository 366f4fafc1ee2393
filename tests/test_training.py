import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest

from phase_surrogate import ood, pipeline, training
from phase_surrogate.autodiff import GradTape, Tensor
from phase_surrogate.errors import (ConfigurationError, ContractError,
                                    DivergenceError, RangeError, ShapeError)
from phase_surrogate.model import ModelConfig, Surrogate
from phase_surrogate.training import Adam, TrainConfig

import reference_ops as ref
from conftest import TOY_DIMS, build_toy_dataset, toy_model_config


def t64(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestTrainConfig:
    def test_round_trip(self):
        cfg = TrainConfig(lr=3e-4, batch_size=32, max_epochs=7, patience=2,
                          seed=9)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="momentum"):
            TrainConfig.from_dict({"momentum": 0.9})

    @pytest.mark.parametrize("kwargs", [
        {"lr": -1e-3},
        {"lr": 0.0},
        {"batch_size": 0},
        {"max_epochs": 0},
        {"patience": 0},
        {"max_epochs": "5"},
        {"max_epochs": 5.0},
        {"lr": None},
        {"lr": "0.01"},
        {"seed": False},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs)

    def test_integer_accepted_for_a_float(self):
        assert TrainConfig(lr=1).lr == 1


class TestTaskLoss:
    """The one loss: the mean squared error of the head's residuals."""

    def test_perfect_prediction_is_zero(self):
        vals = np.random.default_rng(0).uniform(0, 1, (6, 4))
        assert training.total_loss(Tensor(vals), vals).data.item() == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((50, 3))
        target = rng.standard_normal((50, 3))
        got = training.total_loss(Tensor(pred), target).data.item()
        want = math.fsum((pred - target).ravel() ** 2) / pred.size
        assert got == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            training.total_loss(Tensor(np.zeros((4, 2))), np.zeros((4, 3)))

    def test_gradcheck(self):
        rng = np.random.default_rng(2)
        pred = t64(rng, 5, 3)
        target = rng.standard_normal((5, 3))
        ref.gradcheck(lambda p: training.total_loss(p, target), [pred])


class PerArrayAdam:
    """Adam as one update per parameter array: the reference that
    ``training.Adam``'s whole-buffer update matches bit for bit."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.v = {k: np.zeros_like(t.data) for k, t in self.params.items()}
        self.t = 0

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        for key, tensor in self.params.items():
            g = tensor.grad
            if g is None:
                continue
            m = self.m[key]
            v = self.v[key]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            tensor.data = tensor.data - self.lr * update

    def zero_grad(self):
        for tensor in self.params.values():
            tensor.zero_grad()


class TestAdam:
    def test_model_file_is_bitwise_the_per_array_update(self, toy_dataset,
                                                       tmp_path, monkeypatch):
        files = []
        for optimizer in (Adam, PerArrayAdam):
            monkeypatch.setattr(training, "Adam", optimizer)
            model = training.train(quick_config(), toy_dataset,
                                   model_config=ModelConfig())
            path = tmp_path / f"{optimizer.__name__}.phm"
            model.save(path)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_skipped_parameter_is_bitwise_the_per_array_update(self):
        """A parameter with no gradient in one step keeps its value and
        moments there, and goes on from them in the next."""
        values = []
        for optimizer in (Adam, PerArrayAdam):
            init = np.random.default_rng(4)
            params = {k: Tensor(init.standard_normal(s).astype(np.float32),
                                requires_grad=True)
                      for k, s in (("a", (3, 2)), ("b", (4,)), ("c", (5,)))}
            opt = optimizer(params, lr=1e-2)
            draws = np.random.default_rng(5)
            for step in range(4):
                for key, t in params.items():
                    g = draws.standard_normal(t.shape).astype(np.float32)
                    t.grad = None if (key == "b" and step == 2) else g
                opt.step()
            values.append([t.data.copy() for t in params.values()])
        for got, want in zip(*values):
            np.testing.assert_array_equal(got, want)

    def test_parameters_of_mixed_dtypes_refused(self):
        with pytest.raises(ContractError, match="one dtype"):
            Adam({"a": Tensor(np.ones(2, dtype=np.float32)),
                  "b": Tensor(np.ones(2, dtype=np.float64))})

    def test_first_step_size_is_lr(self):
        w = Tensor(np.array([0.5, -0.2]), requires_grad=True)
        w.grad = np.array([2.0, -0.3])
        opt = Adam({"w": w}, lr=1e-3)
        before = w.data.copy()
        opt.step()
        np.testing.assert_allclose(np.abs(before - w.data), 1e-3, rtol=1e-6)
        assert np.all(np.sign(before - w.data) == np.sign(w.grad))

    def test_minimizes_quadratic(self):
        target = np.array([1.0, -2.0, 0.5])
        w = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam({"w": w}, lr=0.05)
        for _ in range(400):
            w.grad = 2.0 * (w.data - target)
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_skips_missing_grad(self):
        w = Tensor(np.ones(2), requires_grad=True)
        frozen = Tensor(np.ones(2), requires_grad=True)
        w.grad = np.ones(2)
        opt = Adam({"w": w, "frozen": frozen})
        opt.step()
        np.testing.assert_array_equal(frozen.data, np.ones(2))
        assert not np.array_equal(w.data, np.ones(2))

    def test_zero_grad_clears(self):
        w = Tensor(np.ones(2), requires_grad=True)
        w.grad = np.ones(2)
        Adam({"w": w}).zero_grad()
        assert w.grad is None

    def test_preserves_float32_params(self):
        w = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        w.grad = np.full(3, 0.5, dtype=np.float32)
        opt = Adam({"w": w}, lr=1e-3)
        opt.step()
        assert w.data.dtype == np.float32


class TestSplitIndices:
    def test_partition(self):
        tr, val = training._split_indices(50, seed=0)
        assert len(val) == 5 and len(tr) == 45
        merged = np.sort(np.concatenate([tr, val]))
        np.testing.assert_array_equal(merged, np.arange(50))

    def test_small_n_keeps_one(self):
        tr, val = training._split_indices(5, seed=0)
        assert len(val) == 1 and len(tr) == 4

    def test_seed_controls_split(self):
        a = training._split_indices(40, seed=1)
        b = training._split_indices(40, seed=1)
        c = training._split_indices(40, seed=2)
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_too_few_samples(self):
        with pytest.raises(ContractError):
            training._split_indices(1, seed=0)


def quick_config(**overrides):
    base = dict(seed=0, max_epochs=4, batch_size=16)
    base.update(overrides)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_default_model_step_records_24_tape_nodes(self):
        """One training step of the default model: each dense layer is one
        node and each transformer layer one more, so per-op dense layers
        (94 nodes) or a per-op attention fusion (77) would show up here."""
        dataset = build_toy_dataset(n=20)
        batch = training._residual_split(dataset, dataset.train)
        model = Surrogate(ModelConfig(), TOY_DIMS)
        model.feature_stats = dict(dataset.feature_stats)
        with GradTape() as tape:
            loss = training._batch_loss(model, batch)
        assert len(tape.nodes) == 24
        tape.backward(loss)
        assert len(tape.nodes) == 24

    def test_default_model_step_memory(self):
        """One 256-row step of the default model: the tape keeps only what
        the pullbacks read (a traced peak of 23.9 MB when it kept every
        tensor, 15.5 MB with a per-op attention fusion, 15.0 MB now), and
        after backward only the gradients stay, with no cycle left for the
        collector."""
        dataset = build_toy_dataset(n=320)
        assert dataset.train.n == 256
        batch = training._residual_split(dataset, dataset.train)
        model = Surrogate(ModelConfig(), TOY_DIMS)
        model.feature_stats = dict(dataset.feature_stats)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            with GradTape() as tape:
                loss = training._batch_loss(model, batch)
            tape.backward(loss)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        grads = sum(p.grad.nbytes for p in model.named_params().values())
        assert peak < 17.5e6
        assert current < grads + 0.25e6

    def test_loss_decreases(self, toy_dataset):
        model = training.train(quick_config(), toy_dataset,
                               model_config=toy_model_config())
        hist = model.history
        assert len(hist) == 4
        assert hist[-1][1] < hist[0][1]

    def test_deterministic_runs_match(self, toy_dataset, tmp_path):
        paths = []
        hists = []
        for run in range(2):
            model = training.train(quick_config(seed=3), toy_dataset,
                                   model_config=toy_model_config())
            path = tmp_path / f"run{run}.phm"
            model.save(str(path))
            paths.append(path)
            hists.append(model.history)
        assert hists[0] == hists[1]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_history_file_round_trips(self, toy_dataset, tmp_path):
        log = tmp_path / "loss_log.csv"
        model = training.train(quick_config(), toy_dataset,
                               model_config=toy_model_config(),
                               history_path=str(log))
        rows = np.genfromtxt(log, delimiter=",", names=True)
        assert rows.shape[0] == len(model.history)
        np.testing.assert_array_equal(rows["val_loss"],
                                      [h[2] for h in model.history])

    def test_restores_best_validation_state(self, toy_dataset):
        cfg = quick_config(max_epochs=8)
        model = training.train(cfg, toy_dataset,
                               model_config=toy_model_config())
        _, val_idx = training._split_indices(toy_dataset.train.n, cfg.seed)
        fitted = training._residual_split(toy_dataset, toy_dataset.train)
        batches = training._batches(fitted.take(val_idx), cfg.batch_size)
        val_loss = training._eval_loss(model, batches)
        assert val_loss == pytest.approx(min(h[2] for h in model.history),
                                         rel=1e-6)

    def test_early_stop_on_stalled_validation(self, toy_dataset):
        cfg = quick_config(lr=1e-12, patience=1, max_epochs=30)
        model = training.train(cfg, toy_dataset,
                               model_config=toy_model_config())
        assert len(model.history) == 2

    def test_nan_target_diverges(self):
        ds = build_toy_dataset(n=24, seed=5)
        ds.train.targets["soil3c"][0, 0] = np.nan
        with pytest.raises(DivergenceError, match="epoch 0"):
            training.train(quick_config(), ds,
                           model_config=toy_model_config())

    def test_empty_dataset_rejected(self, toy_dataset):
        src = toy_dataset.test
        bare = dataclasses.replace(
            src, cell_id=src.cell_id[:0], lat=src.lat[:0], lon=src.lon[:0],
            groups={g: a[:0] for g, a in src.groups.items()},
            targets={t: a[:0] for t, a in src.targets.items()})
        empty = dataclasses.replace(toy_dataset, train=bare)
        with pytest.raises(ContractError):
            training.train(quick_config(), empty,
                           model_config=toy_model_config())

    def test_model_takes_its_dims_from_the_data(self):
        # a float32 model shaped by the training split's arrays: here the
        # toy data's top 4 soil layers
        def top_layers(part):
            return dataclasses.replace(
                part, groups=dict(part.groups, g5=part.groups["g5"][:, :4]),
                targets={t: v[:, :4] if t in ("cwdc", "soil3c", "soil4c") else v
                         for t, v in part.targets.items()})
        ds = build_toy_dataset(n=20)
        ds = dataclasses.replace(ds, train=top_layers(ds.train), test=top_layers(ds.test))
        model = training.train(quick_config(max_epochs=1), ds,
                               model_config=toy_model_config())
        assert model.dims == dict(TOY_DIMS, n_layers=4)
        assert {t.data.dtype for t in model.named_params().values()} == {
            np.dtype(np.float32)}
        assert model.train_config == quick_config(max_epochs=1).to_dict()


class TestFineTune:
    def test_fraction_bounds(self, toy_model, toy_dataset):
        for bad in (0.0, -0.1, 1.2):
            with pytest.raises(RangeError):
                training.fine_tune(toy_model, toy_dataset, bad, quick_config())

    def test_leaves_source_model_untouched(self, toy_model, toy_dataset):
        before = toy_model.named_params()["heads.w1"].data.copy()
        tuned = training.fine_tune(toy_model, toy_dataset, 0.5,
                                   quick_config(max_epochs=2))
        np.testing.assert_array_equal(
            toy_model.named_params()["heads.w1"].data, before)
        assert tuned is not toy_model
        assert len(tuned.history) == 2

    def test_subsample_is_deterministic(self, toy_model, toy_dataset):
        runs = [training.fine_tune(toy_model, toy_dataset, 0.4,
                                   quick_config(max_epochs=2))
                for _ in range(2)]
        assert runs[0].history == runs[1].history

    def test_tunes_in_the_source_models_width(self, toy_dataset):
        # train builds float32 models; a float64 one tunes in float64
        source = Surrogate(toy_model_config(), TOY_DIMS, dtype=np.float64)
        source.feature_stats = dict(toy_dataset.feature_stats)
        tuned = training.fine_tune(source, toy_dataset, 0.5,
                                   quick_config(max_epochs=1))
        assert {t.data.dtype for t in tuned.named_params().values()} == {
            np.dtype(np.float64)}
        assert tuned.train_config == quick_config(max_epochs=1).to_dict()

    def test_refits_guard_on_tune_rows(self, toy_model, toy_dataset):
        # at fraction 1 the tune rows are the whole train split
        tuned = training.fine_tune(toy_model, toy_dataset, 1.0,
                                   quick_config(max_epochs=2))
        groups = toy_dataset.train.groups
        _, z = tuned.predict(groups)
        np.testing.assert_array_equal(tuned.ood_stats.latent_mean,
                                      z.astype(np.float64).mean(axis=0))
        assert not np.array_equal(tuned.ood_stats.latent_mean,
                                  toy_model.ood_stats.latent_mean)
        # the Q=99 latent rule flags at most 1% of them, rounded up
        _, _, reasons = ood.check(z, groups, tuned)
        latent = sum("latent" in r for r in reasons)
        assert latent <= math.ceil(0.01 * toy_dataset.train.n)

    def test_tiny_fraction_keeps_two_samples(self, toy_model, toy_dataset):
        tuned = training.fine_tune(toy_model, toy_dataset, 1e-9,
                                   quick_config(max_epochs=1, batch_size=2))
        assert len(tuned.history) == 1


class TestLogRatioTargets:
    """Training fits each turnover group's mean log ratio of u/k to the
    sample's observed pools, less its prior, whatever scale the dataset
    stores its targets in."""

    def test_other_target_stats_need_no_rescaling(self, toy_model,
                                                  toy_dataset):
        # the same physical targets stored over (0, 4): the tuned model is
        # the same, since the fit reads them in physical units
        other = dataclasses.replace(
            toy_dataset,
            train=dataclasses.replace(toy_dataset.train, targets={
                t: v / 4.0 for t, v in toy_dataset.train.targets.items()}),
            target_stats={t: [0.0, 4.0] for t in pipeline.TASKS})
        runs = [training.fine_tune(toy_model, ds, 0.5,
                                   quick_config(max_epochs=2))
                for ds in (toy_dataset, other)]
        assert runs[0].history == runs[1].history
        for name, tensor in runs[0].named_params().items():
            np.testing.assert_array_equal(
                runs[1].named_params()[name].data, tensor.data)

    @pytest.mark.parametrize("task,group,index", [
        ("soil3c", None, None), (None, "g4", 2)])
    def test_zero_target_or_observation_left_out(self, task, group, index,
                                                 caplog):
        # a zero u/k or a zero observed pool has no finite log ratio
        ds = build_toy_dataset(n=24, seed=5)
        if task is not None:
            ds.train.targets[task][3, 2] = 0.0
        else:
            ds.train.groups[group][3, 1, index] = 0.0
        with caplog.at_level("WARNING", logger="phase_surrogate.training"):
            model = training.train(quick_config(max_epochs=3), ds,
                                   model_config=toy_model_config())
        assert np.all(np.isfinite(np.array(model.history)))
        assert "left 1 of 19 rows out of the fit" in caplog.text
        # the guard describes the rows the weights were fitted to
        kept = np.arange(ds.train.n) != 3
        _, z = model.predict(ds.train.take(kept).groups)
        np.testing.assert_array_equal(model.ood_stats.latent_mean,
                                      z.astype(np.float64).mean(axis=0))

    def test_log_ratio_targets(self, toy_dataset):
        split = training._residual_split(toy_dataset, toy_dataset.train)
        assert set(split.targets) == {"residual"}
        groups, targets = toy_dataset.train.groups, toy_dataset.train.targets
        ratios = [np.log(targets[t] / groups["g5"][..., i].astype(np.float64))
                  for t, i in (("soil3c", 1), ("soil4c", 2))]
        np.testing.assert_allclose(
            split.targets["residual"][:, 2],
            np.concatenate(ratios, axis=1).mean(axis=1) - groups["prior"][:, 2],
            rtol=1e-12)
        # physical-unit features are the same in any model's hands
        for g in (*pipeline.GROUPS, "prior"):
            np.testing.assert_array_equal(split.groups[g],
                                          toy_dataset.train.groups[g])
