import csv
import dataclasses

import numpy as np
import pytest

from phase_surrogate import ablation, pipeline
from phase_surrogate import model as model_mod
from phase_surrogate.errors import ConfigurationError
from phase_surrogate.ablation import VARIANTS
from phase_surrogate.model import ModelConfig
from phase_surrogate.training import TrainConfig

from conftest import toy_model_config


class TestBuildVariant:
    """A variant's configs, as ``run_variant`` builds them: the caller's
    model config with its variant replaced, which ``ModelConfig`` checks.
    ``train`` reads a variant from its config file's ``model.variant``."""

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="no_attention"):
            dataclasses.replace(ModelConfig(), variant="no_attention")

    def test_architecture_variants_pass_through(self):
        assert VARIANTS == model_mod.VARIANTS
        for name in VARIANTS:
            assert dataclasses.replace(ModelConfig(),
                                       variant=name).variant == name

    def test_no_phys_is_unknown(self, toy_dataset):
        # there is no flux penalty to turn off: the fluxes are a closed form
        with pytest.raises(ConfigurationError, match="no_phys"):
            ablation.run_variant("no_phys", toy_dataset, seed=0)

    def test_train_config_passes_through(self, toy_dataset):
        # all but the seed, which the suite sets per run
        tc0 = TrainConfig(lr=0.01, max_epochs=1, batch_size=16, seed=4)
        model, _ = ablation.run_variant("no_cnn", toy_dataset, seed=2,
                                        model_config=toy_model_config(),
                                        train_config=tc0)
        assert model.train_config == dict(tc0.to_dict(), seed=2)

    def test_preserves_caller_configs(self, toy_dataset):
        mc0 = toy_model_config(dim=8)
        model, _ = ablation.run_variant(
            "no_lstm", toy_dataset, seed=0, model_config=mc0,
            train_config=TrainConfig(max_epochs=1, batch_size=16))
        assert model.config.dim == 8 and model.config.variant == "no_lstm"
        assert mc0.variant == "full"


def read_table(path):
    with open(path, newline="", encoding="ascii") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


@pytest.fixture(scope="module")
def suite_result(toy_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation") / "table.csv"
    result = ablation.run_ablation_suite(
        toy_dataset, seeds=[0], model_config=toy_model_config(),
        train_config=TrainConfig(seed=0, max_epochs=2, batch_size=16),
        out_csv=str(out))
    return result, out


class TestSuite:
    def test_covers_all_variants(self, suite_result):
        result, _ = suite_result
        assert result["variants"] == VARIANTS
        for name in VARIANTS:
            assert set(result["r2"][name]) == set(ablation.TABLE_TASKS)
            for vals in result["r2"][name].values():
                assert len(vals) == 1

    def test_mean_is_grand_average(self, suite_result):
        result, _ = suite_result
        for name in VARIANTS:
            want = np.mean([np.mean(result["r2"][name][t])
                            for t in ablation.TABLE_TASKS])
            assert result["mean_r2"][name] == pytest.approx(want, rel=1e-12)

    def test_empty_seeds_rejected(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            ablation.run_ablation_suite(toy_dataset, seeds=[])

    def test_table_layout(self, suite_result):
        _, out = suite_result
        header, rows = read_table(out)
        assert header == ["task"] + list(VARIANTS)
        assert [r[0] for r in rows] == list(ablation.TABLE_TASKS) + ["mean"]
        for row in rows[:-1]:
            for cell in row[1:]:
                mean, std = cell.split("+-")
                float(mean), float(std)

    def test_table_matches_result(self, suite_result):
        result, out = suite_result
        header, rows = read_table(out)
        mean_row = rows[-1]
        for j, name in enumerate(VARIANTS):
            assert float(mean_row[j + 1]) == pytest.approx(
                result["mean_r2"][name], abs=5e-4)


class TestRunVariant:
    def test_seed_overrides_config(self, toy_dataset):
        model, report = ablation.run_variant(
            "baseline_mlp", toy_dataset, seed=7,
            model_config=toy_model_config(),
            train_config=TrainConfig(seed=0, max_epochs=2, batch_size=16))
        assert model.train_config["seed"] == 7
        assert report.split == "test"
        assert model.config.variant == "baseline_mlp"
