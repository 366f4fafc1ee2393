"""End-to-end checks for the command-line workflow driver."""

import filecmp
import json
import os
import shutil
import struct
import subprocess
import sys
import types

import numpy as np
import pytest

import phase_surrogate
from phase_surrogate import blobio, cli, pipeline, simulator
from phase_surrogate.cli import main
from phase_surrogate.model import ModelConfig, Surrogate

from conftest import with_guard

TINY_CONFIG = {
    "model": {"dim": 16, "hidden": 16, "heads": 2, "depth": 1,
              "ff_mult": 2, "channels": [4, 6]},
    "train": {"max_epochs": 2, "batch_size": 64, "seed": 3},
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One small world driven through the full command chain."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "root": root,
        "world": root / "world",
        "data": root / "data",
        "config": root / "config.json",
        "model": root / "model.phm",
        "report": root / "report",
        "drift": root / "drift.csv",
    }
    paths["config"].write_text(json.dumps(TINY_CONFIG))
    assert main(["gen-data", "--seed", "9", "--grid", "coarse",
                 "--years", "6", "--out", str(paths["world"])]) == 0
    assert main(["build-dataset", "--world", str(paths["world"]),
                 "--seed", "1", "--out", str(paths["data"])]) == 0
    assert main(["train", "--data", str(paths["data"]),
                 "--config", str(paths["config"]),
                 "--out", str(paths["model"])]) == 0
    assert main(["eval", "--model", str(paths["model"]),
                 "--data", str(paths["data"]),
                 "--out", str(paths["report"])]) == 0
    assert main(["restart-check", "--model", str(paths["model"]),
                 "--world", str(paths["world"]),
                 "--out", str(paths["drift"]), "--years", "2"]) == 0
    return paths


def untrained_model(ws, path, dims=(), **config):
    """Save an untrained model of the ws model's config and dims with
    ``config`` and ``dims`` changed, carrying the ws model's feature stats
    and a toy-fitted OOD guard."""
    trained = Surrogate.load(str(ws["model"]))
    model = Surrogate(ModelConfig.from_dict(dict(trained.config.to_dict(),
                                                 **config)),
                      dict(trained.dims, **dict(dims)))
    model.feature_stats = trained.feature_stats
    with_guard(model).save(str(path))
    return path


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_clean(self):
        assert main(["--help"]) == 0

    def test_missing_required_flag(self):
        assert main(["gen-data"]) == 2

    @pytest.mark.parametrize("config", [
        {"train": {"max_epochs": "5"}}, {"model": {"dim": "64"}},
        {"model": {"channels": 5}}, {"train": {"lr": None}}],
        ids=["max_epochs-str", "dim-str", "channels-int", "lr-null"])
    def test_config_value_of_wrong_type_is_usage_error(self, ws, tmp_path,
                                                       capsys, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        rc = main(["train", "--data", str(ws["data"]),
                   "--config", str(bad), "--out", str(tmp_path / "m.phm")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err
        (key, _), = next(iter(config.values())).items()
        assert key in err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("section,key,value", [
        ("model", "n_pft", 4), ("model", "n_layers", 9),
        ("model", "window_months", 24), ("model", "masked_features", []),
        ("train", "width", "float64")],
        ids=["n_pft", "n_layers", "window_months", "masked_features", "width"])
    def test_data_shape_or_width_key_is_usage_error(self, ws, tmp_path, capsys,
                                                    section, key, value):
        # the model takes its shapes from the dataset and trains in float32
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({section: {key: value}}))
        rc = main(["train", "--data", str(ws["data"]),
                   "--config", str(bad), "--out", str(tmp_path / "m.phm")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: unknown {section} config key {key!r}")

    def test_phys_weight_is_unknown_key(self, ws, tmp_path, capsys):
        # the fluxes are a closed form, with no penalty to weigh
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"phys_weight": 1.0}}))
        rc = main(["train", "--data", str(ws["data"]),
                   "--config", str(bad), "--out", str(tmp_path / "m.phm")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown train config key 'phys_weight'")
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("key,value", [
        ("lr", float("nan")), ("lr", float("inf"))], ids=["lr-nan", "lr-inf"])
    def test_non_finite_config_number_is_usage_error(self, ws, tmp_path, capsys,
                                                     key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {key: value}}))
        rc = main(["train", "--data", str(ws["data"]),
                   "--config", str(bad), "--out", str(tmp_path / "m.phm")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {key} must be finite")
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command", ["gen-data", "build-dataset", "train"])
    def test_negative_seed_is_usage_error(self, ws, tmp_path, capsys, command):
        out = str(tmp_path / "out")
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"train": {"seed": -1}}))
        args = {"gen-data": ["--seed", "-1", "--years", "1", "--out", out],
                "build-dataset": ["--world", str(ws["world"]), "--seed", "-1",
                                  "--out", out],
                "train": ["--data", str(ws["data"]), "--config", str(config),
                          "--out", out]}[command]
        rc = main([command] + args)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: seed must be >= 0") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [config]

    def test_unknown_config_key(self, ws, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"momentum": 0.9}}))
        rc = main(["train", "--data", str(ws["data"]),
                   "--config", str(bad), "--out", str(tmp_path / "m.phm")])
        assert rc == 2

    @pytest.mark.parametrize("text", ["not json", "[]", '{"train": 5}'])
    def test_malformed_config_is_usage_error(self, ws, tmp_path, capsys,
                                             text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        rc = main(["train", "--data", str(ws["data"]),
                   "--config", str(bad), "--out", str(tmp_path / "m.phm")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_malformed_dataset_is_clean_runtime_error(self, ws, tmp_path,
                                                      capsys):
        data = tmp_path / "data"
        shutil.copytree(ws["data"], data)
        split = str(data / "test.pht")
        manifest, arrays = blobio.read_model_file(split)
        blobio.write_model_file(split, dict(manifest, params=manifest["params"][:4]),
                                arrays)
        rc = main(["eval", "--model", str(ws["model"]), "--data", str(data),
                   "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "test.pht lacks array 'g2'" in err
        assert "Traceback" not in err

    def test_dataset_without_stats_is_clean_runtime_error(self, ws, tmp_path,
                                                          capsys):
        data = tmp_path / "data"
        shutil.copytree(ws["data"], data)
        manifest = blobio.load_json(str(data / "manifest.json"))
        del manifest["feature_stats"]
        blobio.save_json(str(data / "manifest.json"), manifest)
        rc = main(["eval", "--model", str(ws["model"]), "--data", str(data),
                   "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "feature_stats" in err
        assert "Traceback" not in err

    def test_version_two_dataset_is_clean_runtime_error(self, ws, tmp_path,
                                                        capsys):
        # version 2 stored normalized feature groups, which no model reads
        data = tmp_path / "data"
        shutil.copytree(ws["data"], data)
        manifest = blobio.load_json(str(data / "manifest.json"))
        blobio.save_json(str(data / "manifest.json"),
                         dict(manifest, version=2))
        rc = main(["eval", "--model", str(ws["model"]), "--data", str(data),
                   "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "rebuild it" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report").exists()

    def test_missing_dataset_is_runtime_error(self, tmp_path):
        rc = main(["train", "--data", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "m.phm")])
        assert rc == 1

    @pytest.mark.parametrize("cut", ["world", "model", "world-huge-blob",
                                     "model-huge-blob", "world-no-params",
                                     "model-list-manifest"])
    def test_truncated_input_is_clean_runtime_error(self, ws, tmp_path,
                                                    capsys, cut):
        target, _, damage = cut.partition("-")
        paths = {"world": ws["world"] / "world.phw", "model": ws["model"]}

        def model_file(manifest, tail=b""):
            raw = json.dumps(manifest).encode("utf-8")
            return blobio.MODEL_MAGIC + struct.pack("<I", len(raw)) + raw + tail

        bad, word = {
            # 40 bytes keep the magic and the length but cut the manifest
            "": (paths[target].read_bytes()[:40], "truncated"),
            # a 20-byte blob claiming 2**59 float64 values
            "huge-blob": (model_file({"params": ["w"]}, blobio.BLOB_MAGIC
                                     + struct.pack("<BBQ", 1, 1, 2 ** 59)
                                     + b"\x00" * 6), "truncated"),
            "no-params": (model_file({"format": "world"}), "params"),
            "list-manifest": (model_file(["params"]), "params"),
        }[damage]
        paths[target] = tmp_path / paths[target].name
        paths[target].write_bytes(bad)
        rc = main(["restart-check", "--model", str(paths["model"]),
                   "--world", str(paths["world"]),
                   "--out", str(tmp_path / "d.csv"), "--years", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {paths[target]}: ") and word in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "restart-check"])
    def test_file_of_another_kind_is_named(self, ws, tmp_path, capsys, command):
        # a world given as the model, or a model given as the world
        world, model = str(ws["world"] / "world.phw"), str(ws["model"])
        wrong, args = {
            "eval": (world, ["--model", world, "--data", str(ws["data"]),
                             "--out", str(tmp_path / "report")]),
            "restart-check": (model, ["--model", model, "--world", model,
                                      "--out", str(tmp_path / "d.csv"), "--years", "1"]),
        }[command]
        rc = main([command] + args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {wrong}: not a ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "restart-check"])
    def test_model_file_of_another_version_is_refused(self, ws, tmp_path,
                                                      capsys, command):
        # a version-1 model has the same weight shapes but read every month
        manifest, arrays = blobio.read_model_file(str(ws["model"]))
        old = tmp_path / "v1.phm"
        blobio.write_model_file(str(old), dict(manifest, version=1), arrays)
        args = {"eval": ["--data", str(ws["data"]),
                         "--out", str(tmp_path / "report")],
                "restart-check": ["--world", str(ws["world"]),
                                  "--out", str(tmp_path / "d.csv"),
                                  "--years", "1"]}[command]
        rc = main([command, "--model", str(old)] + args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {old}: ") and "version 1" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [old]

    @pytest.mark.parametrize("change", [
        "version-2", "no-dims", "dims-list", "dims-missing-key",
        "variant-baseline_pinn", "dim-string", "no-config",
        "stats-missing-channel", "stats-not-pair", "stats-reversed",
        "stats-nan", "no-stats", "ood-no-threshold", "ood-string-threshold",
        "ood-infinite-threshold"])
    def test_model_file_of_version_two_or_bad_dims_is_refused(
            self, ws, tmp_path, capsys, change):
        # every malformed manifest entry is a runtime error naming the file
        manifest, arrays = blobio.read_model_file(str(ws["model"]))
        dims = manifest["dims"]
        config = manifest["config"]
        stats = manifest["feature_stats"]
        edits = {
            # version 2 kept the window and the type and layer counts in
            # the config
            "version-2": dict(version=2, dims=None, config=dict(
                config, n_pft=dims["n_pft"], n_layers=dims["n_layers"],
                window_months=60, masked_features=[])),
            "no-dims": dict(dims=None),
            "dims-list": dict(dims=list(dims.values())),
            "dims-missing-key": dict(dims={"n_pft": dims["n_pft"]}),
            "variant-baseline_pinn": dict(config=dict(
                config, variant="baseline_pinn")),
            "dim-string": dict(config=dict(config, dim="64")),
            "no-config": dict(config=None),
            "stats-missing-channel": dict(feature_stats={
                k: v for k, v in stats.items() if k != "g2.alpha"}),
            "stats-not-pair": dict(feature_stats=dict(stats,
                                                      **{"g2.alpha": 0.5})),
            "stats-reversed": dict(feature_stats=dict(
                stats, **{"g2.alpha": stats["g2.alpha"][::-1]})),
            "stats-nan": dict(feature_stats=dict(
                stats, **{"g2.alpha": [float("nan"), 1.0]})),
            "no-stats": dict(feature_stats=None),
            "ood-no-threshold": dict(ood={}),
            "ood-string-threshold": dict(ood={"threshold": "12.5"}),
            "ood-infinite-threshold": dict(ood={"threshold": float("inf")}),
        }[change]
        manifest.update(edits)
        manifest = {k: v for k, v in manifest.items() if v is not None}
        bad = tmp_path / "bad.phm"
        blobio.write_model_file(str(bad), manifest, arrays)
        rc = main(["eval", "--model", str(bad), "--data", str(ws["data"]),
                   "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {bad}: ") and "Traceback" not in err
        assert {"version-2": "model file version 2",
                "variant-baseline_pinn": "unknown variant 'baseline_pinn'",
                "dim-string": "dim must be an integer, got '64'",
                "no-config": "model config must be an object, got None",
                "stats-missing-channel": "'g2.alpha' as None, not a [lo, hi]",
                "stats-not-pair": "'g2.alpha' as 0.5, not a [lo, hi]",
                "stats-reversed": "finite numbers, lo <= hi",
                "stats-nan": "'g2.alpha' as [nan, 1.0], not a [lo, hi] pair "
                             "of finite numbers",
                "no-stats": "model file lacks feature_stats",
                "ood-no-threshold": "threshold must be a finite number, "
                                    "got None",
                "ood-string-threshold": "got '12.5'",
                "ood-infinite-threshold": "got inf"}.get(
                    change, "dims must give n_pft, n_layers") in err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("command,lacks", [("build-dataset", "window.soil4c"),
                                               ("restart-check", "grid")])
    def test_incomplete_world_is_clean_runtime_error(self, ws, tmp_path,
                                                     capsys, command, lacks):
        manifest, arrays = blobio.read_model_file(str(ws["world"] / "world.phw"))
        arrays.pop(lacks, None)
        manifest.pop(lacks, None)
        world = tmp_path / "world"
        world.mkdir()
        blobio.write_model_file(str(world / "world.phw"),
                                dict(manifest, params=sorted(arrays)), arrays)
        args = {"build-dataset": ["--world", str(world), "--seed", "1",
                                  "--out", str(tmp_path / "data")],
                "restart-check": ["--model", str(ws["model"]), "--world",
                                  str(world), "--out", str(tmp_path / "d.csv"),
                                  "--years", "1"]}[command]
        rc = main([command] + args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and repr(lacks) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value,says", [
        pytest.param(key, value, says, id=f"{key}-{label}")
        for key, cases, says in [
            ("seed", [("negative", -1), ("string", "9"), ("bool", True)],
             "world seed must be an integer >= 0"),
            ("years", [("zero", 0), ("string", "6"), ("bool", True),
                       ("float", 6.0)],
             "world years must be an integer >= 1"),
            ("n_lat", [("string", "24"), ("one", 1), ("float", 24.0),
                       ("bool", True)],
             "world grid n_lat must be an integer >= 2"),
            ("resolution_deg", [("zero", 0), ("negative", -1.0),
                                ("nan", float("nan")), ("inf", float("inf")),
                                ("string", "1.0"), ("bool", True)],
             "world grid resolution_deg must be a finite positive number"),
        ]
        for label, value in cases])
    def test_world_manifest_scalar_of_the_wrong_kind_is_refused(
            self, ws, tmp_path, capsys, key, value, says):
        manifest, arrays = blobio.read_model_file(str(ws["world"] / "world.phw"))
        if key in manifest:
            manifest[key] = value
        else:
            manifest["grid"] = dict(manifest["grid"], **{key: value})
        if key == "years" and value == 0:
            # a world of no years has no forcing
            arrays["forcing_monthly"] = arrays["forcing_monthly"][:, :0]
        world = tmp_path / "world"
        world.mkdir()
        path = world / "world.phw"
        blobio.write_model_file(str(path), manifest, arrays)
        rc = main(["build-dataset", "--world", str(world), "--seed", "1",
                   "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {path}: {says}, got {value!r}")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [world]

    def test_world_array_short_of_a_cell_is_clean_runtime_error(self, ws, tmp_path,
                                                                capsys):
        manifest, arrays = blobio.read_model_file(str(ws["world"] / "world.phw"))
        arrays["window.soil4c"] = arrays["window.soil4c"][:-1]
        world = tmp_path / "world"
        world.mkdir()
        blobio.write_model_file(str(world / "world.phw"), manifest, arrays)
        rc = main(["build-dataset", "--world", str(world), "--seed", "1",
                   "--out", str(tmp_path / "data")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "'window.soil4c'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind,name,cut,command", [
        pytest.param(kind, name, cut, command, id=f"{name}-{command}")
        for kind, name, cut in [
            ("world", "window.soil4c", np.s_[:, :8]),
            ("world", "params.alloc", np.s_[..., :-1]),
            ("world", "forcing_monthly", np.s_[..., :-1]),
            ("world", "gbar_stat12", np.s_[:, :11]),
            ("world", "points.lat", np.s_[:-1]),
            ("data", "g1", np.s_[..., :4]),
            ("model", "ood.latent_mean", np.s_[:-1]),
        ]
        for command in {"world": ("build-dataset", "restart-check"),
                        "data": ("train", "eval"),
                        "model": ("eval", "restart-check")}[kind]
    ] + [pytest.param("restart", "cwdc", None, "restart-check",
                      id="restart-cwdc-restart-check")])
    def test_array_of_wrong_shape_is_clean_runtime_error(
            self, ws, tmp_path, capsys, monkeypatch, kind, name, cut, command):
        inputs = {"world": tmp_path / "world", "data": tmp_path / "data",
                  "model": tmp_path / "model.phm"}
        shutil.copytree(ws["world"], inputs["world"])
        shutil.copytree(ws["data"], inputs["data"])
        shutil.copy(ws["model"], inputs["model"])
        # eval reads only the split it scores
        split = "test" if command == "eval" else "train"
        damaged = {"world": inputs["world"] / "world.phw",
                   "data": inputs["data"] / f"{split}.pht",
                   "model": inputs["model"],
                   "restart": tmp_path / "out.phr"}[kind]
        if kind == "restart":
            # layered pools one column short of the restart file's; a model
            # of other dims refuses the world before it predicts (below)
            predict = Surrogate.predict

            def short(model, groups):
                preds, z = predict(model, groups)
                return dict(preds, cwdc=preds["cwdc"][:, :-1]), z

            monkeypatch.setattr(Surrogate, "predict", short)
        else:
            manifest, arrays = blobio.read_model_file(str(damaged))
            arrays[name] = arrays[name][cut]
            blobio.write_model_file(str(damaged), manifest, arrays)
        out = str(tmp_path / "out")
        args = {"build-dataset": ["--world", str(inputs["world"]), "--out", out],
                "train": ["--data", str(inputs["data"]), "--config",
                          str(ws["config"]), "--out", out],
                "eval": ["--model", str(inputs["model"]), "--data",
                         str(inputs["data"]), "--out", out],
                "restart-check": ["--model", str(inputs["model"]), "--world",
                                  str(inputs["world"]), "--out", out + ".csv",
                                  "--years", "1"]}[command]
        rc = main([command] + args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{damaged}: array {name!r} has shape" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data", "model.phm", "world"]

    def test_model_of_other_dims_is_clean_runtime_error(self, ws, tmp_path,
                                                       capsys):
        # a model for 8 soil layers on a world of 9: even a variant without
        # the layered encoder reads the observed soil pools
        model = untrained_model(ws, tmp_path / "model.phm",
                                dims={"n_layers": 8}, variant="no_cnn")
        rc = main(["restart-check", "--model", str(model), "--world",
                   str(ws["world"]), "--out", str(tmp_path / "out.csv"),
                   "--years", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: g5 must be [batch, n_layers, fields] "
                              "with n_layers 8, got shape (")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.phm"]

    def test_fine_tune_refuses_another_architecture(self, ws, tmp_path, capsys):
        config = tmp_path / "tune.json"
        config.write_text(json.dumps({"model": {"dim": 32},
                                      "train": TINY_CONFIG["train"]}))
        out = tmp_path / "t.phm"
        rc = main(["fine-tune", "--model", str(ws["model"]),
                   "--data-fine", str(ws["data"]), "--fraction", "0.5",
                   "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: fine-tune keeps the source model's architecture")
        assert "dim 32 where the model has 16" in err
        assert list(tmp_path.iterdir()) == [config]

    def test_zero_fraction_is_usage_error(self, ws, tmp_path):
        rc = main(["fine-tune", "--model", str(ws["model"]),
                   "--data-fine", str(ws["data"]), "--fraction", "0",
                   "--out", str(tmp_path / "t.phm")])
        assert rc == 2


class TestRestartCheckInputs:
    def test_zero_years_is_usage_error_and_writes_nothing(self, ws, tmp_path,
                                                         capsys):
        rc = main(["restart-check", "--model", str(ws["model"]),
                   "--world", str(ws["world"]),
                   "--out", str(tmp_path / "drift.csv"), "--years", "0"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "--years" in err
        assert list(tmp_path.iterdir()) == []

    def test_pools_past_float32_exit_1_and_write_nothing(self, ws, tmp_path, capsys):
        # the head outputs the residual 100 for every group, so each
        # predicted pool is its observation times e^(100 + prior), about
        # 2.7e43 or more, past float32's range
        model = Surrogate.load(str(ws["model"]))
        model.heads.params["w2"].data[:] = 0.0
        model.heads.params["b2"].data[:] = 100.0
        path = tmp_path / "r100.phm"
        model.save(str(path))
        rc = main(["restart-check", "--model", str(path), "--world", str(ws["world"]),
                   "--out", str(tmp_path / "drift.csv"), "--years", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: restart pool deadcrootc must be finite")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [path]

    def test_version_two_world_names_gen_data(self, ws, tmp_path, capsys):
        # version 2 held no observed state
        manifest, arrays = blobio.read_model_file(str(ws["world"] / "world.phw"))
        arrays = {k: v for k, v in arrays.items() if not k.startswith("observed.")}
        world = tmp_path / "world"
        world.mkdir()
        blobio.write_model_file(str(world / "world.phw"),
                                dict(manifest, version=2, params=sorted(arrays)), arrays)
        rc = main(["restart-check", "--model", str(ws["model"]), "--world", str(world),
                   "--out", str(tmp_path / "drift.csv"), "--years", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {world / 'world.phw'}: world file version 2;")
        assert err.rstrip().endswith("rerun gen-data") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [world]


class TestOneSplitPerCommand:
    @pytest.fixture
    def data_without(self, ws, tmp_path):
        """A copy of the ws dataset without one of its split files."""
        def without(split):
            data = tmp_path / f"no-{split}"
            shutil.copytree(ws["data"], data)
            (data / f"{split}.pht").unlink()
            return data
        return without

    @pytest.mark.parametrize("split", ["test", "train"])
    def test_eval_reads_only_the_split_it_scores(self, ws, tmp_path, data_without,
                                                 split):
        other = {"test": "train", "train": "test"}[split]
        out, again = tmp_path / "report", tmp_path / "again"
        for data, report in ((ws["data"], out), (data_without(other), again)):
            assert main(["eval", "--model", str(ws["model"]), "--data", str(data),
                         "--out", str(report), "--split", split]) == 0
        first = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
        assert first == sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file())
        for rel in first:
            assert filecmp.cmp(out / rel, again / rel, shallow=False), rel

    def test_train_and_fine_tune_read_only_the_train_split(self, ws, tmp_path,
                                                           data_without):
        data = data_without("test")
        out = tmp_path / "model.phm"
        assert main(["train", "--data", str(data), "--config", str(ws["config"]),
                     "--out", str(out)]) == 0
        assert filecmp.cmp(out, ws["model"], shallow=False)
        assert main(["fine-tune", "--model", str(ws["model"]), "--data-fine", str(data),
                     "--fraction", "0.5", "--config", str(ws["config"]),
                     "--out", str(tmp_path / "tuned.phm")]) == 0

    def test_inspect_attention_reads_only_the_test_split(self, ws, tmp_path,
                                                         data_without):
        assert main(["inspect-attention", "--model", str(ws["model"]),
                     "--data", str(data_without("train")),
                     "--out", str(tmp_path / "att.csv")]) == 0


class TestConfigCommand:
    def test_defaults_json(self, capsys):
        assert main(["config"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"model", "train"}
        assert out["model"]["dim"] == 64
        assert out["train"]["lr"] == pytest.approx(1e-3)
        assert out["train"]["patience"] == 10
        assert out["train"]["max_epochs"] == 200
        # the architecture only: the data gives the shapes, and training
        # runs in float32
        assert sorted(out["model"]) == sorted([
            "dim", "hidden", "heads", "depth", "ff_mult", "channels",
            "variant"])
        assert sorted(out["train"]) == sorted([
            "lr", "batch_size", "max_epochs", "patience", "seed"])

    def test_defaults_stable(self, capsys):
        main(["config"])
        first = capsys.readouterr().out
        main(["config"])
        assert capsys.readouterr().out == first


class TestWorkflow:
    def test_world_written(self, ws):
        world = simulator.load_world(str(ws["world"] / "world.phw"))
        assert world.n_cells == int(0.6 * 24 * 48)
        assert world.years == 6

    def test_dataset_split_sizes(self, ws):
        ds = pipeline.load_dataset(str(ws["data"]))
        total = ds.train.n + ds.test.n
        assert total == int(0.6 * 24 * 48)
        assert abs(ds.test.n / total - 0.2) < 0.02

    def test_train_writes_model_and_log(self, ws):
        model = Surrogate.load(str(ws["model"]))
        assert model.train_config["batch_size"] == 64
        assert model.train_config["max_epochs"] == 2
        log = ws["root"] / "model_log.csv"
        rows = np.genfromtxt(log, delimiter=",", names=True)
        assert rows.size == 2

    def test_train_message_names_restored_epoch(self, ws, tmp_path, capsys):
        out = tmp_path / "again.phm"
        assert main(["train", "--data", str(ws["data"]),
                     "--config", str(ws["config"]), "--out", str(out)]) == 0
        message = capsys.readouterr().out
        rows = np.genfromtxt(tmp_path / "again_log.csv", delimiter=",",
                             names=True)
        best = int(np.argmin(rows["val_loss"]))
        assert f"restored epoch {int(rows['epoch'][best])} " in message
        assert message.rstrip().endswith(
            f"val loss {rows['val_loss'].min():.6f}")

    def test_train_takes_the_variant_from_its_config(self, ws, tmp_path):
        config = tmp_path / "no_cnn.json"
        config.write_text(json.dumps({
            "model": dict(TINY_CONFIG["model"], variant="no_cnn"),
            "train": dict(TINY_CONFIG["train"], max_epochs=1)}))
        out = tmp_path / "no_cnn.phm"
        assert main(["train", "--data", str(ws["data"]), "--config", str(config),
                     "--out", str(out)]) == 0
        assert Surrogate.load(str(out)).config.variant == "no_cnn"

    def test_eval_report_files(self, ws):
        lines = (ws["report"] / "metrics.csv").read_text().splitlines()
        assert lines[0] == "task,r2,rmse"
        assert len(lines) == 1 + len(pipeline.TASKS) + 1
        ood_lines = (ws["report"] / "ood.csv").read_text().splitlines()
        ds = pipeline.load_dataset(str(ws["data"]))
        assert len(ood_lines) == 1 + ds.test.n

    def test_restart_check_outputs(self, ws):
        rows = {}
        for line in ws["drift"].read_text().splitlines()[1:]:
            name, pool, value = line.split(",")
            rows[(name, pool)] = float(value)
        assert 0.0 < rows[("speedup_min", "")] <= rows[("speedup_median", "")]
        assert rows[("cold_start_years_min", "")] >= 1200.0
        assert rows[("warm_start_years_median", "")] >= 1.0 / 12.0
        assert rows[("restart_years", "")] == 2
        assert rows[("window_years", "")] == 6
        assert rows[("zero_equilibrium_cells", "")] == 0
        drift = [v for (n, _), v in rows.items() if n == "drift_max"]
        assert drift and all(np.isfinite(v) for v in drift)
        assert (ws["root"] / "drift.phr").exists()
        assert (ws["root"] / "drift_ood.csv").exists()

    def test_restart_check_reports_its_references(self, ws, tmp_path, capsys):
        # an untrained model predicts obs * exp(prior), so its restart is
        # the prior's, to the last bit
        def rows_of(path):
            lines = path.read_text().splitlines()[1:]
            return {line.split(",")[0]: float(line.split(",")[2]) for line in lines}

        path = untrained_model(ws, tmp_path / "untrained.phm")
        capsys.readouterr()
        assert main(["restart-check", "--model", str(path), "--world", str(ws["world"]),
                     "--out", str(tmp_path / "d.csv"), "--years", "1"]) == 0
        rows = rows_of(tmp_path / "d.csv")
        assert rows["speedup_median"] == rows["prior_speedup_median"]
        printed = capsys.readouterr().out
        assert f"prior alone {rows['prior_speedup_median']:.3g}x" in printed
        # the references do not depend on the model
        trained = rows_of(ws["drift"])
        for name in ("prior_speedup_median", "persistence_speedup_median"):
            assert trained[name] == rows[name]
        assert rows["prior_speedup_median"] > rows["persistence_speedup_median"] > 1.0

    def test_restart_check_runs_network_once_per_cell(self, ws, tmp_path,
                                                      monkeypatch):
        rows = []
        latent = Surrogate.latent

        def counting(self, batch):
            rows.append(batch["g1"].shape[0])
            return latent(self, batch)

        monkeypatch.setattr(Surrogate, "latent", counting)
        assert main(["restart-check", "--model", str(ws["model"]),
                     "--world", str(ws["world"]),
                     "--out", str(tmp_path / "d.csv"), "--years", "1"]) == 0
        world = simulator.load_world(str(ws["world"] / "world.phw"))
        assert sum(rows) == world.n_cells

    def test_restart_check_ood_strict_refuses(self, ws, tmp_path):
        # the guard threshold sits below the worst training score, so a
        # full-world sweep always trips at least one cell
        out = tmp_path / "strict.csv"
        rc = main(["restart-check", "--model", str(ws["model"]),
                   "--world", str(ws["world"]), "--out", str(out),
                   "--years", "2", "--ood-strict"])
        assert rc == 1
        assert not out.exists()
        assert not (tmp_path / "strict.phr").exists()

    @pytest.mark.parametrize("command", ["eval", "restart-check"])
    def test_model_without_guard_refused(self, ws, tmp_path, capsys,
                                         command):
        # --ood-strict cannot pass a model it has no guard to check with
        path = tmp_path / "bare.phm"
        manifest, arrays = blobio.read_model_file(str(ws["model"]))
        del manifest["ood"]
        manifest["params"] = [n for n in manifest["params"]
                              if not n.startswith("ood.")]
        blobio.write_model_file(str(path), manifest, arrays)
        out = tmp_path / "out"
        args = {"eval": ["--data", str(ws["data"]), "--out", str(out)],
                "restart-check": ["--world", str(ws["world"]), "--out",
                                  str(out) + ".csv", "--years", "1",
                                  "--ood-strict"]}[command]
        rc = main([command, "--model", str(path)] + args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and str(path) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.phm"]

    def test_inspect_attention_csv(self, ws, tmp_path):
        out = tmp_path / "att.csv"
        rc = main(["inspect-attention", "--model", str(ws["model"]),
                   "--data", str(ws["data"]), "--sample", "0",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "head,query_group,key_group,weight"
        assert len(lines) == 1 + 2 * 4 * 4
        sums = {}
        for line in lines[1:]:
            head, query, _, weight = line.split(",")
            sums[(head, query)] = sums.get((head, query), 0.0) + float(weight)
        assert all(abs(s - 1.0) < 1e-5 for s in sums.values())

    def test_inspect_attention_sample_out_of_range(self, ws, tmp_path):
        rc = main(["inspect-attention", "--model", str(ws["model"]),
                   "--data", str(ws["data"]), "--sample", "99999",
                   "--out", str(tmp_path / "att.csv")])
        assert rc == 2

    def test_fine_tune_runs(self, ws, tmp_path):
        out = tmp_path / "tuned.phm"
        rc = main(["fine-tune", "--model", str(ws["model"]),
                   "--data-fine", str(ws["data"]), "--fraction", "0.5",
                   "--config", str(ws["config"]), "--out", str(out)])
        assert rc == 0
        tuned = Surrogate.load(str(out))
        assert tuned.train_config["max_epochs"] == 2
        log = tmp_path / "tuned_log.csv"
        assert np.genfromtxt(log, delimiter=",", names=True).size == 2


class TestDeterminism:
    def test_gen_data_rerun_identical(self, ws, tmp_path):
        again = tmp_path / "world2"
        assert main(["gen-data", "--seed", "9", "--grid", "coarse",
                     "--years", "6", "--out", str(again)]) == 0
        assert filecmp.cmp(ws["world"] / "world.phw",
                           again / "world.phw", shallow=False)

    def test_build_dataset_rerun_identical(self, ws, tmp_path):
        again = tmp_path / "data2"
        assert main(["build-dataset", "--world", str(ws["world"]),
                     "--seed", "1", "--out", str(again)]) == 0
        first = sorted(p for p in (ws["data"]).rglob("*") if p.is_file())
        second = sorted(p for p in again.rglob("*") if p.is_file())
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert filecmp.cmp(a, b, shallow=False), a.name

    def test_train_rerun_identical(self, ws, tmp_path):
        again = tmp_path / "model2.phm"
        assert main(["train", "--data", str(ws["data"]),
                     "--config", str(ws["config"]),
                     "--out", str(again)]) == 0
        assert filecmp.cmp(ws["model"], again, shallow=False)


def loaded_modules(argvs, names):
    """Runs the phase commands ``argvs`` in one fresh process, after a bare
    ``import numpy``, and returns the modules among ``names``, or their
    submodules, that the process has loaded."""
    src = os.path.dirname(os.path.dirname(phase_surrogate.__file__))
    code = ("import json, sys\n"
            "import numpy\n"
            "from phase_surrogate.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "names = tuple(json.loads(sys.argv[2]))\n"
            "print(json.dumps(sorted(m for m in sys.modules if m in names\n"
            "                        or m.startswith(tuple(n + '.' for n in names)))))\n")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code, json.dumps(argvs),
                             json.dumps(names)],
                            env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestImports:
    def test_commands_import_no_scipy(self, ws, tmp_path):
        # scipy is a test-only dependency: importing it costs about a
        # second and 76 MB, so every command, run here in one fresh
        # process, must load no scipy module
        out = tmp_path
        argvs = [
            ["gen-data", "--seed", "9", "--grid", "coarse", "--years", "1",
             "--out", str(out / "world")],
            ["build-dataset", "--world", str(ws["world"]), "--seed", "1",
             "--out", str(out / "data")],
            ["train", "--data", str(ws["data"]), "--config", str(ws["config"]),
             "--out", str(out / "model.phm")],
            ["eval", "--model", str(ws["model"]), "--data", str(ws["data"]),
             "--out", str(out / "report")],
            ["restart-check", "--model", str(ws["model"]), "--world",
             str(ws["world"]), "--out", str(out / "drift.csv"), "--years", "5"],
        ]
        assert loaded_modules(argvs, ["scipy"]) == []

    def test_commands_import_no_masked_arrays(self, ws, tmp_path):
        # numpy imports numpy.ma on the first np.percentile or np.median,
        # and numpy.random on first use; eval needs neither, and train and
        # restart-check need no numpy.ma
        lazy = ["numpy.ma", "numpy.random"]
        if loaded_modules([], lazy):
            pytest.skip("this numpy loads numpy.ma and numpy.random on import")
        assert loaded_modules([["eval", "--model", str(ws["model"]), "--data",
                                str(ws["data"]), "--out", str(tmp_path / "report")]],
                              lazy) == []
        for argv in (["train", "--data", str(ws["data"]), "--config",
                      str(ws["config"]), "--out", str(tmp_path / "model.phm")],
                     ["restart-check", "--model", str(ws["model"]), "--world",
                      str(ws["world"]), "--out", str(tmp_path / "drift.csv"),
                      "--years", "5"]):
            assert "numpy.ma" not in loaded_modules([argv], lazy), argv[0]

    @pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                        reason="numpy < 2 loads numpy.random on import")
    def test_restart_check_imports_no_numpy_random(self, ws, tmp_path):
        # the world file holds the observations, so nothing is drawn; the
        # command runs as ``python -m``, and -X importtime lists each import
        src = os.path.dirname(os.path.dirname(phase_surrogate.__file__))
        out = tmp_path / "drift.csv"
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "phase_surrogate.cli",
             "restart-check", "--model", str(ws["model"]), "--world", str(ws["world"]),
             "--out", str(out), "--years", "5"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            check=True)
        imported = {line.rsplit("|", 1)[-1].strip() for line in result.stderr.splitlines()
                    if line.startswith("import time:")}
        assert out.exists() and "numpy" in imported
        assert sorted(m for m in imported if m.split(".")[:2] == ["numpy", "random"]) == []


class TestSteadyHeap:
    def test_fixes_both_thresholds(self):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        cli._steady_heap(types.SimpleNamespace(mallopt=mallopt))
        # M_MMAP_THRESHOLD 32 MiB, then M_TRIM_THRESHOLD 64 MiB
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_libc_without_mallopt_is_left_alone(self):
        cli._steady_heap(types.SimpleNamespace())
