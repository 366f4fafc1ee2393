"""End-to-end checks for the command-line workflow driver."""

import filecmp
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import phase_surrogate
from phase_surrogate import blobio, pipeline, simulator
from phase_surrogate.cli import main
from phase_surrogate.model import Surrogate

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


@pytest.fixture(scope="module")
def short(ws, tmp_path_factory):
    """The ws world's last year of forcing as a dataset, and a model trained
    on it."""
    root = tmp_path_factory.mktemp("short")
    paths = {"data": root / "data", "model": root / "model.phm"}
    assert main(["build-dataset", "--world", str(ws["world"]), "--seed", "1",
                 "--out", str(paths["data"]), "--window-years", "1"]) == 0
    assert main(["train", "--data", str(paths["data"]),
                 "--config", str(ws["config"]),
                 "--out", str(paths["model"])]) == 0
    return paths


class TestExitCodes:
    def test_no_arguments_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    def test_help_exits_clean(self):
        assert main(["--help"]) == 0

    def test_missing_required_flag(self):
        assert main(["gen-data"]) == 2

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
        blobio.save_blob_sequence(split, blobio.load_blob_sequence(split)[:4])
        rc = main(["eval", "--model", str(ws["model"]), "--data", str(data),
                   "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "test.pht" in err
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
        assert err.startswith("error:") and word in err
        assert "Traceback" not in err

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

    def test_zero_fraction_is_usage_error(self, ws, tmp_path):
        rc = main(["fine-tune", "--model", str(ws["model"]),
                   "--data-fine", str(ws["data"]), "--fraction", "0",
                   "--out", str(tmp_path / "t.phm")])
        assert rc == 2


class TestWindow:
    def test_default_window_is_the_stationary_years(self, ws, short):
        # a 6-yr world keeps its last 5 years by default
        assert Surrogate.load(str(ws["model"])).config.window_months == 60
        assert Surrogate.load(str(short["model"])).config.window_months == 12

    def test_eval_on_another_window_is_clean_runtime_error(self, ws, short,
                                                           tmp_path, capsys):
        rc = main(["eval", "--model", str(ws["model"]),
                   "--data", str(short["data"]),
                   "--out", str(tmp_path / "report")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "12 months" in err and "reads 60" in err
        assert not (tmp_path / "report").exists()

    def test_fine_tune_onto_another_window_is_clean_runtime_error(
            self, ws, short, tmp_path, capsys):
        out = tmp_path / "tuned.phm"
        rc = main(["fine-tune", "--model", str(ws["model"]),
                   "--data-fine", str(short["data"]), "--fraction", "0.5",
                   "--config", str(ws["config"]), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert "12 months" in err and "reads 60" in err
        assert not out.exists()

    def test_restart_check_exports_the_models_window(self, ws, short,
                                                     tmp_path):
        # the model refuses any other window, so exit 0 means restart-check
        # exported the last 12 months
        assert main(["restart-check", "--model", str(short["model"]),
                     "--world", str(ws["world"]),
                     "--out", str(tmp_path / "d.csv"), "--years", "1"]) == 0


class TestConfigCommand:
    def test_defaults_json(self, capsys):
        assert main(["config"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"model", "train"}
        assert out["model"]["dim"] == 64
        assert out["train"]["lr"] == pytest.approx(1e-3)
        assert out["train"]["patience"] == 10
        assert out["train"]["max_epochs"] == 200

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
        drift = [v for (n, _), v in rows.items() if n == "drift_max"]
        assert drift and all(np.isfinite(v) for v in drift)
        assert (ws["root"] / "drift.phr").exists()
        assert (ws["root"] / "drift_ood.csv").exists()

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


class TestImports:
    def test_commands_import_no_scipy(self, ws, tmp_path):
        # scipy is a test-only dependency: importing it costs about a
        # second and 76 MB, so every command, run here in one fresh
        # process, must load no scipy module
        src = os.path.dirname(os.path.dirname(phase_surrogate.__file__))
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
        code = ("import json, sys\n"
                "from phase_surrogate.cli import main\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    assert main(argv) == 0, argv\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m == 'scipy' or m.startswith('scipy.')))\n")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                                env=env, capture_output=True, text=True,
                                check=True)
        assert result.stdout.strip().splitlines()[-1] == "[]"
