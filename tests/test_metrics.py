import math

import numpy as np
import pytest

from phase_surrogate import metrics, pipeline
from phase_surrogate.errors import (ContractError, RangeError, ShapeError,
                                    UndefinedMetricError)


class TestR2:
    def test_perfect_prediction(self):
        truth = np.random.default_rng(0).uniform(0, 5, 30)
        assert metrics.r2(truth.copy(), truth) == 1.0

    def test_mean_predictor_scores_zero(self):
        truth = np.random.default_rng(1).uniform(0, 5, 30)
        pred = np.full_like(truth, truth.mean())
        assert metrics.r2(pred, truth) == pytest.approx(0.0, abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((25, 4))
        pred = truth + 0.3 * rng.standard_normal((25, 4))
        ss_res = math.fsum((pred - truth).ravel() ** 2)
        mu = math.fsum(truth.ravel()) / truth.size
        ss_tot = math.fsum((truth.ravel() - mu) ** 2)
        assert metrics.r2(pred, truth) == pytest.approx(1 - ss_res / ss_tot,
                                                        rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.r2(np.zeros(3), np.zeros(4))

    def test_single_sample_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.r2(np.ones(1), np.ones(1))

    def test_constant_truth_undefined(self):
        with pytest.raises(UndefinedMetricError):
            metrics.r2(np.arange(4.0), np.ones(4))


class TestRmse:
    def test_zero_for_identity(self):
        vals = np.random.default_rng(3).uniform(0, 2, (6, 3))
        assert metrics.rmse(vals.copy(), vals) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(4)
        pred, truth = rng.standard_normal((2, 40))
        want = math.sqrt(math.fsum((pred - truth) ** 2) / 40)
        assert metrics.rmse(pred, truth) == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.rmse(np.zeros(3), np.zeros((3, 1)))


class TestPhysicsResidual:
    def test_consistent_triple_is_zero(self):
        rng = np.random.default_rng(5)
        gpp = rng.uniform(1, 2, 50)
        ar = 0.9 * gpp
        assert metrics.physics_residual(gpp, ar, gpp - ar) == 0.0

    def test_constant_gap_squares(self):
        gpp = np.full(8, 5.0)
        ar = np.full(8, 2.0)
        npp = np.full(8, 3.0) + 3.0
        assert metrics.physics_residual(gpp, ar, npp) == pytest.approx(9.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.physics_residual(np.zeros(3), np.zeros(3), np.zeros(2))


class TestPerDimensionScores:
    def test_flags_corrupted_component(self):
        rng = np.random.default_rng(6)
        truth = rng.uniform(0, 1, (40, 4))
        pred = truth.copy()
        pred[:, 2] = rng.permutation(pred[:, 2])
        rows = metrics.per_dimension_scores(pred, truth)
        assert [i for i, _, _ in rows] == [0, 1, 2, 3]
        scores = {i: s for i, s, _ in rows}
        assert scores[0] == scores[1] == scores[3] == 1.0
        assert scores[2] < 0.8

    def test_rmse_aggregates_across_dims(self):
        rng = np.random.default_rng(7)
        truth = rng.uniform(0, 1, (30, 5))
        pred = truth + 0.1 * rng.standard_normal((30, 5))
        rows = metrics.per_dimension_scores(pred, truth)
        total = metrics.rmse(pred, truth)
        assert total ** 2 == pytest.approx(
            np.mean([err ** 2 for _, _, err in rows]), rel=1e-9)

    def test_scalar_task_rejected(self):
        with pytest.raises(ContractError):
            metrics.per_dimension_scores(np.zeros(5), np.zeros(5))


class TestLatitudeBands:
    def test_band_masks_partition(self):
        lat = np.linspace(-89, 89, 45)
        tropics = metrics.band_mask(lat, "tropics")
        extra = metrics.band_mask(lat, "extratropics")
        assert not np.any(tropics & extra)
        assert np.all(tropics | extra)

    def test_interval_band(self):
        lat = np.array([-30.0, 0.0, 29.9, 30.0, 45.0])
        mask = metrics.band_mask(lat, (0.0, 30.0))
        np.testing.assert_array_equal(mask, [False, True, True, False, False])

    def test_error_summary(self):
        rng = np.random.default_rng(8)
        lat = rng.uniform(-60, 60, 30)
        truth = rng.uniform(0, 1, (30, 4))
        pred = truth + 0.05
        s = metrics.latitudinal_errors(lat, pred, truth, "tropics")
        n_cells = int(metrics.band_mask(lat, "tropics").sum())
        assert s["count"] == n_cells * 4
        assert s["mean"] == pytest.approx(0.05, rel=1e-9)
        assert s["q50"] == pytest.approx(0.05, rel=1e-9)

    def test_empty_band(self):
        lat = np.array([40.0, 50.0])
        with pytest.raises(RangeError):
            metrics.latitudinal_errors(lat, np.zeros(2), np.zeros(2),
                                       "tropics")


@pytest.fixture(scope="module")
def toy_report(toy_model, toy_dataset):
    return metrics.evaluate(toy_model, toy_dataset, split="test")


class TestEvaluate:
    def test_report_covers_all_tasks(self, toy_report, toy_dataset):
        assert set(toy_report.tasks) == set(pipeline.TASKS) | {
            "_phys_residual"}
        assert toy_report.n == toy_dataset.test.n
        for t in pipeline.TASKS:
            assert toy_report.tasks[t]["r2"] <= 1.0
            assert toy_report.tasks[t]["rmse"] >= 0.0

    def test_vector_tasks_carry_per_dim_rows(self, toy_report):
        assert len(toy_report.tasks["soil3c"]["per_dim"]) == 9
        assert len(toy_report.tasks["tlai"]["per_dim"]) == 5
        assert "per_dim" not in toy_report.tasks["gpp"]

    def test_physical_space_round_trip(self, toy_report, toy_model,
                                       toy_dataset):
        # the toy stats are identity, so physical == normalized
        batch = {g: toy_dataset.test.groups[g] for g in pipeline.GROUPS}
        out, z = toy_model.forward(batch)
        np.testing.assert_allclose(toy_report.preds["gpp"],
                                   out["gpp"].data.astype(np.float64),
                                   rtol=1e-6)
        np.testing.assert_allclose(toy_report.latent, z.data, rtol=1e-6)

    def test_residual_matches_flux_identity(self, toy_report):
        want = metrics.physics_residual(toy_report.preds["gpp"],
                                        toy_report.preds["ar"],
                                        toy_report.preds["npp"])
        assert toy_report.tasks["_phys_residual"] == pytest.approx(
            want, rel=1e-5)

    def test_mean_r2_over_slow_tasks(self, toy_report):
        want = np.mean([toy_report.tasks[t]["r2"]
                        for t in pipeline.SLOW_TASKS])
        assert toy_report.mean_r2() == pytest.approx(want, rel=1e-12)


class TestAggregation:
    def test_format(self):
        assert metrics.format_mean_std(0.9012, 0.0123) == "0.901+-0.012"
        assert metrics.format_mean_std(1.0, 0.0, digits=2) == "1.00+-0.00"


class TestMapCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        lat = rng.uniform(-90, 90, 12)
        lon = rng.uniform(-180, 180, 12)
        pred = rng.standard_normal(12)
        truth = rng.standard_normal(12)
        path = tmp_path / "map.csv"
        metrics.export_map_csv(str(path), lat, lon, pred, truth)
        back = metrics.read_map_csv(str(path))
        np.testing.assert_array_equal(back["predicted"], pred)
        np.testing.assert_array_equal(back["truth"], truth)
        np.testing.assert_array_equal(back["difference"], pred - truth)
        assert metrics.r2(back["predicted"], back["truth"]) == \
            pytest.approx(metrics.r2(pred, truth), rel=1e-12)

    def test_single_row_file(self, tmp_path):
        path = tmp_path / "one.csv"
        metrics.export_map_csv(str(path), np.ones(1), np.ones(1),
                               np.ones(1), np.zeros(1))
        back = metrics.read_map_csv(str(path))
        assert back["lat"].shape == (1,)

    def test_shape_mismatch(self, tmp_path):
        with pytest.raises(ShapeError):
            metrics.export_map_csv(str(tmp_path / "bad.csv"), np.ones(2),
                                   np.ones(2), np.ones(2), np.ones(3))


class TestExportReport:
    def test_writes_all_files(self, toy_report, tmp_path):
        out = tmp_path / "report"
        metrics.export_report(toy_report, str(out))
        lines = (out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "task,r2,rmse"
        assert len(lines) == 1 + len(pipeline.TASKS) + 1

        per_dim = (out / "per_dimension.csv").read_text().splitlines()
        assert len(per_dim) == 1 + 3 * 5 + 3 * 9

        maps = sorted(p.name for p in (out / "maps").iterdir())
        assert len(maps) == 3 * 5 + 3 * 9
        assert "soil3c_0.csv" in maps and "tlai_4.csv" in maps

    def test_metrics_csv_parses_back(self, toy_report, tmp_path):
        out = tmp_path / "report"
        metrics.export_report(toy_report, str(out))
        rows = {}
        for line in (out / "metrics.csv").read_text().splitlines()[1:]:
            name, r2_s, rmse_s = line.split(",")
            rows[name] = (r2_s, rmse_s)
        for t in pipeline.TASKS:
            assert float(rows[t][0]) == toy_report.tasks[t]["r2"]
            assert float(rows[t][1]) == toy_report.tasks[t]["rmse"]
        assert float(rows["_phys_residual"][1]) == \
            toy_report.tasks["_phys_residual"]

    def test_band_rows_match_masks(self, toy_report, tmp_path):
        out = tmp_path / "report"
        metrics.export_report(toy_report, str(out))
        lines = (out / "latitude_bands.csv").read_text().splitlines()[1:]
        for line in lines:
            parts = line.split(",")
            task, band, count = parts[0], parts[1], int(parts[2])
            width = toy_report.preds[task].shape[1]
            n_cells = int(metrics.band_mask(toy_report.lat, band).sum())
            assert count == n_cells * width
