import numpy as np
import pytest

from phase_surrogate import blobio, ood, pipeline
from phase_surrogate.errors import ContractError, ShapeError


@pytest.fixture(scope="module")
def guard(toy_model, toy_dataset):
    return ood.fit_ood(toy_model, toy_dataset.train.groups)


def train_groups(dataset):
    """A float64 copy of the train split's physical-unit groups."""
    return {g: a.astype(np.float64) for g, a in dataset.train.groups.items()}


def check(model, groups):
    _, z = model.predict(groups)
    return ood.check(z, groups, model)


class TestFit:
    def test_train_fits_the_guard_on_the_train_split(self, guard, toy_model):
        assert toy_model.ood_stats.threshold == guard.threshold
        np.testing.assert_array_equal(toy_model.ood_stats.latent_mean,
                                      guard.latent_mean)
        np.testing.assert_array_equal(toy_model.ood_stats.latent_var,
                                      guard.latent_var)

    def test_threshold_bounds_train_scores(self, guard, toy_model,
                                           toy_dataset):
        _, z = toy_model.predict(train_groups(toy_dataset))
        scores = ood._scores(z.astype(np.float64), guard)
        assert guard.threshold >= np.percentile(scores, 98.9)
        assert guard.threshold <= scores.max()

    def test_train_flag_rate_small(self, toy_model, toy_dataset):
        # the Q=99 latent threshold leaves at most ~1% of train flagged,
        # which rounds up to one sample on a tiny split
        n = toy_dataset.train.n
        flags, _, _ = check(toy_model, toy_dataset.train.groups)
        assert flags.sum() <= max(1, 0.01 * n)

    def test_empty_train_rejected(self, toy_model, toy_dataset):
        empty = {g: a[:0] for g, a in toy_dataset.train.groups.items()}
        with pytest.raises(ContractError):
            ood.fit_ood(toy_model, empty)

    def test_deterministic(self, toy_model, toy_dataset):
        a = ood.fit_ood(toy_model, toy_dataset.train.groups)
        b = ood.fit_ood(toy_model, toy_dataset.train.groups)
        assert a.threshold == b.threshold
        np.testing.assert_array_equal(a.latent_mean, b.latent_mean)


class TestCheck:
    def test_in_distribution_batch_mostly_clean(self, toy_model,
                                                toy_dataset):
        flags, scores, reasons = check(toy_model, train_groups(toy_dataset))
        n = toy_dataset.train.n
        assert flags.shape == (n,)
        assert scores.shape == flags.shape
        assert flags.sum() <= max(1, 0.01 * n)
        for flag, reason in zip(flags, reasons):
            assert flag == bool(reason)

    def test_blown_feature_is_named(self, toy_model, toy_dataset):
        groups = train_groups(toy_dataset)
        groups["g2"][0, 3] = 10.0
        flags, _, reasons = check(toy_model, groups)
        assert flags[0]
        assert "g2.alpha" in reasons[0]

    def test_envelope_is_feature_range_widened_by_tau(self, toy_model,
                                                      toy_dataset):
        lo, hi = toy_model.feature_stats["g2.alpha"]
        margin = ood.TAU * (hi - lo)
        groups = train_groups(toy_dataset)
        groups["g2"][:4, pipeline.G2_FIELDS.index("alpha")] = [
            lo - 1.01 * margin, lo - 0.99 * margin,
            hi + 0.99 * margin, hi + 1.01 * margin]
        _, _, reasons = check(toy_model, groups)
        assert ["g2.alpha" in r for r in reasons[:4]] == [True, False,
                                                          False, True]

    def test_far_latent_flagged(self, toy_model, toy_dataset):
        groups = train_groups(toy_dataset)
        # push every channel just inside the widened envelope so only the
        # latent criterion can fire
        for name, g, i in pipeline.FEATURE_CHANNELS:
            lo, hi = toy_model.feature_stats[name]
            groups[g][0, ..., i] = hi + 0.99 * ood.TAU * (hi - lo)
        flags, scores, reasons = check(toy_model, groups)
        if flags[0]:
            assert reasons[0] == ["latent"]
            assert scores[0] > toy_model.ood_stats.threshold

    def test_latent_row_count_must_match(self, toy_model, toy_dataset):
        groups = train_groups(toy_dataset)
        _, z = toy_model.predict(groups)
        with pytest.raises(ShapeError):
            ood.check(z[1:], groups, toy_model)


class TestPersistence:
    def test_manifest_round_trip(self, guard, tmp_path):
        manifest, arrays = guard.to_manifest()
        assert sorted(manifest) == ["threshold"]
        path = str(tmp_path / "guard.phm")
        blobio.write_model_file(path, {"format": "guard", **manifest,
                                       "params": sorted(arrays)}, arrays)
        back_manifest, back_arrays = blobio.read_model_file(path)
        again = ood.OodStats.from_manifest(back_manifest, back_arrays)
        assert again.threshold == guard.threshold
        np.testing.assert_array_equal(again.latent_mean, guard.latent_mean)
        np.testing.assert_array_equal(again.latent_var, guard.latent_var)

    def test_older_manifest_with_tau_and_q_loads(self, guard):
        manifest, arrays = guard.to_manifest()
        again = ood.OodStats.from_manifest(
            dict(manifest, tau=ood.TAU, q=ood.Q), arrays)
        assert again.threshold == guard.threshold
        np.testing.assert_array_equal(again.latent_mean, guard.latent_mean)

    def test_travels_inside_model_file(self, toy_model, guard, tmp_path):
        model = toy_model.clone()
        model.ood_stats = guard
        path = str(tmp_path / "model.phm")
        model.save(path)
        from phase_surrogate.model import Surrogate
        back = Surrogate.load(path)
        assert back.ood_stats.threshold == guard.threshold
        np.testing.assert_array_equal(back.ood_stats.latent_mean,
                                      guard.latent_mean)
        # the feature envelope is the model's feature stats, not a copy
        _, arrays = blobio.read_model_file(path)
        assert sorted(n for n in arrays if n.startswith("ood.")) == [
            "ood.latent_mean", "ood.latent_var"]


class TestReportCsv:
    def test_rows_and_reasons(self, tmp_path):
        path = tmp_path / "ood.csv"
        ood.write_report_csv(str(path), [7, 9], np.array([True, False]),
                             np.array([5.5, 0.25]),
                             [["g2.alpha", "latent"], []])
        lines = path.read_text().splitlines()
        assert lines[0] == "cell_id,flagged,score,reasons"
        assert lines[1] == "7,1,5.5,g2.alpha|latent"
        assert lines[2] == "9,0,0.25,"
