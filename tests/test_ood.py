import dataclasses

import numpy as np
import pytest

from phase_surrogate import blobio, ood, pipeline
from phase_surrogate.errors import ContractError, ShapeError


@pytest.fixture(scope="module")
def guard(toy_model, toy_dataset):
    return ood.fit_ood(toy_model, toy_dataset, tau=0.05, q=99.0)


def train_groups(dataset):
    return {g: dataset.train.groups[g] for g in pipeline.GROUPS}


def check(model, groups, stats):
    _, z = model.predict(groups)
    return ood.check(z, groups, stats)


class TestFit:
    def test_envelope_matches_observed_extremes(self, guard, toy_dataset):
        for g in pipeline.GROUPS:
            arr = toy_dataset.train.groups[g]
            axes = tuple(range(arr.ndim - 1))
            np.testing.assert_allclose(guard.env_lo[g], arr.min(axis=axes))
            np.testing.assert_allclose(guard.env_hi[g], arr.max(axis=axes))

    def test_threshold_bounds_train_scores(self, guard, toy_model,
                                           toy_dataset):
        _, z = toy_model.predict(train_groups(toy_dataset))
        scores = ood._scores(z.astype(np.float64), guard)
        assert guard.threshold >= np.percentile(scores, 98.9)
        assert guard.threshold <= scores.max()

    def test_train_flag_rate_small(self, guard, toy_model, toy_dataset):
        # the q=99 latent threshold leaves at most ~1% of train flagged,
        # which rounds up to one sample on a tiny split
        n = toy_dataset.train.n
        rate = ood.flag_rate(toy_model, toy_dataset.train, guard)
        assert rate * n <= max(1, 0.01 * n)

    def test_empty_train_rejected(self, toy_model, toy_dataset):
        src = toy_dataset.train
        bare = dataclasses.replace(
            src, cell_id=src.cell_id[:0], lat=src.lat[:0], lon=src.lon[:0],
            groups={g: a[:0] for g, a in src.groups.items()},
            targets={t: a[:0] for t, a in src.targets.items()})
        empty = dataclasses.replace(toy_dataset, train=bare)
        with pytest.raises(ContractError):
            ood.fit_ood(toy_model, empty)

    def test_deterministic(self, toy_model, toy_dataset):
        a = ood.fit_ood(toy_model, toy_dataset)
        b = ood.fit_ood(toy_model, toy_dataset)
        assert a.threshold == b.threshold
        np.testing.assert_array_equal(a.latent_mean, b.latent_mean)


class TestCheck:
    def test_in_distribution_batch_mostly_clean(self, guard, toy_model,
                                                toy_dataset):
        flags, scores, reasons = check(toy_model, train_groups(toy_dataset),
                                       guard)
        n = toy_dataset.train.n
        assert flags.shape == (n,)
        assert scores.shape == flags.shape
        assert flags.sum() <= max(1, 0.01 * n)
        for flag, reason in zip(flags, reasons):
            assert flag == bool(reason)

    def test_blown_feature_is_named(self, guard, toy_model, toy_dataset):
        groups = {g: a.copy() for g, a in train_groups(toy_dataset).items()}
        groups["g2"][0, 3] = 10.0
        flags, _, reasons = check(toy_model, groups, guard)
        assert flags[0]
        assert "g2.alpha" in reasons[0]

    def test_far_latent_flagged(self, guard, toy_model, toy_dataset):
        groups = {g: a.copy() for g, a in train_groups(toy_dataset).items()}
        # push every channel just inside the widened envelope so only the
        # latent criterion can fire
        for g in pipeline.GROUPS:
            span = guard.env_hi[g] - guard.env_lo[g]
            groups[g][0] = (guard.env_hi[g] + 0.99 * guard.tau * span
                            ).astype(np.float32)
        flags, scores, reasons = check(toy_model, groups, guard)
        if flags[0]:
            assert reasons[0] == ["latent"]
            assert scores[0] > guard.threshold

    def test_latent_row_count_must_match(self, guard, toy_model,
                                         toy_dataset):
        groups = train_groups(toy_dataset)
        _, z = toy_model.predict(groups)
        with pytest.raises(ShapeError):
            ood.check(z[1:], groups, guard)

    def test_wider_tau_flags_less(self, toy_model, toy_dataset):
        tight = ood.fit_ood(toy_model, toy_dataset, tau=0.0)
        loose = ood.fit_ood(toy_model, toy_dataset, tau=0.5)
        groups = {g: a.copy() for g, a in train_groups(toy_dataset).items()}
        groups["g2"][:, 3] = groups["g2"][:, 3].max() + 0.1
        tight_flags, _, _ = check(toy_model, groups, tight)
        loose_flags, _, _ = check(toy_model, groups, loose)
        assert tight_flags.sum() >= loose_flags.sum()


class TestPersistence:
    def test_manifest_round_trip(self, guard, tmp_path):
        manifest, arrays = guard.to_manifest()
        path = str(tmp_path / "guard.phm")
        blobio.write_model_file(path, {"format": "guard", **manifest,
                                       "params": sorted(arrays)}, arrays)
        back_manifest, back_arrays = blobio.read_model_file(path)
        again = ood.OodStats.from_manifest(back_manifest, back_arrays)
        assert again.tau == guard.tau
        assert again.q == guard.q
        assert again.threshold == guard.threshold
        np.testing.assert_array_equal(again.latent_mean, guard.latent_mean)
        np.testing.assert_array_equal(again.latent_var, guard.latent_var)
        for g in pipeline.GROUPS:
            np.testing.assert_array_equal(again.env_lo[g], guard.env_lo[g])
            np.testing.assert_array_equal(again.env_hi[g], guard.env_hi[g])

    def test_travels_inside_model_file(self, toy_model, guard, tmp_path):
        model = toy_model.clone()
        model.ood_stats = guard
        path = str(tmp_path / "model.phm")
        model.save(path)
        from phase_surrogate.model import Surrogate
        back = Surrogate.load(path)
        assert back.ood_stats is not None
        assert back.ood_stats.threshold == guard.threshold
        np.testing.assert_array_equal(back.ood_stats.latent_mean,
                                      guard.latent_mean)


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
