import math
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from phase_surrogate import pipeline as pl
from phase_surrogate import simulator as sim
from phase_surrogate.errors import ContractError, RangeError


def brute_nearest(model, forcing):
    # argmin returns the first (lowest-index) minimizer, matching the tie rule
    d2 = ((model[:, None, :] - forcing[None, :, :]) ** 2).sum(-1)
    return d2.argmin(axis=1)


def kdtree_nearest(model, forcing):
    # reference: a cKDTree query widened until no tie can extend past the
    # returned neighbours, then the lowest tied index
    n_model, n_forcing = model.shape[0], forcing.shape[0]
    tree = cKDTree(forcing)
    k = min(n_forcing, 4)
    while True:
        dists, idxs = tree.query(model, k=k)
        dists = dists.reshape(n_model, k)
        idxs = idxs.reshape(n_model, k)
        tied = dists == dists[:, :1]
        if k < n_forcing and bool(tied[:, -1].any()):
            k = min(n_forcing, 2 * k)
            continue
        candidates = np.where(tied, idxs, n_forcing)
        return candidates.min(axis=1).astype(np.int64)


def make_samples(n, seed, n_pft=5, n_layers=9, months=240):
    rng = np.random.default_rng(seed)
    groups = {"g1": rng.uniform(0, 1, size=(n, months, 5)),
              "g2": rng.uniform(0, 1, size=(n, 8)),
              "g3": rng.uniform(0, 1, size=(n, n_pft, 3)),
              "g4": rng.uniform(0, 1, size=(n, n_pft, 5)),
              "g5": rng.uniform(0, 1, size=(n, n_layers, 3))}
    targets = {t: rng.uniform(1.0, 5.0, size=(n, n_pft)) for t in ("deadcrootc", "deadstemc", "tlai")}
    targets.update({t: rng.uniform(1.0, 5.0, size=(n, n_layers)) for t in ("cwdc", "soil3c", "soil4c")})
    targets.update({t: rng.uniform(0.5, 2.0, size=n) for t in ("gpp", "ar", "npp")})
    return pl.Samples(cell_id=np.arange(n, dtype=np.int64),
                      lat=rng.uniform(-90, 90, size=n), lon=rng.uniform(0, 360, size=n),
                      pft_code=np.tile(np.arange(n_pft), (n, 1)),
                      deepest_valid_layer=np.full(n, n_layers),
                      groups=groups, targets=targets)


class TestKdtreeMap:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        model = rng.uniform(-90, 90, size=(1000, 2))
        forcing = rng.uniform(-90, 90, size=(333, 2))
        got = pl.kdtree_map(model, forcing)
        want = brute_nearest(model, forcing)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, kdtree_nearest(model, forcing))

    def test_tie_resolves_to_lowest_index(self):
        # model point at the origin, forcing points 3 and 7 exactly equidistant
        forcing = np.array([[50.0, 50.0], [60, 60], [70, 70], [0.0, 1.0],
                            [40, 40], [30, 30], [20, 20], [0.0, -1.0]])
        got = pl.kdtree_map(np.array([[0.0, 0.0]]), forcing)
        assert got.tolist() == [3]

    def test_many_way_tie(self):
        # four forcing points on a unit circle around one model point
        forcing = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [-1.0, 0.0],
                            [5.0, 5.0]])
        got = pl.kdtree_map(np.zeros((1, 2)), forcing)
        assert got.tolist() == [0]

    def test_single_forcing_point(self):
        got = pl.kdtree_map(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[0.0, 0.0]]))
        assert got.tolist() == [0, 0]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            pl.kdtree_map(np.zeros((0, 2)), np.zeros((3, 2)))
        with pytest.raises(ContractError):
            pl.kdtree_map(np.zeros((3, 2)), np.zeros((0, 2)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ContractError):
            pl.kdtree_map(np.zeros((3, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("preset", ["coarse", "fine"])
    def test_matches_tree_on_world_lattices(self, preset):
        grid = sim.grid_spec(preset)
        for seed in range(5):
            land = sim._land_indices(seed, grid)
            ilat, ilon = np.divmod(land, grid.n_lon)
            model = np.stack([grid.lat_centers[ilat],
                              grid.lon_centers[ilon]], axis=1)
            points = sim._draw_points(seed, grid)
            forcing = np.stack([points.lat, points.lon], axis=1)
            np.testing.assert_array_equal(pl.kdtree_map(model, forcing),
                                          kdtree_nearest(model, forcing))


class TestTemporalAggregation:
    def test_trim_keeps_leading_steps_of_each_year(self):
        two_years = np.arange(2 * 1460)
        out = pl.trim_to_months(two_years)
        assert out.shape == (2880,)
        assert out[0] == 0 and out[1439] == 1439
        assert out[1440] == 1460 and out[-1] == 1460 + 1439

    def test_trim_preserves_trailing_axes(self):
        arr = np.arange(1460 * 3).reshape(1460, 3)
        out = pl.trim_to_months(arr)
        assert out.shape == (1440, 3)
        np.testing.assert_array_equal(out[:5], arr[:5])

    def test_trim_rejects_partial_year(self):
        with pytest.raises(RangeError):
            pl.trim_to_months(np.zeros(1461))

    def test_monthly_mean_matches_fsum_oracle(self):
        rng = np.random.default_rng(11)
        series = rng.uniform(-1e3, 1e3, size=1440).astype(np.float32)
        out = pl.aggregate_monthly(series)
        assert out.shape == (12,)
        assert out.dtype == np.float64
        for m in range(12):
            block = series[m * 120:(m + 1) * 120]
            want = math.fsum(float(v) for v in block) / 120.0
            assert out[m] == pytest.approx(want, rel=1e-9)

    def test_monthly_mean_vector_series(self):
        rng = np.random.default_rng(12)
        series = rng.normal(size=(240, 5))
        out = pl.aggregate_monthly(series)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out[0], series[:120].mean(axis=0), rtol=1e-12)

    def test_monthly_mean_rejects_ragged(self):
        with pytest.raises(RangeError):
            pl.aggregate_monthly(np.zeros(125))


class TestMinMax:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        vals = rng.uniform(-40, 260, size=500)
        stats = pl.minmax_fit(vals)
        norm = pl.minmax_apply(vals, stats)
        assert norm.min() == 0.0 and norm.max() == 1.0
        back = pl.minmax_invert(norm, stats)
        span = stats[1] - stats[0]
        assert np.abs(back - vals).max() <= 1e-6 * span

    def test_constant_channel_maps_to_zero(self):
        vals = np.full(32, 7.5)
        stats = pl.minmax_fit(vals)
        norm = pl.minmax_apply(vals, stats)
        assert np.all(norm == 0.0)
        # inversion recovers the constant
        np.testing.assert_allclose(pl.minmax_invert(norm, stats), vals)

    def test_out_of_range_values_not_clipped(self):
        stats = (0.0, 10.0)
        norm = pl.minmax_apply(np.array([-5.0, 15.0]), stats)
        np.testing.assert_allclose(norm, [-0.5, 1.5])

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            pl.minmax_fit(np.zeros(0))


class TestSplitShuffle:
    def test_documented_sizes(self):
        ids = np.arange(20975)
        train, test = pl.split_shuffle(ids, seed=0)
        assert train.shape[0] == 16780
        assert test.shape[0] == 4195

    def test_partition_and_determinism(self):
        ids = np.arange(1000) * 3
        a_train, a_test = pl.split_shuffle(ids, seed=5)
        b_train, b_test = pl.split_shuffle(ids, seed=5)
        np.testing.assert_array_equal(a_train, b_train)
        np.testing.assert_array_equal(a_test, b_test)
        merged = np.sort(np.concatenate([a_train, a_test]))
        np.testing.assert_array_equal(merged, np.sort(ids))

    def test_different_seed_differs(self):
        ids = np.arange(100)
        a, _ = pl.split_shuffle(ids, seed=1)
        b, _ = pl.split_shuffle(ids, seed=2)
        assert not np.array_equal(a, b)

    def test_too_small_rejected(self):
        with pytest.raises(ContractError):
            pl.split_shuffle(np.arange(4), seed=0)


class TestBatchByLatLon:
    def test_chunks_follow_lat_lon_sort(self):
        rng = np.random.default_rng(9)
        lat = rng.uniform(-90, 90, size=700)
        lon = rng.uniform(0, 360, size=700)
        chunks = pl.batch_by_latlon(lat, lon, 256)
        assert [len(c) for c in chunks] == [256, 256, 188]
        order = np.concatenate(chunks)
        np.testing.assert_array_equal(order, np.lexsort((lon, lat)))
        # a batch never spans a latitude range larger than adjacent sorted rows
        for c in chunks:
            assert np.all(np.diff(lat[c]) >= 0)

    def test_partition(self):
        lat = np.array([3.0, 1.0, 2.0])
        lon = np.array([0.0, 0.0, 0.0])
        chunks = pl.batch_by_latlon(lat, lon, 2)
        assert sorted(np.concatenate(chunks).tolist()) == [0, 1, 2]

    def test_bad_batch_size(self):
        with pytest.raises(ContractError):
            pl.batch_by_latlon(np.zeros(3), np.zeros(3), 0)


class TestClean:
    def test_valid_records_pass_through(self):
        samples = make_samples(8, seed=0)
        kept, dropped = pl.clean(samples)
        assert kept.n == 8
        assert sum(dropped.values()) == 0
        for g in pl.GROUPS:
            np.testing.assert_array_equal(kept.groups[g], samples.groups[g])

    def test_invalid_pft_code_dropped(self):
        samples = make_samples(4, seed=1)
        samples.pft_code[2] = [0, 1, 2, 3, 9]
        kept, dropped = pl.clean(samples)
        assert kept.n == 3
        assert dropped["pft_code"] == 1
        assert kept.cell_id.tolist() == [0, 1, 3]
        np.testing.assert_array_equal(kept.targets["gpp"], samples.targets["gpp"][[0, 1, 3]])

    def test_carbon_below_valid_depth_dropped(self):
        samples = make_samples(4, seed=2)
        samples.deepest_valid_layer[1] = 6
        kept, dropped = pl.clean(samples)
        assert dropped["below_valid_depth"] == 1
        # zeroing the invalid layers makes the record acceptable
        samples.groups["g5"][1, 6:] = 0.0
        kept, dropped = pl.clean(samples)
        assert kept.n == 4

    def test_bad_code_and_deep_carbon_count_once_as_code(self):
        samples = make_samples(5, seed=3)
        samples.pft_code[3] = [0, 1, 2, 3, -1]
        samples.deepest_valid_layer[3] = 6
        kept, dropped = pl.clean(samples)
        assert dropped == {"pft_code": 1, "below_valid_depth": 0}
        assert kept.cell_id.tolist() == [0, 1, 2, 4]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "dataset"
    samples = make_samples(60, seed=4)
    ds = pl.build_dataset(samples, seed=21, out_dir=str(out), batch_size=16)
    return samples, ds, str(out)


class TestBuildDataset:
    def test_split_sizes(self, built):
        _, ds, _ = built
        assert ds.train.n == 48 and ds.test.n == 12
        assert set(ds.train.cell_id) & set(ds.test.cell_id) == set()

    def test_train_features_unit_range(self, built):
        _, ds, _ = built
        for name, g, i in pl.FEATURE_CHANNELS:
            vals = ds.train.groups[g][..., i]
            assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-6, name

    def test_stats_come_from_train_only(self, built):
        samples, ds, _ = built
        # cell ids are row indices in make_samples
        g2 = samples.groups["g2"][np.sort(ds.train.cell_id)]
        lo, hi = ds.feature_stats["g2.alpha"]
        assert lo == pytest.approx(g2[:, 3].min())
        assert hi == pytest.approx(g2[:, 3].max())

    def test_flux_targets_share_scale(self, built):
        _, ds, _ = built
        stats = {t: ds.target_stats[t] for t in pl.FLUX_TASKS}
        assert all(s[0] == 0.0 for s in stats.values())
        assert len({s[1] for s in stats.values()}) == 1

    def test_round_trip_matches_memory(self, built):
        _, ds, out = built
        loaded = pl.load_dataset(out)
        for part in ("train", "test"):
            a, b = ds.split(part), loaded.split(part)
            np.testing.assert_array_equal(a.cell_id, b.cell_id)
            for g in pl.GROUPS:
                np.testing.assert_array_equal(a.groups[g], b.groups[g])
            for t in pl.TASKS:
                np.testing.assert_array_equal(a.targets[t], b.targets[t])
        assert loaded.target_stats == {k: tuple(v) for k, v in ds.target_stats.items()}

    def test_target_denormalization_recovers_physical(self, built):
        samples, ds, _ = built
        phys = ds.denorm_target("soil3c", ds.test.targets["soil3c"])
        want = samples.targets["soil3c"][ds.test.cell_id]
        np.testing.assert_allclose(phys, want, rtol=1e-5, atol=1e-7)

    def test_byte_identical_rebuild(self, built, tmp_path):
        _, _, out = built
        again = tmp_path / "again"
        pl.build_dataset(make_samples(60, seed=4), seed=21, out_dir=str(again), batch_size=16)
        for root, _dirs, files in os.walk(out):
            rel_root = os.path.relpath(root, out)
            for f in sorted(files):
                a = os.path.join(root, f)
                b = os.path.join(str(again), rel_root, f)
                with open(a, "rb") as fa, open(b, "rb") as fb:
                    assert fa.read() == fb.read(), f

    def test_batches_are_spatially_sorted(self, built):
        _, ds, _ = built
        # on-disk order is sorted by (lat, lon) within each split
        assert np.all(np.diff(ds.train.lat) >= 0)

    def test_rejects_too_few_records(self, tmp_path):
        samples = make_samples(6, seed=5)
        samples.pft_code[:3] = [0, 1, 2, 3, 99]
        with pytest.raises(ContractError):
            pl.build_dataset(samples, seed=0, out_dir=str(tmp_path / "x"))

    def test_load_rejects_non_dataset(self, tmp_path):
        from phase_surrogate import blobio
        blobio.save_json(str(tmp_path / "manifest.json"), {"format": "other"})
        with pytest.raises(ContractError):
            pl.load_dataset(str(tmp_path))
