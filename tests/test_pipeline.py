import os
import shutil

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import WIDTH
from phase_surrogate import blobio
from phase_surrogate import pipeline as pl
from phase_surrogate import simulator as sim
from phase_surrogate import training
from phase_surrogate.errors import ContractError


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


def make_samples(n, seed, n_pft=5, n_layers=9):
    rng = np.random.default_rng(seed)
    groups = {"g1": rng.uniform(0, 1, size=(n, 12, WIDTH["g1"])),
              "g2": rng.uniform(0, 1, size=(n, WIDTH["g2"])),
              "g3": rng.uniform(0, 1, size=(n, n_pft, WIDTH["g3"])),
              "g4": rng.uniform(0, 1, size=(n, n_pft, WIDTH["g4"])),
              "g5": rng.uniform(0, 1, size=(n, n_layers, WIDTH["g5"]))}
    targets = {t: rng.uniform(1.0, 5.0, size=(n, n_pft)) for t in ("deadcrootc", "deadstemc", "tlai")}
    targets.update({t: rng.uniform(1.0, 5.0, size=(n, n_layers)) for t in ("cwdc", "soil3c", "soil4c")})
    targets.update({t: rng.uniform(0.5, 2.0, size=n) for t in ("gpp", "ar", "npp")})
    groups["prior"] = np.random.default_rng([seed, 1]).uniform(-0.5, 0.5, size=(n, 3))
    return pl.Samples(cell_id=np.arange(n, dtype=np.int64),
                      lat=rng.uniform(-90, 90, size=n), lon=rng.uniform(0, 360, size=n),
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

    @pytest.mark.parametrize("rows_per_block", [3, None])
    def test_matches_tree_across_blocks(self, monkeypatch, rows_per_block):
        # forcing on a shuffled integer lattice, so a model point at a
        # half-integer is an exact tie; two such points sit on either side
        # of the first block boundary
        rng = np.random.default_rng(11)
        lattice = np.stack(np.meshgrid(np.arange(8.0), np.arange(8.0)), -1)
        forcing = rng.permutation(lattice.reshape(-1, 2))
        if rows_per_block is not None:
            monkeypatch.setattr(pl, "MAP_BLOCK_BYTES", 8 * 64 * rows_per_block)
        rows = pl.MAP_BLOCK_BYTES // (8 * 64)
        model = rng.uniform(-1.0, 8.0, size=(2 * rows + rows // 2 + 1, 2))
        model[rows - 1] = [2.5, 3.5]
        model[rows] = [4.5, 4.0]
        got = pl.kdtree_map(model, forcing)
        np.testing.assert_array_equal(got, kdtree_nearest(model, forcing))
        np.testing.assert_array_equal(got, brute_nearest(model, forcing))
        for row, tied in ((rows - 1, [[2, 3], [2, 4], [3, 3], [3, 4]]),
                          (rows, [[4, 4], [5, 4]])):
            idx = [int(np.flatnonzero((forcing == p).all(axis=1))[0]) for p in tied]
            assert got[row] == min(idx)

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

    def test_groups_round_trip(self, built):
        # the stored groups are the samples' physical units, and the train
        # stats map them into [0, 1] and back
        samples, ds, _ = built
        for g in pl.GROUPS:
            np.testing.assert_array_equal(ds.train.groups[g],
                                          samples.groups[g][ds.train.cell_id])
        normalized = pl.normalize_groups(ds.train.groups, ds.feature_stats)
        for name, g, i in pl.FEATURE_CHANNELS:
            assert normalized[g].dtype == np.float32
            back = pl.minmax_invert(normalized[g][..., i], ds.feature_stats[name])
            np.testing.assert_allclose(back, ds.train.groups[g][..., i],
                                       rtol=1e-5, atol=1e-6)

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


def same_bits(got, want):
    """Equal as float64 bit patterns; any NaN matches any NaN."""
    want = np.float64(want)
    if np.isnan(want):
        return np.isnan(got)
    return np.float64(got).tobytes() == want.tobytes()


ORDER_CASES = {
    "one": [3.5],
    "two": [2.0, -1.0],
    "odd": [0.3, -7.25, 1e-3, 12.0, 4.5, -0.1, 2.0],
    "even": [0.3, -7.25, 1e-3, 12.0, 4.5, -0.1, 2.0, 9.75],
    "duplicates": [1.0, 2.0, 1.0, 1.0, 2.0, 0.5, 2.0, 2.0],
    "all_equal": [0.1] * 6,
    "negative_zero": [-0.0, -0.0, 1.0, -0.0],
    "one_inf": [np.inf],
    "infinities": [np.inf, -np.inf, 1.0, 2.0, -3.0],
    "inf_pair": [-np.inf, np.inf],
    "inf_duplicates": [np.inf, np.inf, 1.0, -np.inf, -np.inf, 0.5],
    "nan": [1.0, np.nan, 2.0],
    "nan_and_inf": [np.inf, np.nan, -np.inf, 4.0],
    "one_nan": [np.nan],
}


class TestOrderStatistics:
    # the reports take their quantiles and medians from these helpers
    # instead of np.percentile and np.median, which import numpy.ma; they
    # must agree with numpy bit for bit

    @pytest.mark.parametrize("name", ORDER_CASES)
    def test_quantiles_match_numpy(self, name):
        values = np.array(ORDER_CASES[name])
        ordered = np.sort(values)
        for p in (5.0, 25.0, 50.0, 75.0, 95.0, 99.0):
            with np.errstate(invalid="ignore"):
                want = np.percentile(values, p)
            got = pl.sorted_quantile(ordered, p / 100)
            assert type(got) is float
            assert same_bits(got, want), (p, got, want)

    @pytest.mark.parametrize("name", ORDER_CASES)
    def test_median_matches_numpy(self, name):
        values = np.array(ORDER_CASES[name])
        with np.errstate(invalid="ignore"):
            want = np.median(values)
        got = pl.median(values)
        assert type(got) is float
        assert same_bits(got, want), (got, want)

    def test_median_of_a_block_takes_every_element(self):
        values = np.random.default_rng(5).standard_normal((7, 4))
        assert same_bits(pl.median(values), np.median(values))

    def test_random_samples_match_numpy(self):
        rng = np.random.default_rng(11)
        for n in range(1, 40):
            if n % 3:
                values = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6)
            else:
                values = rng.integers(-4, 5, n) * 0.25  # ties
            ordered = np.sort(values)
            for p in (5.0, 25.0, 50.0, 75.0, 95.0, 99.0):
                assert same_bits(pl.sorted_quantile(ordered, p / 100),
                                 np.percentile(values, p)), (n, p)
            assert same_bits(pl.median(values), np.median(values)), n


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
    """Training batches are consecutive rows of a split that build_dataset
    sorted by (lat, lon)."""

    def test_chunks_follow_lat_lon_sort(self, tmp_path):
        samples = make_samples(700, seed=9)
        ds = pl.build_dataset(samples, seed=3, out_dir=str(tmp_path / "ds"))
        chunks = training._batches(ds.train, 256)
        assert [c.n for c in chunks] == [256, 256, 48]
        ids = np.sort(ds.train.cell_id)
        want = ids[np.lexsort((samples.lon[ids], samples.lat[ids]))]
        np.testing.assert_array_equal(np.concatenate([c.cell_id for c in chunks]), want)
        # a batch never spans a latitude range larger than adjacent sorted rows
        for c in chunks:
            assert np.all(np.diff(c.lat) >= 0)

    def test_partition(self, tmp_path):
        samples = make_samples(5, seed=1)
        samples.lat[:] = [3.0, 1.0, 2.0, 5.0, 4.0]
        samples.lon[:] = 0.0
        ds = pl.build_dataset(samples, seed=0, out_dir=str(tmp_path / "ds"))
        chunks = [c for part in (ds.train, ds.test) for c in training._batches(part, 2)]
        assert sorted(np.concatenate([c.cell_id for c in chunks]).tolist()) == [0, 1, 2, 3, 4]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds") / "dataset"
    samples = make_samples(60, seed=4)
    ds = pl.build_dataset(samples, seed=21, out_dir=str(out))
    return samples, ds, str(out)


class TestBuildDataset:
    def test_split_sizes(self, built):
        _, ds, _ = built
        assert ds.train.n == 48 and ds.test.n == 12
        assert set(ds.train.cell_id) & set(ds.test.cell_id) == set()
        assert sorted(set(ds.train.cell_id) | set(ds.test.cell_id)) == list(range(60))

    def test_train_features_unit_range(self, built):
        # the train split's stats span its features
        _, ds, _ = built
        normalized = pl.normalize_groups(ds.train.groups, ds.feature_stats)
        for name, g, i in pl.FEATURE_CHANNELS:
            vals = normalized[g][..., i]
            assert vals.min() >= 0.0 and vals.max() <= 1.0 + 1e-6, name

    def test_stats_come_from_train_only(self, built):
        samples, ds, _ = built
        # cell ids are row indices in make_samples
        g2 = samples.groups["g2"][np.sort(ds.train.cell_id)]
        lo, hi = ds.feature_stats["g2.alpha"]
        alpha = g2[:, pl.G2_FIELDS.index("alpha")]
        assert lo == pytest.approx(alpha.min())
        assert hi == pytest.approx(alpha.max())

    def test_flux_targets_take_their_own_scale(self, built):
        # like every target, each flux spans its own training range
        samples, ds, _ = built
        train = np.sort(ds.train.cell_id)
        for t in pl.FLUX_TASKS:
            want = samples.targets[t][train]
            assert ds.target_stats[t] == [want.min(), want.max()]

    def test_round_trip_matches_memory(self, built):
        _, ds, out = built
        loaded = pl.load_dataset(out)
        for part in ("train", "test"):
            a, b = ds.split(part), loaded.split(part)
            np.testing.assert_array_equal(a.cell_id, b.cell_id)
            for g in (*pl.GROUPS, "prior"):
                np.testing.assert_array_equal(a.groups[g], b.groups[g])
            for t in pl.TASKS:
                np.testing.assert_array_equal(a.targets[t], b.targets[t])
        assert loaded.feature_stats == ds.feature_stats
        assert loaded.target_stats == ds.target_stats

    def test_loaded_groups_are_exported_samples_bitwise(self, tmp_path):
        # features are stored as the float64 physical arrays export_samples
        # gives, and come back from disk unchanged
        samples = sim.export_samples(
            sim.generate_world(3, sim.GridSpec(8, 8, 1.0), years=2))
        out = str(tmp_path / "ds")
        pl.build_dataset(samples, seed=0, out_dir=out)
        loaded = pl.load_dataset(out)
        row = {int(c): i for i, c in enumerate(samples.cell_id)}
        for part in (loaded.train, loaded.test):
            rows = [row[int(c)] for c in part.cell_id]
            for g in (*pl.GROUPS, "prior"):
                assert part.groups[g].dtype == np.float64
                np.testing.assert_array_equal(part.groups[g],
                                              samples.groups[g][rows])

    def test_target_denormalization_recovers_physical(self, built):
        samples, ds, _ = built
        phys = ds.denorm_target("soil3c", ds.test.targets["soil3c"])
        want = samples.targets["soil3c"][ds.test.cell_id]
        np.testing.assert_allclose(phys, want, rtol=1e-5, atol=1e-7)

    def test_byte_identical_rebuild(self, built, tmp_path):
        _, _, out = built
        again = tmp_path / "again"
        pl.build_dataset(make_samples(60, seed=4), seed=21, out_dir=str(again))
        for root, _dirs, files in os.walk(out):
            rel_root = os.path.relpath(root, out)
            for f in sorted(files):
                a = os.path.join(root, f)
                b = os.path.join(str(again), rel_root, f)
                with open(a, "rb") as fa, open(b, "rb") as fb:
                    assert fa.read() == fb.read(), f

    def test_batches_are_spatially_sorted(self, built):
        # training batches are consecutive rows, and each split's rows, in
        # memory and on disk, are sorted by lat, then lon
        _, ds, out = built
        for loaded in (ds, pl.load_dataset(out)):
            for part in (loaded.train, loaded.test):
                np.testing.assert_array_equal(np.lexsort((part.lon, part.lat)),
                                              np.arange(part.n))

    def test_directory_holds_one_file_per_split(self, built):
        _, _, out = built
        assert sorted(os.listdir(out)) == ["manifest.json", "test.pht", "train.pht"]
        assert sorted(blobio.load_json(os.path.join(out, "manifest.json"))) == [
            "feature_stats", "format", "n_samples", "n_test", "n_train",
            "pipeline_seed", "target_stats", "version", "world"]

    def test_rejects_too_few_records(self, tmp_path):
        samples = make_samples(4, seed=5)
        with pytest.raises(ContractError, match="need at least 5 samples to split, got 4"):
            pl.build_dataset(samples, seed=0, out_dir=str(tmp_path / "x"))
        assert not os.path.exists(tmp_path / "x")

    @pytest.mark.parametrize("split", pl.SPLITS)
    def test_load_reads_only_the_splits_asked_for(self, built, damaged, split):
        # the other split's file is neither opened nor checked
        _, ds, _ = built
        other = {"train": "test", "test": "train"}[split]
        (damaged / f"{other}.pht").write_bytes(b"junk")
        loaded = pl.load_dataset(str(damaged), splits=(split,))
        assert getattr(loaded, other) is None
        np.testing.assert_array_equal(loaded.split(split).cell_id, ds.split(split).cell_id)
        assert loaded.target_stats == ds.target_stats
        with pytest.raises(ContractError, match=f"the {other} split was not loaded"):
            loaded.split(other)

    def test_load_rejects_non_dataset(self, tmp_path):
        blobio.save_json(str(tmp_path / "manifest.json"), {"format": "other"})
        with pytest.raises(ContractError):
            pl.load_dataset(str(tmp_path))


@pytest.fixture
def damaged(built, tmp_path):
    """A copy of the built dataset directory, for one test to break."""
    _, _, out = built
    copy = tmp_path / "damaged"
    shutil.copytree(out, copy)
    return copy


class TestLoadRefusesMalformed:
    def test_split_file_short_of_a_column(self, damaged):
        path = str(damaged / "train.pht")
        manifest, cols = blobio.read_model_file(path)
        blobio.write_model_file(path, dict(manifest, params=manifest["params"][:-1]),
                                cols)
        with pytest.raises(ContractError, match="train.pht lacks array 'npp'"):
            pl.load_dataset(str(damaged))

    def test_column_short_of_a_row(self, damaged):
        path = str(damaged / "test.pht")
        manifest, cols = blobio.read_model_file(path)
        cols["soil3c"] = cols["soil3c"][:-1]
        blobio.write_model_file(path, manifest, cols)
        with pytest.raises(ContractError, match=r"test.pht: array 'soil3c' has "
                                                r"shape \(11, 9\), should be "
                                                r"\(rows=12, n_layers=9\)"):
            pl.load_dataset(str(damaged))

    @pytest.mark.parametrize("name,cut", [("g1", np.s_[..., :-1]),
                                          ("g3", np.s_[:, :-1]),
                                          ("cell_id", np.s_[:-1])])
    def test_column_of_wrong_shape(self, damaged, name, cut):
        path = str(damaged / "train.pht")
        manifest, cols = blobio.read_model_file(path)
        cols[name] = cols[name][cut]
        blobio.write_model_file(path, manifest, cols)
        # g3 is the first array with n_pft, so it binds n_pft and g4, the
        # next, is the one refused
        named = {"g3": "g4"}.get(name, name)
        with pytest.raises(ContractError, match=f"train.pht: array '{named}'"):
            pl.load_dataset(str(damaged))

    def test_undecodable_manifest(self, damaged):
        (damaged / "manifest.json").write_bytes(b"not json")
        with pytest.raises(ContractError, match="undecodable JSON"):
            pl.load_dataset(str(damaged))

    def test_version_one_manifest(self, damaged):
        path = str(damaged / "manifest.json")
        blobio.save_json(path, dict(blobio.load_json(path), version=1))
        with pytest.raises(ContractError, match="version 1"):
            pl.load_dataset(str(damaged))

    def test_version_two_manifest(self, damaged):
        # version 2 stored normalized feature groups
        path = str(damaged / "manifest.json")
        blobio.save_json(path, dict(blobio.load_json(path), version=2))
        with pytest.raises(ContractError, match="version 2.*rebuild it"):
            pl.load_dataset(str(damaged))

    def test_version_three_manifest(self, damaged):
        # version 3 stored each split as a bare sequence of blobs
        path = str(damaged / "manifest.json")
        blobio.save_json(path, dict(blobio.load_json(path), version=3))
        with pytest.raises(ContractError, match="version 3.*rebuild it"):
            pl.load_dataset(str(damaged))

    def test_version_four_manifest(self, damaged):
        # version 4 carried no prior
        path = str(damaged / "manifest.json")
        blobio.save_json(path, dict(blobio.load_json(path), version=4))
        for name in ("train", "test"):
            split = str(damaged / f"{name}.pht")
            manifest, cols = blobio.read_model_file(split)
            del cols["prior"]
            blobio.write_model_file(split, dict(manifest, params=list(cols)), cols)
        with pytest.raises(ContractError, match="version 4.*rebuild it"):
            pl.load_dataset(str(damaged))

    def test_version_five_manifest(self, damaged):
        # version 5 stored 60 months of forcing, not their annual cycle
        path = str(damaged / "manifest.json")
        blobio.save_json(path, dict(blobio.load_json(path), version=5))
        for name in ("train", "test"):
            split = str(damaged / f"{name}.pht")
            header, cols = blobio.read_model_file(split)
            cols["g1"] = np.tile(cols["g1"], (1, 5, 1))
            blobio.write_model_file(split, header, cols)
        with pytest.raises(ContractError, match="version 5 dataset, not version 7; "
                                                "rebuild it with build-dataset"):
            pl.load_dataset(str(damaged))

    def test_version_six_manifest(self, damaged):
        # version 6 held five more input fields, two of them forcing
        path = str(damaged / "manifest.json")
        blobio.save_json(path, dict(blobio.load_json(path), version=6))
        for name in ("train", "test"):
            split = str(damaged / f"{name}.pht")
            header, cols = blobio.read_model_file(split)
            cols["g1"] = np.concatenate([cols["g1"], cols["g1"][..., :2]], axis=-1)
            cols["g2"] = np.concatenate([cols["g2"], cols["g2"][:, :2]], axis=-1)
            cols["g3"] = np.concatenate([cols["g3"], cols["g3"][..., :1]], axis=-1)
            blobio.write_model_file(split, header, cols)
        with pytest.raises(ContractError, match="version 6 dataset, not version 7; "
                                                "rebuild it with build-dataset"):
            pl.load_dataset(str(damaged))

    def test_splits_that_disagree_on_n_pft(self, damaged):
        # the split arrays give the dims, so the manifest does not; the
        # first split read binds them and the second is held to them
        assert "dims" not in blobio.load_json(str(damaged / "manifest.json"))
        path = str(damaged / "test.pht")
        manifest, cols = blobio.read_model_file(path)
        for name, shape in pl.SPLIT_LAYOUT.items():
            if "n_pft" in shape:
                cols[name] = cols[name][:, :-1]
        blobio.write_model_file(path, manifest, cols)
        assert pl.load_dataset(str(damaged), splits=("test",)).test.groups[
            "g3"].shape[1] == 4
        width = len(pl.G3_FIELDS)
        with pytest.raises(ContractError, match=rf"test.pht: array 'g3' has "
                                                rf"shape \(12, 4, {width}\), should be "
                                                rf"\(rows=12, n_pft=5, {width}\)"):
            pl.load_dataset(str(damaged))

    @pytest.mark.parametrize("key", ["feature_stats", "target_stats"])
    def test_manifest_without_stats(self, damaged, key):
        path = str(damaged / "manifest.json")
        manifest = blobio.load_json(path)
        del manifest[key]
        blobio.save_json(path, manifest)
        with pytest.raises(ContractError, match=key):
            pl.load_dataset(str(damaged))

    def test_stats_pair_short_of_a_bound(self, damaged):
        path = str(damaged / "manifest.json")
        manifest = blobio.load_json(path)
        manifest["feature_stats"]["g2.alpha"] = [0.0]
        blobio.save_json(path, manifest)
        with pytest.raises(ContractError, match="feature_stats"):
            pl.load_dataset(str(damaged))

    @pytest.mark.parametrize("pair", [[1.0, 0.0], [float("nan"), 1.0],
                                      [0.0, float("inf")], [0.0, "1"],
                                      [False, 1.0]])
    def test_stats_pair_not_finite_lo_to_hi(self, damaged, pair):
        # the bounds minmax_fit gives: two finite numbers, lo <= hi
        path = str(damaged / "manifest.json")
        manifest = blobio.load_json(path)
        manifest["target_stats"]["soil3c"] = pair
        blobio.save_json(path, manifest)
        with pytest.raises(ContractError,
                           match=r"target_stats gives 'soil3c' as .*lo <= hi"):
            pl.load_dataset(str(damaged))
