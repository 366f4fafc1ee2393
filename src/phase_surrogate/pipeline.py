"""Dataset construction: spatial alignment, temporal aggregation,
normalization, splitting, spatially coherent batching, and the on-disk
dataset layout.

A sample is one land cell with five feature groups:

- g1: monthly climate forcing [months x 5 vars]
- g2: static cell attributes [8]
- g3: vegetation-type traits [n_pft x 3]
- g4: vegetation-type state at the end of the input window [n_pft x 5]
- g5: layered pools at the end of the input window [n_layers x 3]

plus nine regression targets (six equilibrium pool vectors, three flux
scalars).  Feature and target channels are MinMax-normalized with statistics
from the training split only; test-split values are deliberately left
unclipped so downstream distribution-shift checks can see excursions.
"""

import dataclasses
import logging
import os
import shutil

import numpy as np

from . import blobio
from .errors import ContractError, RangeError

log = logging.getLogger(__name__)

STEPS_PER_YEAR = 1460
STEPS_PER_MONTH = 120
MONTHS_PER_YEAR = 12

G1_FIELDS = ("radiation", "precipitation", "pressure", "humidity", "temperature")
G2_FIELDS = ("lat", "lon", "land_frac", "alpha", "resp_frac", "nutrient", "decomp", "texture")
G3_FIELDS = ("pft_weight", "sla", "crootfrac")
G4_FIELDS = ("leaf_c", "froot_c", "deadcrootc", "deadstemc", "tlai")
G5_FIELDS = ("cwdc", "soil3c", "soil4c")

GROUP_FIELDS = {"g1": G1_FIELDS, "g2": G2_FIELDS, "g3": G3_FIELDS,
                "g4": G4_FIELDS, "g5": G5_FIELDS}
GROUPS = ("g1", "g2", "g3", "g4", "g5")

# (channel name, group, index on the trailing axis)
FEATURE_CHANNELS = tuple((f"{g}.{name}", g, i)
                         for g in GROUPS
                         for i, name in enumerate(GROUP_FIELDS[g]))

SLOW_TASKS = ("deadcrootc", "deadstemc", "tlai", "cwdc", "soil3c", "soil4c")
FLUX_TASKS = ("gpp", "ar", "npp")
TASKS = SLOW_TASKS + FLUX_TASKS

BATCH_ARRAYS = ("cell_id", "lat", "lon") + GROUPS + tuple(f"y_{t}" for t in TASKS)

DEFAULT_BATCH_SIZE = 256
TRAIN_NUM, TRAIN_DEN = 8, 10


@dataclasses.dataclass
class Samples:
    """Raw (physical-unit) features and targets, one row per cell: every
    array, including each of ``groups`` and ``targets``, has a leading cell
    axis."""
    cell_id: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    pft_code: np.ndarray
    deepest_valid_layer: np.ndarray
    groups: dict
    targets: dict

    @property
    def n(self):
        return int(self.cell_id.shape[0])

    def take(self, rows):
        """The samples at ``rows`` (indices or a boolean mask)."""
        return Samples(self.cell_id[rows], self.lat[rows], self.lon[rows],
                       self.pft_code[rows], self.deepest_valid_layer[rows],
                       {g: v[rows] for g, v in self.groups.items()},
                       {t: v[rows] for t, v in self.targets.items()})


# ---------------------------------------------------------------------------
# Spatial alignment
# ---------------------------------------------------------------------------

def kdtree_map(model_points, forcing_points):
    """Nearest forcing-point index for each model point, Euclidean in
    (lat, lon) degrees.  Builds no tree: the row-wise ``argmin`` of one
    [n_model, n_forcing] squared-distance matrix (about 25 MB at the fine
    preset) returns the first minimizer, so exact ties resolve to the lowest
    forcing index."""
    model = np.asarray(model_points, dtype=np.float64)
    forcing = np.asarray(forcing_points, dtype=np.float64)
    if model.ndim != 2 or model.shape[1] != 2 or forcing.ndim != 2 or forcing.shape[1] != 2:
        raise ContractError("point lists must have shape [n, 2]")
    if model.shape[0] == 0 or forcing.shape[0] == 0:
        raise ContractError("point lists must be non-empty")
    d2 = np.square(model[:, :1] - forcing[:, 0])
    d2 += np.square(model[:, 1:] - forcing[:, 1])
    return d2.argmin(axis=1).astype(np.int64)


# ---------------------------------------------------------------------------
# Temporal aggregation
# ---------------------------------------------------------------------------

def trim_to_months(series, steps_per_year=STEPS_PER_YEAR,
                   steps_per_month=STEPS_PER_MONTH, months_per_year=MONTHS_PER_YEAR):
    """Drop each year's tail steps so 12 uniform 30-day months remain."""
    arr = np.asarray(series)
    if arr.shape[0] % steps_per_year:
        raise RangeError(f"series length {arr.shape[0]} is not whole years "
                         f"of {steps_per_year} steps")
    keep = steps_per_month * months_per_year
    years = arr.shape[0] // steps_per_year
    shaped = arr.reshape((years, steps_per_year) + arr.shape[1:])
    return shaped[:, :keep].reshape((years * keep,) + arr.shape[1:])


def aggregate_monthly(series, steps_per_month=STEPS_PER_MONTH):
    """Mean of each consecutive block of ``steps_per_month`` values."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.shape[0] % steps_per_month:
        raise RangeError(f"series length {arr.shape[0]} is not divisible by "
                         f"{steps_per_month}")
    months = arr.shape[0] // steps_per_month
    return arr.reshape((months, steps_per_month) + arr.shape[1:]).mean(axis=1)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def minmax_fit(values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ContractError("cannot fit normalization on an empty feature")
    return float(arr.min()), float(arr.max())


def minmax_apply(values, stats):
    lo, hi = stats
    arr = np.asarray(values, dtype=np.float64)
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def minmax_invert(values, stats):
    lo, hi = stats
    arr = np.asarray(values, dtype=np.float64)
    return arr * (hi - lo) + lo


# ---------------------------------------------------------------------------
# Split, batching, cleaning
# ---------------------------------------------------------------------------

def split_shuffle(ids, seed):
    """Deterministic shuffled 80:20 split of a sequence of sample ids."""
    ids = np.asarray(ids)
    n = ids.shape[0]
    if n < 5:
        raise ContractError(f"need at least 5 samples to split, got {n}")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = (n * TRAIN_NUM) // TRAIN_DEN
    return ids[perm[:n_train]].copy(), ids[perm[n_train:]].copy()


def batch_by_latlon(lat, lon, batch_size):
    """Chunk sample indices into spatially coherent batches: lexicographic
    sort by (lat, lon), then consecutive slices."""
    if batch_size < 1:
        raise ContractError("batch_size must be >= 1")
    lat = np.asarray(lat)
    lon = np.asarray(lon)
    order = np.lexsort((lon, lat))
    return [order[i:i + batch_size] for i in range(0, order.size, batch_size)]


def clean(samples):
    """Drop physically invalid samples; returns (kept, drop counts).  A row
    with a bad vegetation code counts under ``pft_code`` only."""
    codes = samples.pft_code
    bad_code = (codes.min(axis=1) < 0) | (codes.max(axis=1) >= samples.groups["g3"].shape[1])
    g5 = samples.groups["g5"]
    below = np.arange(g5.shape[1])[None, :] >= samples.deepest_valid_layer[:, None]
    below_depth = np.any(below[:, :, None] & (g5 > 0), axis=(1, 2)) & ~bad_code
    dropped = {"pft_code": int(bad_code.sum()), "below_valid_depth": int(below_depth.sum())}
    total = sum(dropped.values())
    if total:
        log.info("clean: dropped %d of %d records (%s)", total, samples.n, dropped)
    else:
        log.info("clean: all %d records valid", samples.n)
    return samples.take(~(bad_code | below_depth)), dropped


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class DatasetSplit:
    cell_id: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    groups: dict
    targets: dict

    @property
    def n(self):
        return int(self.cell_id.shape[0])


@dataclasses.dataclass
class Dataset:
    train: DatasetSplit
    test: DatasetSplit
    feature_stats: dict
    target_stats: dict
    meta: dict

    def split(self, name):
        if name not in ("train", "test"):
            raise ContractError(f"unknown split {name!r}")
        return self.train if name == "train" else self.test

    def denorm_target(self, task, values):
        return minmax_invert(values, self.target_stats[task])

    def physical_targets(self, name):
        part = self.split(name)
        return {task: self.denorm_target(task, part.targets[task]) for task in TASKS}


def normalize_groups(group_arrays, stats):
    out = {}
    for g in GROUPS:
        arr = np.asarray(group_arrays[g], dtype=np.float64)
        norm = np.empty_like(arr)
        for name, grp, i in FEATURE_CHANNELS:
            if grp == g:
                norm[..., i] = minmax_apply(arr[..., i], stats[name])
        out[g] = norm.astype(np.float32)
    return out


def fit_target_stats(targets):
    """Per-task MinMax stats.  The three flux tasks share one pure scale
    (min 0, max = largest training flux) so their linear relation survives
    normalization."""
    stats = {t: list(minmax_fit(targets[t])) for t in SLOW_TASKS}
    flux_max = max(float(np.max(targets[t])) for t in FLUX_TASKS)
    for t in FLUX_TASKS:
        stats[t] = [0.0, flux_max]
    return stats


def normalize_targets(targets, stats):
    return {t: minmax_apply(targets[t], stats[t]).astype(np.float32) for t in TASKS}


def _write_split_batches(out_dir, prefix, split, order_chunks):
    paths = []
    for b, idx in enumerate(order_chunks):
        rel = os.path.join("batches", f"{prefix}_{b:04d}.pht")
        arrays = [split.cell_id[idx].astype(np.float64),
                  split.lat[idx], split.lon[idx]]
        arrays += [split.groups[g][idx] for g in GROUPS]
        arrays += [split.targets[t][idx] for t in TASKS]
        blobio.save_blob_sequence(os.path.join(out_dir, rel), arrays)
        paths.append(rel)
    return paths


def build_dataset(samples, seed, out_dir, batch_size=DEFAULT_BATCH_SIZE, world_meta=None):
    """Clean, split, normalize, batch, and write a dataset directory.

    Returns the in-memory :class:`Dataset` equivalent to what was written.
    """
    samples, dropped = clean(samples)
    n = samples.n
    if n < 5:
        raise ContractError("too few valid records to build a dataset")
    groups, targets = samples.groups, samples.targets
    train_pos, test_pos = split_shuffle(np.arange(n), seed)

    feature_stats = {name: list(minmax_fit(groups[g][train_pos][..., i]))
                     for name, g, i in FEATURE_CHANNELS}
    target_stats = fit_target_stats({t: targets[t][train_pos] for t in TASKS})

    norm_groups = normalize_groups(groups, feature_stats)
    norm_targets = normalize_targets(targets, target_stats)

    def make_split(pos):
        return DatasetSplit(
            cell_id=samples.cell_id[pos],
            lat=samples.lat[pos],
            lon=samples.lon[pos],
            groups={g: norm_groups[g][pos] for g in GROUPS},
            targets={t: norm_targets[t][pos] for t in TASKS},
        )

    train, test = make_split(train_pos), make_split(test_pos)

    dims = {
        "months": int(groups["g1"].shape[1]),
        "n_pft": int(groups["g3"].shape[1]),
        "n_layers": int(groups["g5"].shape[1]),
    }

    tmp_dir = f"{out_dir}.tmp-{os.getpid()}"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(os.path.join(tmp_dir, "batches"))

    train_chunks = batch_by_latlon(train.lat, train.lon, batch_size)
    test_chunks = batch_by_latlon(test.lat, test.lon, batch_size)
    batch_paths = {
        "train": _write_split_batches(tmp_dir, "train", train, train_chunks),
        "test": _write_split_batches(tmp_dir, "test", test, test_chunks),
    }

    manifest = {
        "format": "dataset",
        "version": 1,
        "pipeline_seed": int(seed),
        "batch_size": int(batch_size),
        "n_samples": int(n),
        "n_train": int(train.n),
        "n_test": int(test.n),
        "train_ids": [int(v) for v in train.cell_id],
        "test_ids": [int(v) for v in test.cell_id],
        "batches": batch_paths,
        "batch_arrays": list(BATCH_ARRAYS),
        "feature_stats": feature_stats,
        "target_stats": target_stats,
        "dims": dims,
        "cleaned": {"dropped": dropped, "kept": int(n)},
        "world": world_meta or {},
    }
    blobio.save_json(os.path.join(tmp_dir, "manifest.json"), manifest)

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp_dir, out_dir)

    # Batch order is the on-disk sample order; reload semantics match files.
    order = {"train": np.concatenate(train_chunks), "test": np.concatenate(test_chunks)}

    def reordered(split, pos):
        return DatasetSplit(split.cell_id[pos], split.lat[pos], split.lon[pos],
                            {g: split.groups[g][pos] for g in GROUPS},
                            {t: split.targets[t][pos] for t in TASKS})

    return Dataset(reordered(train, order["train"]), reordered(test, order["test"]),
                   feature_stats, target_stats, manifest)


def load_dataset(path):
    manifest = blobio.load_json(os.path.join(path, "manifest.json"))
    if manifest.get("format") != "dataset":
        raise ContractError(f"{path} is not a dataset directory")

    def read_split(name):
        parts = [blobio.load_blob_sequence(os.path.join(path, rel))
                 for rel in manifest["batches"][name]]
        cols = {key: np.concatenate([p[j] for p in parts])
                for j, key in enumerate(manifest["batch_arrays"])}
        return DatasetSplit(
            cell_id=cols["cell_id"].astype(np.int64),
            lat=cols["lat"], lon=cols["lon"],
            groups={g: cols[g].astype(np.float32) for g in GROUPS},
            targets={t: cols[f"y_{t}"].astype(np.float32) for t in TASKS},
        )

    train, test = read_split("train"), read_split("test")
    if train.n != manifest["n_train"] or test.n != manifest["n_test"]:
        raise ContractError("dataset batches disagree with manifest counts")
    stats = {k: tuple(v) for k, v in manifest["feature_stats"].items()}
    tstats = {k: tuple(v) for k, v in manifest["target_stats"].items()}
    return Dataset(train, test, stats, tstats, manifest)
