"""Dataset construction: mapping cells to forcing points, normalization,
the train/test split, and the on-disk dataset layout.

A sample is one land cell with five feature groups:

- g1: the mean annual cycle of the monthly climate forcing [12 x 3 vars]
  over the stationary years (``simulator.export_samples``)
- g2: static cell attributes [6]
- g3: vegetation-type traits [n_pft x 2]
- g4: vegetation-type state at the end of the input window [n_pft x 5]
- g5: layered pools at the end of the input window [n_layers x 3]

plus the spin-up prior [3], each turnover group's log factor from the
observed pools to u/k (``simulator.spinup_prior``), which is not a network
input, and nine regression targets (six equilibrium pool vectors, three
flux scalars; a model computes the fluxes with :func:`annual_fluxes`).  A
dataset stores the feature groups and the prior in physical units
(float64) and the targets MinMax-normalized (float32).  Feature and
target stats are fitted on the training split only and recorded in the
manifest; a model adopts the feature stats, scales its own inputs with
:func:`normalize_groups`, and takes its shapes from the groups
(:func:`group_dims`).  Nothing is clipped, so test-split excursions
stay visible to the distribution-shift guard.

The reports' order statistics (:func:`sorted_quantile`, :func:`median`)
live here too: they equal numpy's bit for bit without importing numpy.ma,
which ``np.percentile`` and ``np.median`` do on first use.
"""

import dataclasses
import math
import os
import shutil

import numpy as np

from . import blobio
from .errors import ConfigurationError, ContractError

G1_FIELDS = ("radiation", "precipitation", "temperature")
G2_FIELDS = ("lat", "lon", "alpha", "resp_frac", "nutrient", "decomp")
G3_FIELDS = ("pft_weight", "sla")
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
# The slow tasks by turnover group, fast, wood and slow soil, in the order
# of a sample's prior; a model predicts one residual per group.
PRIOR_GROUPS = (("tlai",), ("deadcrootc", "deadstemc", "cwdc"), ("soil3c", "soil4c"))

# The arrays of a split file, in file order; ``rows`` is the split's size
# and the other dimension names are :data:`DIMS`.
SPLIT_LAYOUT = {
    "cell_id": ("rows",), "lat": ("rows",), "lon": ("rows",),
    "g1": ("rows", 12, len(G1_FIELDS)),
    "g2": ("rows", len(G2_FIELDS)),
    "g3": ("rows", "n_pft", len(G3_FIELDS)),
    "g4": ("rows", "n_pft", len(G4_FIELDS)),
    "g5": ("rows", "n_layers", len(G5_FIELDS)),
    "prior": ("rows", len(PRIOR_GROUPS)),
    **{t: ("rows", "n_pft") for t in ("deadcrootc", "deadstemc", "tlai")},
    **{t: ("rows", "n_layers") for t in ("cwdc", "soil3c", "soil4c")},
    **{t: ("rows",) for t in FLUX_TASKS},
}
COLUMNS = tuple(SPLIT_LAYOUT)
# The sizes the feature groups carry besides their rows, vegetation types
# and soil layers: the dims a model takes from its data.
DIMS = tuple(dict.fromkeys(d for g in GROUPS for d in SPLIT_LAYOUT[g][1:]
                           if isinstance(d, str)))
DATASET_VERSION = 7
SPLITS = ("train", "test")

TRAIN_NUM, TRAIN_DEN = 8, 10

# a cell is tropical below this |latitude|, in degrees
TROPICS_LAT = 23.0


# The simulator's flux formula, kept with G1_FIELDS, whose order
# ``_gbar_of`` indexes, so a model reads it without importing the simulator.

def _gbar_of(forcing_monthly):
    """Smooth positive flux response in (0, 1] of monthly forcing [..., 3]:
    light saturation times moisture saturation times a thermal optimum at
    290 K."""
    fm = np.asarray(forcing_monthly, dtype=np.float64)
    rad, pre, tmp = fm[..., 0], fm[..., 1], fm[..., 2]
    light = rad / (rad + 120.0)
    moisture = pre / (pre + 2.0)
    thermal = np.exp(-(((tmp - 290.0) / 26.0) ** 2))
    return light * moisture * thermal


def _flux_from_gbar(gbar, alpha, resp_frac, nutrient):
    gpp = alpha * nutrient * gbar / 12.0
    ar = resp_frac * gpp
    npp = gpp - ar
    return gpp, ar, npp


def annual_fluxes(gbar12, alpha, resp_frac, nutrient):
    """Annual GPP, AR and NPP [n] of monthly responses ``gbar12`` [n, 12]
    under per-cell ``alpha``, ``resp_frac`` and ``nutrient`` [n]."""
    gpp_m, _, _ = _flux_from_gbar(gbar12, alpha[:, None], resp_frac[:, None],
                                  nutrient[:, None])
    gpp = 12.0 * gpp_m.mean(axis=1)
    ar = resp_frac * gpp
    return gpp, ar, gpp - ar


@dataclasses.dataclass
class Samples:
    """Features and targets, one row per cell: every array, including each
    of ``groups`` and ``targets``, has a leading cell axis.  ``groups`` holds
    g1..g5 and the prior, in physical units; ``targets`` are physical as
    exported and MinMax-normalized in a dataset's splits."""
    cell_id: np.ndarray
    lat: np.ndarray
    lon: np.ndarray
    groups: dict
    targets: dict

    @property
    def n(self):
        return int(self.cell_id.shape[0])

    def take(self, rows):
        """The samples at ``rows`` (indices, a slice or a boolean mask)."""
        return Samples(self.cell_id[rows], self.lat[rows], self.lon[rows],
                       {g: v[rows] for g, v in self.groups.items()},
                       {t: v[rows] for t, v in self.targets.items()})


# ---------------------------------------------------------------------------
# Spatial alignment
# ---------------------------------------------------------------------------

# bytes of one block of :func:`kdtree_map`'s squared-distance matrix
MAP_BLOCK_BYTES = 2 << 20


def kdtree_map(model_points, forcing_points):
    """Nearest forcing-point index for each model point, Euclidean in
    (lat, lon) degrees.  Builds no tree: the row-wise ``argmin`` of the
    [n_model, n_forcing] squared-distance matrix, taken MAP_BLOCK_BYTES of it
    at a time, returns the first minimizer, so exact ties resolve to the
    lowest forcing index."""
    model = np.asarray(model_points, dtype=np.float64)
    forcing = np.asarray(forcing_points, dtype=np.float64)
    if model.ndim != 2 or model.shape[1] != 2 or forcing.ndim != 2 or forcing.shape[1] != 2:
        raise ContractError("point lists must have shape [n, 2]")
    if model.shape[0] == 0 or forcing.shape[0] == 0:
        raise ContractError("point lists must be non-empty")
    rows = max(1, MAP_BLOCK_BYTES // (8 * forcing.shape[0]))
    nearest = np.empty(model.shape[0], dtype=np.int64)
    for start in range(0, model.shape[0], rows):
        block = model[start:start + rows]
        d2 = np.square(block[:, :1] - forcing[:, 0])
        d2 += np.square(block[:, 1:] - forcing[:, 1])
        nearest[start:start + rows] = d2.argmin(axis=1)
    return nearest


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def minmax_fit(values):
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ContractError("cannot fit normalization on an empty feature")
    return float(arr.min()), float(arr.max())


def checked_stats(manifest, key, names, where):
    """``manifest[key]``, refused unless it gives each of ``names`` as a
    [lo, hi] pair of finite numbers with lo <= hi, as :func:`minmax_fit`
    fits it; ``where`` names the manifest in the message."""
    stats = manifest.get(key)
    if not isinstance(stats, dict):
        raise ContractError(f"{where} lacks {key}")
    for name in names:
        pair = stats.get(name)
        if not (isinstance(pair, list) and len(pair) == 2 and all(
                type(v) in (int, float) and math.isfinite(v) for v in pair)
                and pair[0] <= pair[1]):
            raise ContractError(f"{where} {key} gives {name!r} as {pair!r}, "
                                f"not a [lo, hi] pair of finite numbers, lo <= hi")
    return stats


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
# Order statistics
# ---------------------------------------------------------------------------

def sorted_quantile(ordered, q):
    """Quantile ``q`` in [0, 1] of ``ordered``, a non-empty float64 array
    sorted ascending, as numpy's default ``linear`` method gives it: bitwise
    ``np.percentile(a, p)`` for ``q = p / 100``.  The index is (n-1)·q; an
    index at or past the last element interpolates that element with itself
    at weight index + 1, as numpy does.  A NaN, which sorts last, gives NaN."""
    last = ordered.shape[0] - 1
    if ordered[last] != ordered[last]:
        return float(ordered[last])
    v = last * q
    if v >= last:
        lo = hi = float(ordered[last])
        t = v + 1.0
    else:
        i = int(v)
        lo, hi = float(ordered[i]), float(ordered[i + 1])
        t = v - i
    diff = hi - lo
    return hi - diff * (1.0 - t) if t >= 0.5 else lo + diff * t


def median(values):
    """Median of all of ``values``, a non-empty float64 array: bitwise
    ``np.median``, which averages the middle element or pair of the sorted
    values by a sum that starts from +0.0, so a median of -0.0 reads 0.0.
    A NaN, which sorts last, gives NaN."""
    ordered = np.sort(values, axis=None)
    n = ordered.shape[0]
    if ordered[n - 1] != ordered[n - 1]:
        return float(ordered[n - 1])
    mid = n // 2
    if n % 2:
        return 0.0 + float(ordered[mid])
    return (0.0 + float(ordered[mid - 1]) + float(ordered[mid])) / 2


# ---------------------------------------------------------------------------
# Split
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


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Dataset:
    """A dataset's splits and its manifest's scaling stats; a split that
    :func:`load_dataset` was not asked for is ``None``."""
    train: Samples
    test: Samples
    feature_stats: dict
    target_stats: dict

    def split(self, name):
        if name not in SPLITS:
            raise ContractError(f"unknown split {name!r}")
        part = getattr(self, name)
        if part is None:
            raise ContractError(f"the {name} split was not loaded")
        return part

    def denorm_target(self, task, values):
        return minmax_invert(values, self.target_stats[task])


def normalize_groups(group_arrays, stats):
    """Physical-unit groups to float32 MinMax space."""
    out = {}
    for g in GROUPS:
        arr = np.asarray(group_arrays[g], dtype=np.float64)
        norm = np.empty_like(arr)
        for name, grp, i in FEATURE_CHANNELS:
            if grp == g:
                norm[..., i] = minmax_apply(arr[..., i], stats[name])
        out[g] = norm.astype(np.float32)
    return out


def group_dims(groups):
    """The sizes of :data:`DIMS` that the feature groups carry."""
    return {d: int(np.shape(groups[g])[i]) for g in GROUPS
            for i, d in enumerate(SPLIT_LAYOUT[g]) if d in DIMS}


def normalize_targets(targets, stats):
    return {t: minmax_apply(targets[t], stats[t]).astype(np.float32) for t in TASKS}


def build_dataset(samples, seed, out_dir, world_meta=None):
    """Split the samples, normalize their targets, and write a
    dataset directory: ``manifest.json`` plus one container per split
    (``train.pht``, ``test.pht``) holding the arrays of
    :data:`SPLIT_LAYOUT`.  Each split's rows are sorted by (lat, lon), so
    consecutive rows, and thus training batches, are spatially coherent.

    Returns the in-memory :class:`Dataset` equal to what was written.
    """
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    groups, targets = samples.groups, samples.targets
    train_pos, test_pos = split_shuffle(np.arange(samples.n), seed)

    feature_stats = {name: list(minmax_fit(groups[g][train_pos][..., i]))
                     for name, g, i in FEATURE_CHANNELS}
    target_stats = {t: list(minmax_fit(targets[t][train_pos])) for t in TASKS}

    stored = Samples(samples.cell_id, samples.lat, samples.lon, groups,
                     normalize_targets(targets, target_stats))
    train, test = (stored.take(pos[np.lexsort((samples.lon[pos], samples.lat[pos]))])
                   for pos in (train_pos, test_pos))

    tmp_dir = f"{out_dir}.tmp-{os.getpid()}"
    if os.path.exists(tmp_dir):
        shutil.rmtree(tmp_dir)
    os.makedirs(tmp_dir)
    for name, split in (("train", train), ("test", test)):
        columns = {"cell_id": split.cell_id.astype(np.float64), "lat": split.lat,
                   "lon": split.lon, **split.groups, **split.targets}
        blobio.write_model_file(os.path.join(tmp_dir, f"{name}.pht"),
                                {"format": "dataset split", "params": list(COLUMNS)},
                                columns)

    manifest = {
        "format": "dataset",
        "version": DATASET_VERSION,
        "pipeline_seed": int(seed),
        "n_samples": samples.n,
        "n_train": int(train.n),
        "n_test": int(test.n),
        "feature_stats": feature_stats,
        "target_stats": target_stats,
        "world": world_meta or {},
    }
    blobio.save_json(os.path.join(tmp_dir, "manifest.json"), manifest)

    if os.path.exists(out_dir):
        shutil.rmtree(out_dir)
    os.replace(tmp_dir, out_dir)
    return Dataset(train, test, feature_stats, target_stats)


def load_dataset(path, splits=SPLITS):
    """Read a dataset directory: its manifest, and of its splits only those
    named in ``splits``, each checked against :data:`SPLIT_LAYOUT`; a split
    not named is ``None`` and its file is not opened."""
    manifest = blobio.load_json(os.path.join(path, "manifest.json"))
    if not isinstance(manifest, dict) or manifest.get("format") != "dataset":
        raise ContractError(f"{path} is not a dataset directory")
    if manifest.get("version") != DATASET_VERSION:
        raise ContractError(f"{path} is a version {manifest.get('version')!r} "
                            f"dataset, not version {DATASET_VERSION}; "
                            f"rebuild it with build-dataset")

    # the first split read binds the dims, and the second is held to them
    dims = {}

    def read_split(name):
        split_path = os.path.join(path, f"{name}.pht")
        _, cols = blobio.read_model_file(split_path)
        bound = blobio.check_layout(split_path, cols, SPLIT_LAYOUT,
                                    dict(dims, rows=manifest.get(f"n_{name}")))
        dims.update((d, bound[d]) for d in DIMS)
        return Samples(
            cell_id=cols["cell_id"].astype(np.int64),
            lat=cols["lat"], lon=cols["lon"],
            groups={g: np.asarray(cols[g], dtype=np.float64)
                    for g in (*GROUPS, "prior")},
            targets={t: cols[t].astype(np.float32, copy=False) for t in TASKS},
        )

    where = f"{path} manifest"
    train, test = (read_split(name) if name in splits else None for name in SPLITS)
    return Dataset(train, test,
                   checked_stats(manifest, "feature_stats",
                                 [c[0] for c in FEATURE_CHANNELS], where),
                   checked_stats(manifest, "target_stats", TASKS, where))
