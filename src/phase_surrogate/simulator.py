"""Toy land-carbon box model with analytically known equilibria.

A world is a lat/lon grid of land cells.  Each cell carries static
parameters, per-vegetation-type traits, and layered soil pools.  Synthetic
monthly forcing drives a smooth flux response (its formula lives in
:mod:`pipeline`); net primary production is routed into a linear chain of
carbon pools integrated with monthly forward Euler.  Because the chain is
linear, every pool's equilibrium is the closed form u/k, which makes the
simulator usable as an exact oracle: surrogate labels, restart validation,
and long-spinup cross-checks all reduce to comparisons against u/k.

Pool layout: every pool of every cell lives in one packed float64 block
[n_cells, 4*n_pft + 3*n_layers], the pools' columns side by side in
POOL_KEYS order (:func:`pool_columns`).  The spin-up packs its initial
:class:`PoolState` once, updates the block in place month by month, since
the window's forcing changes from month to month, and unpacks the result;
each element goes through the same operations, in the same order, as the
per-pool form C + (u - (k/12) C), so results are bitwise those of stepping
each pool on its own.  A restart runs under constant forcing, so
:func:`restart_run` takes all its months at once, in closed form.

Observations: a world keeps its end-of-window state twice, as the exact
pools and as observed with noise (:func:`_observe`), drawn once when the
world is generated; samples copy the observation and draw nothing.

Time layout: twelve uniform 30-day months per year.  A cell's forcing for
a month is its forcing point's noise-free climatology for that month, plus
the cell's constant offset, plus one draw of monthly noise, clipped to
FORCING_BOUNDS once.  The climatology is the mean of a 6-hourly seasonal
and diurnal cycle (120 steps a month) under the trend ramp, taken at the
forcing points.  Pressure, humidity and temperature are kept as the
twelve monthly means they have every year; radiation and precipitation
grow with the ramp, which is linear in the step within a month, so their
month means come in closed form from two moments of the seasonal cycle
(:class:`_PointClimate`).  No sub-monthly value of a cell is ever built,
and no 6-hourly value of radiation or precipitation.  The monthly noise has
the sd of a month's mean of a 6-hourly AR(1) process (see
:data:`_MONTH_MEAN_SD`) and is independent from month to month; that
process forgets within days, so its successive monthly means correlate by
only about 0.02.  Each cell draws all its months' noise from its own stream
in one call, so a cell's forcing does not depend on the other cells; the
streams of all cells are seeded in one pass (:func:`_cell_streams`).

Per-cell work is embarrassingly parallel; everything here is vectorized
across cells and emitted in deterministic cell order.
"""

import dataclasses
import logging
import math
import operator

import numpy as np

from . import blobio
from . import pipeline
from .errors import ConfigurationError, ContractError

log = logging.getLogger(__name__)

N_PFT = 5
N_LAYERS = 9

# annual turnover rates, scaled per cell by the decomposition factor
K_FAST = 0.1
K_WOOD = 0.005
K_SLOW = 0.004

TREND_RAMP_YEARS = 15.0
# The trend stops after TREND_RAMP_YEARS, so the last 5 years of the default
# 20-year window are stationary: the climate the u/k targets are built from.
# A sample's forcing is the mean annual cycle of these years.
STATIONARY_YEARS = 5
NUTRIENT_RAMP_YEARS = 50.0
EQUILIBRIUM_BAND = 1.0 / 200.0
OBS_NOISE = 0.005
AR1_RHO = 0.8

# the 6-hourly resolution of the point climatology; a year's trailing 20
# steps fall outside its twelve 30-day months
STEPS_PER_YEAR = 1460
STEPS_PER_MONTH = 120
STEPS_PER_DAY = 4

FORCING_BOUNDS = {
    "radiation": (0.0, 600.0),        # W/m2
    "precipitation": (0.0, 30.0),     # mm/day
    "pressure": (60000.0, 110000.0),  # Pa
    "humidity": (0.0, 0.05),          # kg/kg
    "temperature": (190.0, 340.0),    # K
}

PFT_POOLS = ("leaf_c", "froot_c", "deadcrootc", "deadstemc")
LAYER_POOLS = ("cwdc", "soil3c", "soil4c")
POOL_KEYS = PFT_POOLS + LAYER_POOLS
SLOW_POOLS = ("deadcrootc", "deadstemc", "cwdc", "soil3c", "soil4c")

# the turnover rate of each of pipeline.PRIOR_GROUPS
PRIOR_K = (K_FAST, K_WOOD, K_SLOW)

K_GROUP = {"leaf_c": K_FAST, "froot_c": K_FAST,
           "deadcrootc": K_WOOD, "deadstemc": K_WOOD, "cwdc": K_WOOD,
           "soil3c": K_SLOW, "soil4c": K_SLOW}

GRID_PRESETS = {"coarse": (24, 48, 1.0), "fine": (48, 96, 0.5)}
# the share of a grid's cells that are land
LAND_FRACTION = 0.6

# seed stream codes for the per-world RNG family
_SEED_LAND, _SEED_CELL, _SEED_POINT, _SEED_NOISE, _SEED_OBS = 1, 2, 3, 4, 7


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GridSpec:
    n_lat: int
    n_lon: int
    resolution_deg: float

    def __post_init__(self):
        if self.n_lat < 2 or self.n_lon < 2:
            raise ConfigurationError("grid needs at least 2x2 cells")
        if self.resolution_deg <= 0:
            raise ConfigurationError("resolution_deg must be positive")

    @property
    def lat_centers(self):
        step = 180.0 / self.n_lat
        return -90.0 + step * (np.arange(self.n_lat) + 0.5)

    @property
    def lon_centers(self):
        step = 360.0 / self.n_lon
        return -180.0 + step * (np.arange(self.n_lon) + 0.5)

    @property
    def n_points(self):
        """Forcing points: one per 2x2 block of cells (:func:`_draw_points`)."""
        return (self.n_lat // 2) * (self.n_lon // 2)

    @property
    def spread_scale(self):
        # finer analog resolution exposes wider sub-grid heterogeneity
        return math.sqrt(1.0 / self.resolution_deg)


def grid_spec(name):
    if name not in GRID_PRESETS:
        raise ConfigurationError(f"unknown grid preset {name!r}; "
                                 f"choose from {sorted(GRID_PRESETS)}")
    n_lat, n_lon, res = GRID_PRESETS[name]
    return GridSpec(n_lat, n_lon, res)


# ---------------------------------------------------------------------------
# State containers
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class PoolState:
    """Carbon pools for a set of cells, gC/m2, float64."""
    leaf_c: np.ndarray
    froot_c: np.ndarray
    deadcrootc: np.ndarray
    deadstemc: np.ndarray
    cwdc: np.ndarray
    soil3c: np.ndarray
    soil4c: np.ndarray

    @classmethod
    def zeros(cls, n_cells, n_pft=N_PFT, n_layers=N_LAYERS):
        pft = lambda: np.zeros((n_cells, n_pft))
        lay = lambda: np.zeros((n_cells, n_layers))
        return cls(pft(), pft(), pft(), pft(), lay(), lay(), lay())

    def copy(self):
        return PoolState(**{k: getattr(self, k).copy() for k in POOL_KEYS})


def pool_columns(n_pft, n_layers):
    """The packed layout: each pool's column slice of a block
    [n_cells, 4*n_pft + 3*n_layers], pools in POOL_KEYS order."""
    out, start = {}, 0
    for key in POOL_KEYS:
        width = n_pft if key in PFT_POOLS else n_layers
        out[key] = slice(start, start + width)
        start += width
    return out


def pack(pools, n_pft, n_layers):
    """One block of per-pool arrays: ``pools`` maps each pool key to an
    array [n_cells, width], or [n_cells, 1] to repeat across the width."""
    columns = pool_columns(n_pft, n_layers)
    n_cells = pools[POOL_KEYS[0]].shape[0]
    block = np.empty((n_cells, columns[POOL_KEYS[-1]].stop))
    for key, cols in columns.items():
        block[:, cols] = pools[key]
    return block


def unpack(block, n_pft, n_layers):
    """The :class:`PoolState` of a packed block, each pool a fresh array."""
    return PoolState(**{key: block[:, cols].copy()
                        for key, cols in pool_columns(n_pft, n_layers).items()})


@dataclasses.dataclass
class CellParams:
    """Static per-cell parameters, arrays over land cells."""
    alpha: np.ndarray
    resp_frac: np.ndarray
    nutrient: np.ndarray
    decomp: np.ndarray
    texture: np.ndarray
    land_frac: np.ndarray
    pft_weight: np.ndarray
    sla: np.ndarray
    crootfrac: np.ndarray
    alloc: np.ndarray
    deposit: np.ndarray


@dataclasses.dataclass
class ForcingPoints:
    lat: np.ndarray
    lon: np.ndarray
    trend: np.ndarray
    rad_scale: np.ndarray
    precip_scale: np.ndarray

    @property
    def n(self):
        return int(self.lat.shape[0])


@dataclasses.dataclass
class EquilibriumState:
    pools: PoolState
    tlai: np.ndarray
    gpp: np.ndarray
    ar: np.ndarray
    npp: np.ndarray


@dataclasses.dataclass
class SpinupResult:
    final: PoolState
    final_year_mean: PoolState


@dataclasses.dataclass
class RestartReport:
    years: int
    window_years: int
    before: dict
    after: dict
    drift: dict
    cold_start_years: np.ndarray
    warm_start_years: np.ndarray
    speedup: np.ndarray
    zero_equilibrium: np.ndarray

    @property
    def zero_equilibrium_cells(self):
        return int(self.zero_equilibrium.sum())

    @property
    def speedup_min(self):
        return _over_defined(np.min, self.speedup, self.zero_equilibrium)

    @property
    def speedup_median(self):
        return _over_defined(pipeline.median, self.speedup, self.zero_equilibrium)

    @property
    def warm_start_years_median(self):
        return _over_defined(pipeline.median, self.warm_start_years,
                             self.zero_equilibrium)


def _over_defined(stat, values, zero):
    """``stat`` of ``values`` over the cells with a defined speedup, those
    not counted in ``zero``; NaN if there are none."""
    values = values[~zero]
    return float(stat(values)) if values.size else math.nan


@dataclasses.dataclass
class Observations:
    """The observed end-of-window state, with observation noise: the type
    pools and tlai ``g4`` [n_cells, n_pft, 5] and the layered pools ``g5``
    [n_cells, n_layers, 3], in the field order of the samples' groups."""
    g4: np.ndarray
    g5: np.ndarray


@dataclasses.dataclass
class World:
    """The state of a simulation: the grid and its land cells, their
    parameters, the forcing network, the monthly forcing of the window,
    the flux response to the stationary end-of-window climatology, the
    pools at the end of the window, and their observation.  The
    observation is simulator output, drawn once when the world is
    generated (:func:`_observe`) and read from then on, as a land model's
    history file is.  Everything else is derived from these where it is
    needed; the equilibria u/k by :func:`analytic_equilibrium`."""
    seed: int
    years: int
    grid: GridSpec
    land_idx: np.ndarray
    cell_lat: np.ndarray
    cell_lon: np.ndarray
    cell_point: np.ndarray
    params: CellParams
    points: ForcingPoints
    forcing_monthly: np.ndarray
    gbar_stat12: np.ndarray
    window_end: PoolState
    observed: Observations

    @property
    def n_cells(self):
        return int(self.land_idx.shape[0])

    @property
    def n_pft(self):
        return int(self.params.pft_weight.shape[1])

    @property
    def n_layers(self):
        return int(self.params.deposit.shape[2])

    @property
    def months(self):
        return 12 * self.years


# ---------------------------------------------------------------------------
# Per-cell random streams
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_SS_HASH_A, _SS_HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_SS_MIX = (0xCA01F9DD, 0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1


def _cell_streams(seed, code, flats, *suffix):
    """Yield, for each flat index in ``flats``, one reused Generator in
    exactly the state of ``np.random.default_rng([seed, code, flat, *suffix])``;
    draw from it before taking the next.

    SeedSequence's entropy mixing runs as uint32 array operations over all
    flat indices at once (its hash constants do not depend on the data);
    PCG64's seeding, two steps of its 128-bit LCG, runs in Python integers,
    and the state is set on the one Generator.  Each key word is split into
    uint32 words as SeedSequence splits it, so a seed of 2**32 or more
    matches too; a flat index must fit one word."""
    def words(value):
        value = operator.index(value)
        if value < 0:
            raise ValueError("expected non-negative integer")
        out = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            out.append(value & _MASK32)
        return out

    def hasher(const, mult):
        def hash_(value):
            nonlocal const
            value = value ^ np.uint32(const)
            const = const * mult & _MASK32
            value = value * np.uint32(const)
            return value ^ value >> 16
        return hash_

    def mix(x, y):
        value = np.uint32(_SS_MIX[0]) * x - np.uint32(_SS_MIX[1]) * y
        return value ^ value >> 16

    flats = np.asarray(flats)
    n = flats.shape[0]
    if n and not 0 <= flats.min() <= flats.max() <= _MASK32:
        raise ValueError("flat indices must fit one uint32 word")
    entropy = [np.full(n, w, np.uint32) for w in words(seed) + words(code)]
    entropy.append(flats.astype(np.uint32))
    entropy += [np.full(n, w, np.uint32) for value in suffix for w in words(value)]
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))
    # SeedSequence.mix_entropy into a pool of four words
    hashmix = hasher(*_SS_HASH_A)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # SeedSequence.generate_state(4, np.uint64), little-endian word pairs
    hashout = hasher(*_SS_HASH_B)
    state = [hashout(pool[i % 4]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, inc_hi, inc_lo = (
        (state[2 * i] | state[2 * i + 1] << np.uint64(32)).tolist() for i in range(4))
    rng = np.random.Generator(np.random.PCG64(0))
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, inc_hi, inc_lo):
        # pcg64_set_seed: state 0, step, add the seed, step
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        lcg = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        rng.bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": lcg, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
        yield rng


# ---------------------------------------------------------------------------
# Synthetic forcing
# ---------------------------------------------------------------------------

class _PointClimate:
    """Every forcing point's noise-free climate: the monthly means [P, 5]
    of a 6-hourly seasonal and diurnal cycle over the twelve 30-day months
    of a year (:meth:`monthly`).

    Pressure, humidity and temperature do not depend on the year, so they
    are kept as their twelve monthly means, ``static`` [12, P, 3].
    Radiation and precipitation at step s are amp * (1 + trend * r_s) * c(s):
    a per-point amplitude ``amp`` [2, P], the trend ramp r_s, and a seasonal
    cycle c that depends on a point's latitude only through its hemisphere,
    whose seasons run half a year apart.  So a month's mean is
    amp * (m0 + trend * rbar), with ``m0`` the month's mean of c and rbar
    the month's mean of r * c.  Inside the ramp r is linear in the step, so
    rbar follows from m0 and ``m1``, the month's mean of k * c over its
    steps k = 0..119 (:func:`_point_climatologies`).  Both moments are kept
    per field, month and hemisphere, [2, 12, 2]."""

    def __init__(self, points):
        t = np.arange(12 * STEPS_PER_MONTH, dtype=np.float64)
        frac = t / STEPS_PER_YEAR
        step_in_day = t % STEPS_PER_DAY
        diurnal = 4.0 * np.cos(2.0 * np.pi * (step_in_day / STEPS_PER_DAY) - np.pi)
        # a yearly cosine [1440, 2] per hemisphere, peaking ``shift`` of a
        # year in, the south's half a year later
        cosine = lambda shift: np.stack([np.cos(2.0 * np.pi * (frac - shift - phase))
                                         for phase in (0.0, 0.5)], axis=1)
        season, pressure_cycle = cosine(0.54), cosine(0.0)
        south = (points.lat < 0).astype(np.intp)
        cycle = np.stack([1.0 + 0.42 * cosine(0.5), 1.0 + 0.45 * cosine(0.18)]
                         ).reshape(2, 12, STEPS_PER_MONTH, 2)
        step = np.arange(STEPS_PER_MONTH, dtype=np.float64)[:, None]
        self.m0 = cycle.mean(axis=2)
        self.m1 = (step * cycle).mean(axis=2)
        # per-point constants in Python float arithmetic, whose pow, cos and
        # exp are the C library's; numpy's vectorized ones may round apart
        lat = points.lat.tolist()
        a = [abs(x) / 90.0 for x in lat]
        t0 = np.array([302.0 - 49.0 * v ** 1.3 for v in a])
        t_amp = np.array([2.0 + 28.0 * v for v in a])
        p0 = np.array([96500.0 + 4500.0 * math.cos(math.radians(x)) ** 2 for x in lat])
        sun = np.array([max(0.22, math.cos(math.radians(x))) for x in lat])
        itcz = np.array([1.2 + 7.5 * math.exp(-(((abs(x) - 12.0) / 26.0) ** 2))
                         for x in lat])
        self.amp = np.stack([points.rad_scale * 250.0 * sun, points.precip_scale * itcz])
        self.static = np.empty((12, points.n, 3))
        block = np.empty((STEPS_PER_MONTH, points.n, 3))
        for month in range(12):
            rows = slice(month * STEPS_PER_MONTH, (month + 1) * STEPS_PER_MONTH)
            temperature = t0 + t_amp * season[rows][:, south] + diurnal[rows, None]
            block[..., 0] = p0 + 300.0 * pressure_cycle[rows][:, south]
            block[..., 1] = 0.002 + 0.023 * np.exp(-(((temperature - 302.0) / 35.0) ** 2))
            block[..., 2] = temperature
            self.static[month] = block.mean(axis=0)
        self.south, self.trend = south, points.trend

    def monthly(self, month, rbar):
        """Every point's means [P, M, 5] of the calendar months ``month``
        [M] (0-11), given each month's mean of r * c per field and
        hemisphere, ``rbar`` [2, M, 2]."""
        out = np.empty((self.trend.shape[0], len(month), 5))
        ramped = out[..., :2].transpose(2, 1, 0)
        np.multiply(self.trend, rbar[..., self.south], out=ramped)
        ramped += self.m0[:, month][..., self.south]
        ramped *= self.amp[:, None]
        out[..., 2:] = self.static[month].transpose(1, 0, 2)
        return out


_OFFSET_SD = np.array([9.0, 0.35, 350.0, 0.0012, 1.2])
_NOISE_SD = np.array([16.0, 0.9, 250.0, 0.001, 2.2])
# The sd of a month's mean of a stationary 6-hourly AR(1) process with
# coefficient AR1_RHO, as a fraction of its step sd: the square root of the
# variance of the mean of N = STEPS_PER_MONTH unit-variance steps.  The
# monthly noise is _NOISE_SD (times the grid's spread) times this factor.
_MONTH_MEAN_SD = math.sqrt(
    (1.0 + AR1_RHO) / ((1.0 - AR1_RHO) * STEPS_PER_MONTH)
    - 2.0 * AR1_RHO * (1.0 - AR1_RHO ** STEPS_PER_MONTH)
    / (STEPS_PER_MONTH * (1.0 - AR1_RHO)) ** 2)
_FORCING_LO, _FORCING_HI = np.array([FORCING_BOUNDS[f] for f in pipeline.G1_FIELDS]).T


def _cell_offsets(seed, land_idx, spread):
    """Each cell's constant forcing offset, [n_cells, 5]."""
    streams = _cell_streams(seed, _SEED_NOISE, land_idx, 0)
    draws = [rng.standard_normal(5) for rng in streams]
    return np.stack(draws) * _OFFSET_SD * spread


def _clip_bounds(series):
    """Clip forcing [..., 5] to FORCING_BOUNDS, in place.  The bounds are
    tiled over the next-to-last axis, so numpy runs one long inner loop
    rather than one of five values per row."""
    rows = (series.shape[-2], 1)
    return np.clip(series, np.tile(_FORCING_LO, rows), np.tile(_FORCING_HI, rows),
                   out=series)


def _point_climatologies(points, years):
    """Every point's noise-free months: the window's [P, 12·years, 5] and the
    stationary year's before and past the trend ramp, [P, 12, 5] each.

    The ramp r at step t is t / span up to span, the first step of year
    TREND_RAMP_YEARS, and 1 from there on.  So a month starting at step
    ``start`` lies wholly inside it, with rbar = (start * m0 + m1) / span,
    or wholly past it, with rbar = m0; before the window rbar is 0
    (:class:`_PointClimate`)."""
    climate = _PointClimate(points)
    month = np.tile(np.arange(12), years)
    start = np.repeat(np.arange(years), 12) * STEPS_PER_YEAR + month * STEPS_PER_MONTH
    span = TREND_RAMP_YEARS * STEPS_PER_YEAR
    inside = start < span
    # no month straddles the end of the ramp
    assert np.all(start[inside] + STEPS_PER_MONTH - 1 <= span)
    m0, m1 = climate.m0[:, month], climate.m1[:, month]
    rbar = np.where(inside[:, None], (start[:, None] * m0 + m1) / span, m0)
    year = np.arange(12)
    return (climate.monthly(month, rbar), climate.monthly(year, np.zeros_like(climate.m0)),
            climate.monthly(year, climate.m0))


def _window_monthly_forcing(seed, grid, land_idx, cell_point, point_months, offsets):
    """Monthly forcing [n_cells, months, 5] over the simulated window.

    A cell's month is its point's climatology for the month
    (``point_months``, the window's from :func:`_point_climatologies`),
    plus its offset, plus its noise, clipped to FORCING_BOUNDS.  Each cell
    draws every month's noise in one call from its own stream, straight
    into its rows of the output, and adds its point's months and its offset
    there, so no second [n_cells, months, 5] array is built.
    """
    out = np.empty((land_idx.shape[0],) + point_months.shape[1:])
    sd = _NOISE_SD * grid.spread_scale * _MONTH_MEAN_SD
    streams = _cell_streams(seed, _SEED_NOISE, land_idx, 1)
    for row, rng, point, offset in zip(out, streams, cell_point, offsets):
        rng.standard_normal(out=row)
        row *= sd
        row += point_months[point] + offset
    return _clip_bounds(out)


# ---------------------------------------------------------------------------
# World generation
# ---------------------------------------------------------------------------

def _land_indices(seed, grid):
    rng = np.random.default_rng([seed, _SEED_LAND, 0])
    lat = np.deg2rad(grid.lat_centers)[:, None]
    lon = np.deg2rad(grid.lon_centers)[None, :]
    field = np.zeros((grid.n_lat, grid.n_lon))
    for _ in range(4):
        fl, fo = rng.integers(1, 4, size=2)
        p1, p2 = rng.uniform(0, 2 * np.pi, size=2)
        field += rng.uniform(0.5, 1.0) * np.cos(fl * lat + p1) * np.cos(fo * lon + p2)
    field += 0.35 * rng.standard_normal(field.shape)
    n_land = int(round(LAND_FRACTION * field.size))
    flat = field.ravel()
    chosen = np.argsort(flat, kind="stable")[::-1][:n_land]
    return np.sort(chosen)


def _spread_uniform(u, lo, hi, scale, clip_lo, clip_hi):
    """Uniform draws ``u`` in [-1, 1) mapped onto [lo, hi] widened by
    ``scale`` about its middle, then clipped to [clip_lo, clip_hi]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return np.clip(mid + u * half * scale, clip_lo, clip_hi)


def _draw_points(seed, grid):
    m_lat, m_lon = grid.n_lat // 2, grid.n_lon // 2
    dlat, dlon = 180.0 / m_lat, 360.0 / m_lon
    plat = -90.0 + (np.arange(m_lat) + 0.37) * dlat
    plon = -180.0 + (np.arange(m_lon) + 0.37) * dlon
    lat = np.repeat(plat, m_lon)
    lon = np.tile(plon, m_lat)
    s = grid.spread_scale
    u = np.empty((lat.shape[0], 3))
    for row, rng in zip(u, _cell_streams(seed, _SEED_POINT, np.arange(u.shape[0]))):
        row[:] = rng.uniform(-1.0, 1.0, size=3)
    return ForcingPoints(lat, lon,
                         trend=_spread_uniform(u[:, 0], -0.25, 0.25, s, -0.4, 0.4),
                         rad_scale=_spread_uniform(u[:, 1], 0.85, 1.15, s, 0.7, 1.3),
                         precip_scale=_spread_uniform(u[:, 2], 0.9, 1.1, s, 0.8, 1.2))


# Characteristic per-type profiles: grassy types (low index) are leafy
# with high specific leaf area, woody types (high index) are stem-heavy.
# Cells modulate these shared profiles instead of redrawing them, the way
# real vegetation types keep their identity across sites.
_PFT_BASE_WEIGHT = np.array([1.5, 1.2, 1.0, 0.8, 0.6])
_PFT_BASE_ALLOC = np.array([
    [0.34, 0.28, 0.045, 0.035, 0.30],
    [0.27, 0.24, 0.080, 0.090, 0.32],
    [0.20, 0.20, 0.130, 0.170, 0.30],
    [0.14, 0.16, 0.185, 0.245, 0.27],
    [0.10, 0.13, 0.230, 0.310, 0.23],
])
_PFT_BASE_SLA = np.array([0.030, 0.025, 0.020, 0.016, 0.012])


def _draw_cell_params(seed, grid, land_idx, cell_lat, n_pft, n_layers):
    """Each cell draws from its own stream, in one fixed order: six scalar
    parameters, the type weights, the two traits, the allocation, the
    deposition groups and their depths.  The draws are then mapped and
    normalized for all cells at once."""
    n = land_idx.shape[0]
    s = grid.spread_scale
    u = np.empty((n, 6))
    weight_draw = np.empty((n, n_pft))
    trait_u = np.empty((n, 2, n_pft))
    alloc_draw = np.empty((n, n_pft, 5))
    group = np.empty((n, 3))
    depth_u = np.empty((n, 3))
    for c, rng in enumerate(_cell_streams(seed, _SEED_CELL, land_idx)):
        u[c] = rng.uniform(-1.0, 1.0, size=6)
        weight_draw[c] = rng.gamma(16.0, size=n_pft)
        trait_u[c] = rng.uniform(-1.0, 1.0, size=(2, n_pft))
        alloc_draw[c] = rng.gamma(25.0, size=(n_pft, 5))
        group[c] = rng.gamma(5.0, size=3)
        depth_u[c] = rng.uniform(-1.0, 1.0, size=3)
    alpha = _spread_uniform(u[:, 0], 1600.0, 2400.0, s, 800.0, 3600.0)
    resp_frac = _spread_uniform(u[:, 1], 0.86, 0.94, s, 0.84, 0.96)
    decomp = _spread_uniform(u[:, 2], 0.65, 1.08, s, 0.55, 1.095)
    texture = _spread_uniform(u[:, 3], 0.0, 1.0, s, 0.0, 1.0)
    land_frac = _spread_uniform(u[:, 4], 0.55, 1.0, s, 0.05, 1.0)
    depletion = _spread_uniform(u[:, 5], 0.05, 0.45, s, 0.02, 0.6)
    nutrient = np.where(np.abs(cell_lat) < pipeline.TROPICS_LAT, 1.0 - depletion, 1.0)
    w = _PFT_BASE_WEIGHT[:n_pft] * weight_draw
    pft_weight = w / w.sum(axis=1, keepdims=True)
    sla = _PFT_BASE_SLA[:n_pft] * _spread_uniform(trait_u[:, 0], 0.85, 1.15, s, 0.6, 1.6)
    crootfrac = _spread_uniform(trait_u[:, 1], 0.1, 0.6, s, 0.02, 0.9)
    a = _PFT_BASE_ALLOC[:n_pft] * alloc_draw
    alloc = a / a.sum(axis=2, keepdims=True)
    z0 = _spread_uniform(depth_u, 3.0, 5.0, s, 2.5, 6.0)
    layers = np.arange(n_layers, dtype=np.float64)
    prof = group[:, :, None] * np.exp(-layers / z0[:, :, None])
    deposit = prof / prof.sum(axis=(1, 2), keepdims=True)
    return CellParams(alpha, resp_frac, nutrient, decomp, texture, land_frac,
                      pft_weight, sla, crootfrac, alloc, deposit)


def route_weights(params):
    """Fraction of cell NPP entering each pool: vegetation-type pools get
    weight x allocation, layered pools get the ground share times the
    deposition profile.  Weights sum to 1 per cell."""
    pw = params.pft_weight
    ground = (pw * params.alloc[:, :, 4]).sum(axis=1)
    return {
        "leaf_c": pw * params.alloc[:, :, 0],
        "froot_c": pw * params.alloc[:, :, 1],
        "deadcrootc": pw * params.alloc[:, :, 2],
        "deadstemc": pw * params.alloc[:, :, 3],
        "cwdc": ground[:, None] * params.deposit[:, 0],
        "soil3c": ground[:, None] * params.deposit[:, 1],
        "soil4c": ground[:, None] * params.deposit[:, 2],
    }


def kappa_annual(params):
    return {k: K_GROUP[k] * params.decomp for k in POOL_KEYS}


def _monthly_operators(world):
    """A run's routing fractions and monthly turnover k/12, packed blocks
    [n_cells, 4*n_pft + 3*n_layers], after checking the step is stable."""
    n_pft, n_layers = world.n_pft, world.n_layers
    route = pack(route_weights(world.params), n_pft, n_layers)
    k_month = pack({key: (k / 12.0)[:, None] for key, k in kappa_annual(world.params).items()},
                   n_pft, n_layers)
    worst = float(k_month.max())
    if worst >= 2.0:
        raise ConfigurationError(f"unstable monthly step: k*dt = {worst:.3f} >= 2")
    return route, k_month


def advance_month(pools, u, k_month, scratch):
    """One forward-Euler month of the packed block ``pools``
    [n_cells, 4*n_pft + 3*n_layers], in place: C += u - (k/12) C, clamped
    at zero.  The month's input ``u`` and turnover ``k_month`` (k/12)
    share the layout; ``scratch``, a block of the same shape, takes the
    net flux, so nothing is allocated.  Each element sees the per-pool
    form's operations in its order, so the result is bitwise that form's,
    and the state change equals the computed net flux exactly (pre-clamp).
    This is the spin-up's step; :func:`restart_run` takes its months under
    constant input in closed form instead."""
    np.multiply(k_month, pools, out=scratch)
    np.subtract(u, scratch, out=scratch)
    np.add(pools, scratch, out=pools)
    np.maximum(pools, 0.0, out=pools)


def _schedule(world, years):
    """Monthly response means and nutrient factor for each month of a
    spin-up of ``years``, in order.  During the simulated window the
    response follows the window's forcing, computed a year of months per
    call, and the nutrient factor is 1; afterwards the stationary
    climatology repeats and the factor phases in linearly, year by year."""
    for year in range(years):
        if year < world.years:
            gbar = pipeline._gbar_of(world.forcing_monthly[:, 12 * year:12 * year + 12])
            p = 1.0
        else:
            gbar = world.gbar_stat12
            frac = min(1.0, (year - world.years + 1) / NUTRIENT_RAMP_YEARS)
            p = 1.0 + (world.params.nutrient - 1.0) * frac
        for month in range(12):
            yield gbar[:, month], p


def spinup(world, years, initial=None):
    """Monthly forward-Euler integration of every cell over the given
    number of years, from zero pools or from ``initial``.  The first
    ``world.years`` follow the window's forcing; later years repeat the
    stationary climatology (see :func:`_schedule`).

    The pools advance as one packed block (see :func:`advance_month`),
    packed from ``initial`` and unpacked at the end; the last year's
    months are summed in order as they pass and divided by 12.  Both
    results are bitwise those of stepping each pool on its own and taking
    ``np.mean`` over the last twelve states.

    Returns the final state and the mean state over the last simulated year.
    """
    if years < 1:
        raise ConfigurationError("spinup needs years >= 1")
    params = world.params
    route, k_month = _monthly_operators(world)
    n_pft, n_layers = world.n_pft, world.n_layers
    pools = np.zeros_like(route) if initial is None else pack(vars(initial), n_pft, n_layers)
    u, scratch, year_sum = np.empty_like(route), np.empty_like(route), np.empty_like(route)
    alpha, r = params.alpha, params.resp_frac
    last_year = 12 * (years - 1)
    for m, (gbar, p) in enumerate(_schedule(world, years)):
        _, _, npp = pipeline._flux_from_gbar(gbar, alpha, r, p)
        np.multiply(npp[:, None], route, out=u)
        advance_month(pools, u, k_month, scratch)
        if m == last_year:
            np.copyto(year_sum, pools)
        elif m > last_year:
            year_sum += pools
    year_sum /= 12
    return SpinupResult(final=unpack(pools, n_pft, n_layers),
                        final_year_mean=unpack(year_sum, n_pft, n_layers))


def _equilibrium_from(gbar12, params):
    """Closed-form equilibria u/k for the stationary monthly climatology."""
    gpp, ar, npp = pipeline.annual_fluxes(gbar12, params.alpha,
                                          params.resp_frac, params.nutrient)
    route = route_weights(params)
    kappa = kappa_annual(params)
    pools = {}
    for key in POOL_KEYS:
        pools[key] = (npp[:, None] * route[key]) / kappa[key][:, None]
    state = PoolState(**pools)
    tlai = params.sla * state.leaf_c
    return EquilibriumState(pools=state, tlai=tlai, gpp=gpp, ar=ar, npp=npp)


def analytic_equilibrium(world):
    """Exact long-run equilibrium u/k of every cell under the stationary
    end-of-window climatology with the nutrient factor fully phased in:
    the sample targets and the oracle every restart is measured against."""
    return _equilibrium_from(world.gbar_stat12, world.params)


def restart_run(initial, world, years=100):
    """Run every cell on from a supplied state under constant
    stationary-mean forcing and report distances to the analytic
    equilibrium before and after, per-pool drift, and the speedup over a
    cold start: months for every slow-pool element to come within
    EQUILIBRIUM_BAND of u/k from zero pools over those from ``initial``, a
    warm start inside the band counting one month.  A cell with a slow
    equilibrium element of 0 has no band to reach, and no relative distance
    to it; it is counted apart (``zero_equilibrium``) and left out of the
    speedup's median and minimum and of the distances before and after.

    The input u = npp*route is constant, so the monthly step of
    :func:`advance_month` is linear with the fixed point C* = u/(k/12), and
    n = 12*years months of it take C_0 to C* + (1 - k/12)^n (C_0 - C*).
    Each element is computed as exp(L) C_0 - expm1(L) C*, with
    L = n log1p(-k/12): expm1 keeps 1 - (1 - k/12)^n accurate when it is
    small, where the difference form loses digits (3e-13 relative from
    zero pools); it matches the monthly loop to about 1e-14 relative.
    ``initial`` must be finite and non-negative and every k/12 in (0, 1]:
    the state is then a convex combination of C_0 and C*, so the loop's
    zero clamp never binds."""
    if years < 1:
        raise ConfigurationError("restart_run needs years >= 1")
    route, k_month = _monthly_operators(world)
    if not np.all((k_month > 0.0) & (k_month <= 1.0)):
        raise ConfigurationError("restart_run needs every monthly turnover k/12 "
                                 "in (0, 1]")
    for key in POOL_KEYS:
        pool = getattr(initial, key)
        if not np.all((pool >= 0.0) & (pool < np.inf)):
            raise ContractError(f"initial pool {key} must be finite and non-negative")
    eq = analytic_equilibrium(world)
    u = (eq.npp / 12)[:, None] * route

    with np.errstate(divide="ignore"):  # k/12 = 1 reaches C* in one month
        decay = 12 * years * np.log1p(-k_month)
    pools = np.exp(decay) * pack(vars(initial), world.n_pft, world.n_layers)
    pools -= np.expm1(decay) * (u / k_month)
    state = unpack(pools, world.n_pft, world.n_layers)

    cold, warm, zero = _months_to_band(initial, world, eq)
    before = _distance_report(initial, eq.pools, cells=~zero)
    after = _distance_report(state, eq.pools, cells=~zero)
    drift = _distance_report(state, initial, pools=SLOW_POOLS)
    report = RestartReport(years=years, window_years=world.years,
                           before=before, after=after, drift=drift,
                           cold_start_years=cold / 12.0, warm_start_years=warm / 12.0,
                           speedup=cold / warm, zero_equilibrium=zero)
    return state, report


def _months_to_band(initial, world, eq):
    """Each cell's months for every slow-pool element to come within
    EQUILIBRIUM_BAND of u/k (``eq``) from zero pools and from ``initial``,
    in closed form, a warm start inside the band counting one month, and
    whether the cell has a slow equilibrium element of 0."""
    kappa = kappa_annual(world.params)
    warm = cold = 1.0
    zero = np.zeros(world.n_cells, dtype=bool)
    for key in SLOW_POOLS:
        target = getattr(eq.pools, key)
        log_rate = np.log1p(-kappa[key] / 12.0)
        gap = np.abs(getattr(initial, key) - target)
        with np.errstate(divide="ignore", invalid="ignore"):
            months = np.ceil(np.log(EQUILIBRIUM_BAND * target / gap) / log_rate[:, None])
        warm = np.maximum(warm, np.where(gap > EQUILIBRIUM_BAND * target, months, 0.0).max(axis=1))
        cold = np.maximum(cold, np.ceil(math.log(EQUILIBRIUM_BAND) / log_rate))
        zero |= (target == 0.0).any(axis=1)
    return cold, warm, zero


def speedup_median(initial, world):
    """The median speedup :func:`restart_run` reports for a restart from
    ``initial``, without running the restart."""
    cold, warm, zero = _months_to_band(initial, world, analytic_equilibrium(world))
    return _over_defined(pipeline.median, cold / warm, zero)


def _distance_report(state, reference, pools=POOL_KEYS, cells=slice(None)):
    """Median and max relative distance of each pool of ``state`` to
    ``reference`` over ``cells``; NaN if they are none."""
    out = {}
    for key in pools:
        a = getattr(state, key)[cells]
        b = getattr(reference, key)[cells]
        denom = np.maximum(np.abs(b), 1e-30)
        rel = np.abs(a - b) / denom
        out[key] = ({"median": pipeline.median(rel), "max": float(rel.max())}
                    if rel.size else {"median": math.nan, "max": math.nan})
    return out


# ---------------------------------------------------------------------------
# Construction entry point
# ---------------------------------------------------------------------------

def generate_world(seed, grid, years=20):
    """Build a fully specified world: land cells, parameters, forcing
    network, monthly forcing window, the stationary end-of-window response,
    the end-of-window pool state, spun through the window from the
    equilibrium of the noise-free pre-window climatology, and its noisy
    observation (:func:`_observe`)."""
    if not isinstance(grid, GridSpec):
        raise ConfigurationError("grid must be a GridSpec")
    if years < 1:
        raise ConfigurationError("years must be >= 1")
    if seed < 0:
        raise ConfigurationError("seed must be >= 0")
    land_idx = _land_indices(seed, grid)
    ilat, ilon = np.divmod(land_idx, grid.n_lon)
    cell_lat = grid.lat_centers[ilat]
    cell_lon = grid.lon_centers[ilon]

    points = _draw_points(seed, grid)
    cell_point = pipeline.kdtree_map(np.stack([cell_lat, cell_lon], axis=1),
                                     np.stack([points.lat, points.lon], axis=1))
    params = _draw_cell_params(seed, grid, land_idx, cell_lat, N_PFT, N_LAYERS)

    log.info("generating forcing for %d cells (%d points, %d years)",
             land_idx.shape[0], points.n, years)
    window, pre, stat = _point_climatologies(points, years)
    offsets = _cell_offsets(seed, land_idx, grid.spread_scale)
    forcing_monthly = _window_monthly_forcing(seed, grid, land_idx, cell_point,
                                              window, offsets)
    del window
    # each cell's stationary year is its point's plus its offset, noise-free
    pre, stat = (_clip_bounds(p[cell_point] + offsets[:, None]) for p in (pre, stat))

    world = World(seed=int(seed), years=int(years), grid=grid,
                  land_idx=land_idx, cell_lat=cell_lat, cell_lon=cell_lon,
                  cell_point=cell_point, params=params, points=points,
                  forcing_monthly=forcing_monthly, gbar_stat12=pipeline._gbar_of(stat),
                  window_end=None, observed=None)
    pre_params = dataclasses.replace(params, nutrient=np.ones(world.n_cells))
    eq_pre = _equilibrium_from(pipeline._gbar_of(pre), pre_params).pools
    world.window_end = spinup(world, years, initial=eq_pre).final
    world.observed = _observe(world)
    return world


def _observe(world):
    """The window-end state as observed: each pool, and tlai = sla * leaf_c,
    times 1 + OBS_NOISE * a standard normal draw, clamped at zero.  Each
    cell draws its own noise, g4 before g5, from a stream keyed by its flat
    grid index, so a cell's observation does not depend on the others."""
    p, w = world.params, world.window_end
    g4 = np.stack([w.leaf_c, w.froot_c, w.deadcrootc, w.deadstemc,
                   p.sla * w.leaf_c], axis=2)
    g5 = np.stack([w.cwdc, w.soil3c, w.soil4c], axis=2)
    for c, rng in enumerate(_cell_streams(world.seed, _SEED_OBS, world.land_idx)):
        g4[c] *= 1.0 + OBS_NOISE * rng.standard_normal(g4.shape[1:])
        g5[c] *= 1.0 + OBS_NOISE * rng.standard_normal(g5.shape[1:])
    return Observations(g4=np.maximum(g4, 0.0, out=g4), g5=np.maximum(g5, 0.0, out=g5))


# ---------------------------------------------------------------------------
# Sample export
# ---------------------------------------------------------------------------

def _ramp_fit(world):
    """Each cell's annual NPP before the window and at equilibrium, [n]
    each, estimated from the window's forcing alone.  For each calendar
    month, radiation and precipitation are fitted over the window's years
    as A + B·ρ, with ρ the trend ramp at the month's middle step; the other
    fields take their mean over the years.  NPP before the window is that
    of A, and at equilibrium the nutrient-scaled NPP of A + B, each clipped
    to FORCING_BOUNDS first.  The fit assumes the synthetic forcing's ramp,
    linear from the window's first month for TREND_RAMP_YEARS; a window of
    one year has no spread in ρ, and B is 0."""
    n, months, n_vars = world.forcing_monthly.shape
    years = months // 12
    forcing = world.forcing_monthly.reshape(n, years, 12, n_vars)
    start = np.arange(years)[:, None] * STEPS_PER_YEAR + np.arange(12) * STEPS_PER_MONTH
    rho = np.minimum((start + (STEPS_PER_MONTH - 1) / 2)
                     / (TREND_RAMP_YEARS * STEPS_PER_YEAR), 1.0)
    dev = rho - rho.mean(axis=0)
    spread = np.square(dev).sum(axis=0)
    slope = (np.einsum("yc,nycf->ncf", dev, forcing[..., :2])
             / np.where(spread > 0.0, spread, 1.0)[:, None])
    before = forcing.mean(axis=1)
    before[..., :2] -= slope * rho.mean(axis=0)[:, None]
    after = before.copy()
    after[..., :2] += slope
    p = world.params
    return tuple(pipeline.annual_fluxes(pipeline._gbar_of(_clip_bounds(climate)),
                                        p.alpha, p.resp_frac, nutrient)[2]
                 for climate, nutrient in ((before, np.ones(n)), (after, p.nutrient)))


def _prior_from(world, npp_pre, npp_star):
    """Each cell's log factor [n, 3] from its window-end pools to u/k, per
    group of :data:`pipeline.PRIOR_GROUPS`, given its annual NPP before the
    window ``npp_pre`` and at equilibrium ``npp_star`` [n].

    A pool starts the window at npp_pre·route/k and takes M months of
    C ← a·C + npp_m·route, a = 1 - k/12, with npp_m each month's NPP of the
    window's forcing; its u/k is npp_star·route/k.  So the ratio is the same
    for every pool of a group, npp_star / D with
    D = a^M·npp_pre + k·Σ_m a^(M-1-m)·npp_m, taken here month by month."""
    p = world.params
    k = np.multiply.outer(p.decomp, PRIOR_K)
    a = 1.0 - k / 12.0
    _, _, npp = pipeline._flux_from_gbar(pipeline._gbar_of(world.forcing_monthly),
                                         p.alpha[:, None], p.resp_frac[:, None], 1.0)
    d = np.repeat(npp_pre[:, None], len(PRIOR_K), axis=1)
    for month in npp.T:
        d *= a
        d += k * month[:, None]
    return np.log(npp_star[:, None] / d)


def spinup_prior(world):
    """The semi-analytic spin-up prior (Xia et al. 2012): each cell's log
    factor [n, 3] from its window-end pools to u/k per turnover group, from
    the whole window's forcing (:func:`_ramp_fit`, :func:`_prior_from`)."""
    return _prior_from(world, *_ramp_fit(world))


def export_samples(world):
    """Every cell's sample as one :class:`pipeline.Samples`: the mean annual
    forcing cycle [n, 12, 5] of the last STATIONARY_YEARS (or of the whole
    span if shorter), static attributes, traits, the world's observed
    end-of-window states (copied; nothing is drawn here), the spin-up prior
    of the whole window (:func:`spinup_prior`), and exact equilibrium
    targets."""
    years = min(world.years, STATIONARY_YEARS)
    g1 = world.forcing_monthly[:, -12 * years:].reshape(world.n_cells, years, 12, -1)
    prior = spinup_prior(world)
    p, eq = world.params, analytic_equilibrium(world)
    g2 = np.stack([world.cell_lat, world.cell_lon, p.land_frac, p.alpha,
                   p.resp_frac, p.nutrient, p.decomp, p.texture], axis=1)
    g3 = np.stack([p.pft_weight, p.sla, p.crootfrac], axis=2)
    targets = {"deadcrootc": eq.pools.deadcrootc, "deadstemc": eq.pools.deadstemc,
               "tlai": eq.tlai, "cwdc": eq.pools.cwdc, "soil3c": eq.pools.soil3c,
               "soil4c": eq.pools.soil4c, "gpp": eq.gpp, "ar": eq.ar, "npp": eq.npp}
    return pipeline.Samples(
        cell_id=world.land_idx.astype(np.int64),
        lat=world.cell_lat.copy(), lon=world.cell_lon.copy(),
        groups={"g1": g1.mean(axis=1), "g2": g2, "g3": g3,
                "g4": world.observed.g4.copy(), "g5": world.observed.g5.copy(),
                "prior": prior},
        targets={t: v.copy() for t, v in targets.items()})


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

# The arrays of a world file; a dimension is an int or a name (see
# :func:`blobio.check_layout`): ``months`` and ``n_points`` follow from the
# manifest's years and grid, the others are bound by the arrays.
# ``window.*`` are the window-end pools and ``observed.*`` their observation.
WORLD_VERSION = 4
WORLD_LAYOUT = {
    "land_idx": ("n_cells",), "cell_lat": ("n_cells",), "cell_lon": ("n_cells",),
    "cell_point": ("n_cells",),
    **{f"points.{f.name}": ("n_points",) for f in dataclasses.fields(ForcingPoints)},
    "forcing_monthly": ("n_cells", "months", len(pipeline.G1_FIELDS)),
    "gbar_stat12": ("n_cells", 12),
    **{f"params.{name}": ("n_cells",) for name in
       ("alpha", "resp_frac", "nutrient", "decomp", "texture", "land_frac")},
    **{f"params.{name}": ("n_cells", "n_pft") for name in
       ("pft_weight", "sla", "crootfrac")},
    "params.alloc": ("n_cells", "n_pft", len(PFT_POOLS) + 1),
    "params.deposit": ("n_cells", len(LAYER_POOLS), "n_layers"),
    **{f"window.{k}": ("n_cells", "n_pft") for k in PFT_POOLS},
    **{f"window.{k}": ("n_cells", "n_layers") for k in LAYER_POOLS},
    "observed.g4": ("n_cells", "n_pft", len(PFT_POOLS) + 1),
    "observed.g5": ("n_cells", "n_layers", len(LAYER_POOLS)),
}
_INT_ARRAYS = ("land_idx", "cell_point")


def save_world(world, path):
    manifest = {
        "format": "world",
        "version": WORLD_VERSION,
        "seed": world.seed,
        "years": world.years,
        "grid": {"n_lat": world.grid.n_lat, "n_lon": world.grid.n_lon,
                 "resolution_deg": world.grid.resolution_deg},
        "turnover": {"k_fast": K_FAST, "k_wood": K_WOOD, "k_slow": K_SLOW},
        "params": sorted(WORLD_LAYOUT),
    }
    field = lambda name: operator.attrgetter(name.replace("window.", "window_end."))(world)
    arrays = {name: np.asarray(field(name), dtype=np.float64) for name in WORLD_LAYOUT}
    blobio.write_model_file(path, manifest, arrays)


def load_world(path):
    """Read a world file and check its arrays against :data:`WORLD_LAYOUT`.
    A file of another version is refused: those before version 3 hold no
    observed state, and version 3 also held two per-cell columns that
    nothing read.  So is a seed, year count or grid of the wrong kind."""
    manifest, arrays = blobio.read_model_file(path)
    if manifest.get("format") != "world":
        raise ContractError(f"{path}: not a world file: {manifest.get('format')!r}")
    if manifest.get("version") != WORLD_VERSION:
        raise ContractError(f"{path}: world file version {manifest.get('version')}; "
                            f"this build reads version {WORLD_VERSION}: rerun gen-data")
    try:
        g = manifest["grid"]
        seed, years = manifest["seed"], manifest["years"]
        n_lat, n_lon, res = g["n_lat"], g["n_lon"], g["resolution_deg"]
    except KeyError as exc:
        raise ContractError(f"world file {path} lacks {exc.args[0]!r}") from None
    for name, value, least in (("seed", seed, 0), ("years", years, 1),
                               ("grid n_lat", n_lat, 2), ("grid n_lon", n_lon, 2)):
        if type(value) is not int or value < least:
            raise ContractError(f"{path}: world {name} must be an integer "
                                f">= {least}, got {value!r}")
    if type(res) not in (int, float) or not 0 < res < math.inf:
        raise ContractError(f"{path}: world grid resolution_deg must be a finite "
                            f"positive number, got {res!r}")
    grid = GridSpec(n_lat, n_lon, res)
    blobio.check_layout(path, arrays, WORLD_LAYOUT,
                        {"months": 12 * years, "n_points": grid.n_points})
    a = {name: arrays[name].astype(np.int64) if name in _INT_ARRAYS else arrays[name]
         for name in WORLD_LAYOUT}
    group = lambda prefix: {name.split(".", 1)[1]: v for name, v in a.items()
                            if name.startswith(prefix + ".")}
    return World(seed=seed, years=years, grid=grid,
                 land_idx=a["land_idx"], cell_lat=a["cell_lat"],
                 cell_lon=a["cell_lon"], cell_point=a["cell_point"],
                 params=CellParams(**group("params")),
                 points=ForcingPoints(**group("points")),
                 forcing_monthly=a["forcing_monthly"], gbar_stat12=a["gbar_stat12"],
                 window_end=PoolState(**group("window")),
                 observed=Observations(**group("observed")))


def load_restart_state(world, path):
    """Read a restart file and validate it against the world: the initial
    PoolState, whose fast pools start from zero since the file carries only
    slow pools."""
    cell_ids, pools, n_pft, n_layers = blobio.read_restart(path)
    if n_pft != world.n_pft or n_layers != world.n_layers:
        raise ContractError("restart dimensions do not match the world")
    want = [int(v) for v in world.land_idx]
    known = set(want)
    pos = {}
    for i, cid in enumerate(cell_ids.tolist()):
        if cid in pos:
            raise ContractError(f"restart file holds cell {cid} more than once")
        if cid not in known:
            raise ContractError(f"restart file holds cell {cid}, which is not a "
                                "land cell of the world")
        pos[cid] = i
    missing = [cid for cid in want if cid not in pos]
    if missing:
        raise ContractError(f"restart file is missing {len(missing)} cells "
                            f"(first: {missing[:3]})")
    order = np.array([pos[cid] for cid in want])
    return restart_state(world, {key: pools[key][order] for key in SLOW_POOLS})


def restart_state(world, pools):
    """The initial state of a restart from the slow ``pools`` of every cell,
    in world order, as a restart file holds them: each pool as float32,
    read back as float64, and the fast pools zero."""
    state = PoolState.zeros(world.n_cells, world.n_pft, world.n_layers)
    for key in SLOW_POOLS:
        vals = np.asarray(pools[key], dtype=np.float32).astype(np.float64)
        if not np.all(np.isfinite(vals)) or vals.min() < 0:
            raise ContractError(f"restart pool {key} must be finite and "
                                "non-negative")
        setattr(state, key, vals)
    return state
