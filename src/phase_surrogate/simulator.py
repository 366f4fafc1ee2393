"""Toy land-carbon box model with analytically known equilibria.

A world is a lat/lon grid of land cells.  Each cell carries static
parameters, per-vegetation-type traits, and layered soil pools.  Synthetic
6-hourly forcing drives a smooth flux response; net primary production is
routed into a linear chain of carbon pools integrated with monthly forward
Euler.  Because the chain is linear, every pool's equilibrium is the closed
form u/k, which makes the simulator usable as an exact oracle: surrogate
labels, restart validation, and long-spinup cross-checks all reduce to
comparisons against u/k.

Pool layout: the integrator steps every pool of every cell as one packed
float64 block [n_cells, 4*n_pft + 3*n_layers], the pools' columns side by
side in POOL_KEYS order (:func:`pool_columns`).  A run packs its initial
:class:`PoolState` once, updates the block in place month by month, and
unpacks the result; each element goes through the same operations, in the
same order, as the per-pool form C + (u - (k/12) C), so results are
bitwise those of stepping each pool on its own.

Time layout: 6-hourly steps, 1460 per year.  Monthly aggregates use twelve
uniform 30-day months per year (each year's trailing 20 steps are ignored).
The 6-hourly series are never stored; they are regenerated on demand from
the world seed.  Forcing synthesis needs numpy only: one pass over time, a
month at a time across all cells, draws each cell's own noise stream and
runs its AR(1) filter as an explicit recurrence, bit for bit what
``scipy.signal.lfilter`` would return.

Per-cell work is embarrassingly parallel; everything here is vectorized
across cells and emitted in deterministic cell order.
"""

import dataclasses
import logging
import math

import numpy as np

from . import blobio
from . import pipeline
from .errors import ConfigurationError, ContractError, RangeError

log = logging.getLogger(__name__)

N_PFT = 5
N_LAYERS = 9

# annual turnover rates, scaled per cell by the decomposition factor
K_FAST = 0.1
K_WOOD = 0.005
K_SLOW = 0.004

TROPICS_LAT = 23.0
TREND_RAMP_YEARS = 15.0
# The trend stops after TREND_RAMP_YEARS, so the last 5 years of the default
# 20-year window are stationary: the climate the u/k targets are built from.
# A sample keeps these years of forcing unless asked for another window.
STATIONARY_YEARS = 5
NUTRIENT_RAMP_YEARS = 50.0
EQUILIBRIUM_BAND = 1.0 / 200.0
OBS_NOISE = 0.005
AR1_RHO = 0.8

STEPS_PER_YEAR = pipeline.STEPS_PER_YEAR
STEPS_PER_MONTH = pipeline.STEPS_PER_MONTH
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
FAST_POOLS = ("leaf_c", "froot_c")
SLOW_POOLS = ("deadcrootc", "deadstemc", "cwdc", "soil3c", "soil4c")

K_GROUP = {"leaf_c": K_FAST, "froot_c": K_FAST,
           "deadcrootc": K_WOOD, "deadstemc": K_WOOD, "cwdc": K_WOOD,
           "soil3c": K_SLOW, "soil4c": K_SLOW}

GRID_PRESETS = {"coarse": (24, 48, 1.0), "fine": (48, 96, 0.5)}

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
    land_fraction: float = 0.6

    def __post_init__(self):
        if self.n_lat < 2 or self.n_lon < 2:
            raise ConfigurationError("grid needs at least 2x2 cells")
        if self.resolution_deg <= 0:
            raise ConfigurationError("resolution_deg must be positive")
        if not 0.0 <= self.land_fraction <= 1.0:
            raise ConfigurationError("land_fraction must lie in [0, 1]")

    @property
    def lat_centers(self):
        step = 180.0 / self.n_lat
        return -90.0 + step * (np.arange(self.n_lat) + 0.5)

    @property
    def lon_centers(self):
        step = 360.0 / self.n_lon
        return -180.0 + step * (np.arange(self.n_lon) + 0.5)

    @property
    def spread_scale(self):
        # finer analog resolution exposes wider sub-grid heterogeneity
        return math.sqrt(1.0 / self.resolution_deg)


def grid_spec(name, land_fraction=0.6):
    if name not in GRID_PRESETS:
        raise ConfigurationError(f"unknown grid preset {name!r}; "
                                 f"choose from {sorted(GRID_PRESETS)}")
    n_lat, n_lon, res = GRID_PRESETS[name]
    return GridSpec(n_lat, n_lon, res, land_fraction)


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
    pft_code: np.ndarray
    deepest_valid_layer: np.ndarray
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

    @property
    def speedup_min(self):
        return float(self.speedup.min())

    @property
    def speedup_median(self):
        return float(np.median(self.speedup))


@dataclasses.dataclass
class World:
    """The state of a simulation: the grid and its land cells, their
    parameters, the forcing network, the monthly forcing of the window,
    the flux response to the stationary end-of-window climatology, and the
    pools at the end of the window.  Everything else is derived from these
    where it is needed; the equilibria u/k by :func:`analytic_equilibrium`."""
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
# Flux response
# ---------------------------------------------------------------------------

def _gbar_of(forcing_monthly):
    """Smooth positive flux response in (0, 1] of monthly forcing [..., 5]:
    light saturation times moisture saturation times a thermal optimum at
    290 K."""
    fm = np.asarray(forcing_monthly, dtype=np.float64)
    rad, pre, tmp = fm[..., 0], fm[..., 1], fm[..., 4]
    light = rad / (rad + 120.0)
    moisture = pre / (pre + 2.0)
    thermal = np.exp(-(((tmp - 290.0) / 26.0) ** 2))
    return light * moisture * thermal


def _flux_from_gbar(gbar, alpha, resp_frac, nutrient):
    gpp = alpha * nutrient * gbar / 12.0
    ar = resp_frac * gpp
    npp = gpp - ar
    return gpp, ar, npp


# ---------------------------------------------------------------------------
# Synthetic forcing
# ---------------------------------------------------------------------------

class _PointClimate:
    """Every forcing point's 6-hourly base series over the 1440 kept steps
    of a year, time-major [1440, P, 5].  Pressure, humidity and temperature
    do not depend on the year and are stored as they are; radiation and
    precipitation grow with the trend ramp, so their slots hold the
    seasonal cycle that :meth:`base` scales by 1 + trend*ramp."""

    def __init__(self, points):
        t = np.arange(12 * STEPS_PER_MONTH, dtype=np.float64)
        frac = t / STEPS_PER_YEAR
        step_in_day = t % STEPS_PER_DAY
        diurnal = 4.0 * np.cos(2.0 * np.pi * (step_in_day / STEPS_PER_DAY) - np.pi)
        self.season = np.empty((t.shape[0], points.n, 5))
        self.sun = np.empty(points.n)
        self.itcz = np.empty(points.n)
        for j, lat in enumerate(points.lat.tolist()):
            a = abs(lat) / 90.0
            phase = 0.0 if lat >= 0 else 0.5
            season = np.cos(2.0 * np.pi * (frac - 0.54 - phase))
            temperature = 302.0 - 49.0 * a ** 1.3 + (2.0 + 28.0 * a) * season + diurnal
            out = self.season[:, j]
            out[:, 0] = 1.0 + 0.42 * np.cos(2.0 * np.pi * (frac - 0.5 - phase))
            out[:, 1] = 1.0 + 0.45 * np.cos(2.0 * np.pi * (frac - 0.18 - phase))
            out[:, 2] = 96500.0 + 4500.0 * math.cos(math.radians(lat)) ** 2 \
                + 300.0 * np.cos(2.0 * np.pi * (frac - phase))
            out[:, 3] = 0.002 + 0.023 * np.exp(-(((temperature - 302.0) / 35.0) ** 2))
            out[:, 4] = temperature
            self.sun[j] = max(0.22, math.cos(math.radians(lat)))
            self.itcz[j] = 1.2 + 7.5 * math.exp(-(((abs(lat) - 12.0) / 26.0) ** 2))
        self.points = points

    def base(self, month, ramp):
        """Base series [120, P, 5] of calendar month 0-11 under the trend
        ramp ``ramp`` [120, 1]."""
        out = self.season[month * STEPS_PER_MONTH:(month + 1) * STEPS_PER_MONTH].copy()
        growth = 1.0 + self.points.trend * ramp
        out[..., 0] = self.points.rad_scale * growth * 250.0 * self.sun * out[..., 0]
        out[..., 1] = self.points.precip_scale * growth * self.itcz * out[..., 1]
        return out


_OFFSET_SD = np.array([9.0, 0.35, 350.0, 0.0012, 1.2])
_NOISE_SD = np.array([16.0, 0.9, 250.0, 0.001, 2.2])
_FORCING_LO, _FORCING_HI = np.array([FORCING_BOUNDS[f] for f in pipeline.G1_FIELDS]).T


def _cell_offsets(seed, land_idx, spread):
    """Each cell's constant forcing offset, [n_cells, 5]."""
    draws = [np.random.default_rng([seed, _SEED_NOISE, int(flat), 0]).standard_normal(5)
             for flat in land_idx]
    return np.stack(draws) * _OFFSET_SD * spread


def _ar1_noise(streams, draws, x, y, noise_sd):
    """Each cell's next AR(1) noise steps, y = AR1_RHO*y + noise_sd*eps,
    into time-major x [steps, n_cells, 5], continuing from and updating
    y [n_cells, 5].  Each stream draws its cell's eps into its row of
    draws [n_cells, steps, 5].  Step by step this is exactly what
    lfilter([1], [1, -AR1_RHO]) computes, bit for bit."""
    for stream, row in zip(streams, draws):
        stream.standard_normal(out=row)
    np.multiply(draws.transpose(1, 0, 2), noise_sd, out=x)
    prev = y
    for step in x:
        np.multiply(prev, AR1_RHO, out=y)
        step += y
        prev = step
    y[...] = prev


def _clip_bounds(series):
    """Clip forcing [..., 5] to FORCING_BOUNDS, in place.  The bounds are
    tiled over the next-to-last axis, so numpy runs one long inner loop
    rather than one of five values per row."""
    rows = (series.shape[-2], 1)
    return np.clip(series, np.tile(_FORCING_LO, rows), np.tile(_FORCING_HI, rows),
                   out=series)


def _window_monthly_forcing(seed, grid, years, land_idx, cell_point, climate, offsets):
    """Monthly-mean forcing [n_cells, months, 5] over the simulated window.

    A cell's series is its point's base, plus its offset, plus its AR(1)
    noise, clipped to FORCING_BOUNDS and averaged per month.  One pass runs
    over time a month at a time across all cells.  Each year's trailing
    steps are drawn and filtered as well, though no month keeps them, so
    every cell's stream and filter state advance as one [years*1460, 5]
    series would.
    """
    n = land_idx.shape[0]
    streams = [np.random.default_rng([seed, _SEED_NOISE, int(flat), 1]) for flat in land_idx]
    noise_sd = _NOISE_SD * grid.spread_scale * math.sqrt(1.0 - AR1_RHO ** 2)
    tail = STEPS_PER_YEAR - 12 * STEPS_PER_MONTH
    draws = np.empty((n, STEPS_PER_MONTH, 5))
    series = np.empty((STEPS_PER_MONTH, n, 5))
    y = np.zeros((n, 5))
    out = np.empty((n, 12 * years, 5))
    for year in range(years):
        for month in range(12):
            _ar1_noise(streams, draws, series, y, noise_sd)
            t = np.arange(STEPS_PER_MONTH, dtype=np.float64)[:, None] \
                + (year * STEPS_PER_YEAR + month * STEPS_PER_MONTH)
            ramp = np.minimum((t / STEPS_PER_YEAR) / TREND_RAMP_YEARS, 1.0)
            cell_base = np.take(climate.base(month, ramp), cell_point, axis=1)
            cell_base += offsets
            series += cell_base
            out[:, 12 * year + month] = _clip_bounds(series).mean(axis=0)
        _ar1_noise(streams, draws[:, :tail], series[:tail], y, noise_sd)
    return out


def _stationary_monthly(climate, cell_point, offsets, ramp_value):
    """Noise-free stationary-year monthly means [n_cells, 12, 5] with the
    trend ramp held constant."""
    ramp = np.full((STEPS_PER_MONTH, 1), float(ramp_value))
    point_monthly = np.stack([climate.base(m, ramp).mean(axis=0) for m in range(12)], axis=1)
    return _clip_bounds(point_monthly[cell_point] + offsets[:, None])


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
    n_land = int(round(grid.land_fraction * field.size))
    if n_land < 1:
        raise ConfigurationError("land mask is empty; raise land_fraction")
    flat = field.ravel()
    chosen = np.argsort(flat, kind="stable")[::-1][:n_land]
    return np.sort(chosen)


def _spread_uniform(rng, lo, hi, scale, clip_lo=None, clip_hi=None, size=None):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = mid + rng.uniform(-1.0, 1.0, size=size) * half * scale
    if clip_lo is not None or clip_hi is not None:
        vals = np.clip(vals, clip_lo, clip_hi)
    return vals


def _draw_points(seed, grid):
    m_lat, m_lon = grid.n_lat // 2, grid.n_lon // 2
    dlat, dlon = 180.0 / m_lat, 360.0 / m_lon
    plat = -90.0 + (np.arange(m_lat) + 0.37) * dlat
    plon = -180.0 + (np.arange(m_lon) + 0.37) * dlon
    lat = np.repeat(plat, m_lon)
    lon = np.tile(plon, m_lat)
    s = grid.spread_scale
    n = lat.shape[0]
    trend = np.empty(n)
    rad_scale = np.empty(n)
    precip_scale = np.empty(n)
    for j in range(n):
        rng = np.random.default_rng([seed, _SEED_POINT, j])
        trend[j] = _spread_uniform(rng, -0.25, 0.25, s, -0.4, 0.4)
        rad_scale[j] = _spread_uniform(rng, 0.85, 1.15, s, 0.7, 1.3)
        precip_scale[j] = _spread_uniform(rng, 0.9, 1.1, s, 0.8, 1.2)
    return ForcingPoints(lat, lon, trend, rad_scale, precip_scale)


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
    n = land_idx.shape[0]
    s = grid.spread_scale
    alpha = np.empty(n)
    resp_frac = np.empty(n)
    nutrient = np.ones(n)
    decomp = np.empty(n)
    texture = np.empty(n)
    land_frac = np.empty(n)
    pft_weight = np.empty((n, n_pft))
    sla = np.empty((n, n_pft))
    crootfrac = np.empty((n, n_pft))
    alloc = np.empty((n, n_pft, 5))
    deposit = np.empty((n, 3, n_layers))
    layers = np.arange(n_layers, dtype=np.float64)
    for c, flat in enumerate(land_idx):
        rng = np.random.default_rng([seed, _SEED_CELL, int(flat)])
        alpha[c] = _spread_uniform(rng, 1600.0, 2400.0, s, 800.0, 3600.0)
        resp_frac[c] = _spread_uniform(rng, 0.86, 0.94, s, 0.84, 0.96)
        decomp[c] = _spread_uniform(rng, 0.65, 1.08, s, 0.55, 1.095)
        texture[c] = _spread_uniform(rng, 0.0, 1.0, s, 0.0, 1.0)
        land_frac[c] = _spread_uniform(rng, 0.55, 1.0, s, 0.05, 1.0)
        depletion = _spread_uniform(rng, 0.05, 0.45, s, 0.02, 0.6)
        if abs(cell_lat[c]) < TROPICS_LAT:
            nutrient[c] = 1.0 - depletion
        w = _PFT_BASE_WEIGHT[:n_pft] * rng.gamma(16.0, size=n_pft)
        pft_weight[c] = w / w.sum()
        sla[c] = _PFT_BASE_SLA[:n_pft] * _spread_uniform(
            rng, 0.85, 1.15, s, 0.6, 1.6, size=n_pft)
        crootfrac[c] = _spread_uniform(rng, 0.1, 0.6, s, 0.02, 0.9, size=n_pft)
        a = _PFT_BASE_ALLOC[:n_pft] * rng.gamma(25.0, size=(n_pft, 5))
        alloc[c] = a / a.sum(axis=1, keepdims=True)
        group = rng.gamma(5.0, size=3)
        z0 = _spread_uniform(rng, 3.0, 5.0, s, 2.5, 6.0, size=3)
        prof = group[:, None] * np.exp(-layers[None, :] / z0[:, None])
        deposit[c] = prof / prof.sum()
    pft_code = np.tile(np.arange(n_pft, dtype=np.int64), (n, 1))
    deepest = np.full(n, n_layers, dtype=np.int64)
    return CellParams(alpha, resp_frac, nutrient, decomp, texture, land_frac,
                      pft_weight, sla, crootfrac, pft_code, deepest, alloc, deposit)


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
    and the state change equals the computed net flux exactly (pre-clamp)."""
    np.multiply(k_month, pools, out=scratch)
    np.subtract(u, scratch, out=scratch)
    np.add(pools, scratch, out=pools)
    np.maximum(pools, 0.0, out=pools)


def _schedule(world, year, month):
    """Monthly response means and nutrient factor for a spin-up year.
    During the simulated window the response follows the window's forcing
    and the nutrient factor is 1; afterwards the stationary climatology
    repeats and the factor phases in linearly."""
    if year < world.years:
        gbar = _gbar_of(world.forcing_monthly[:, 12 * year + month])
        p = np.ones(world.n_cells)
    else:
        gbar = world.gbar_stat12[:, month]
        frac = min(1.0, (year - world.years + 1) / NUTRIENT_RAMP_YEARS)
        p = 1.0 + (world.params.nutrient - 1.0) * frac
    return gbar, p


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
    for m in range(12 * years):
        year, month = divmod(m, 12)
        gbar, p = _schedule(world, year, month)
        _, _, npp = _flux_from_gbar(gbar, alpha, r, p)
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
    alpha, r, p = params.alpha, params.resp_frac, params.nutrient
    gpp_m, ar_m, npp_m = _flux_from_gbar(gbar12, alpha[:, None], r[:, None], p[:, None])
    gpp = 12.0 * gpp_m.mean(axis=1)
    ar = r * gpp
    npp = gpp - ar
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
    """Integrate every cell from a supplied state under constant
    stationary-mean forcing and report distances to the analytic
    equilibrium before and after, per-pool drift, and the speedup over a
    cold start: months for every slow-pool element to come within
    EQUILIBRIUM_BAND of u/k from zero pools over those from ``initial``, a
    warm start inside the band counting one month.

    The pools advance as one packed block (see :func:`advance_month`),
    packed from ``initial`` and unpacked at the end, under an input
    u = npp*route built once since npp is constant; the final state and
    the reports are bitwise those of stepping each pool on its own."""
    if years < 1:
        raise ConfigurationError("restart_run needs years >= 1")
    params = world.params
    route, k_month = _monthly_operators(world)
    kappa = kappa_annual(params)
    eq = analytic_equilibrium(world)
    _, _, npp_m12 = _flux_from_gbar(world.gbar_stat12, params.alpha[:, None],
                                    params.resp_frac[:, None], params.nutrient[:, None])
    u = npp_m12.mean(axis=1)[:, None] * route

    pools = pack(vars(initial), world.n_pft, world.n_layers)
    scratch = np.empty_like(pools)
    before = _distance_report(initial, eq.pools)
    for _ in range(12 * years):
        advance_month(pools, u, k_month, scratch)
    state = unpack(pools, world.n_pft, world.n_layers)
    after = _distance_report(state, eq.pools)
    drift = _distance_report(state, initial, pools=SLOW_POOLS)

    warm = cold = 1.0
    for key in SLOW_POOLS:
        # closed form of the monthly step: C_n - C* = (1 - k/12)^n (C_0 - C*)
        target = getattr(eq.pools, key)
        log_rate = np.log1p(-kappa[key] / 12.0)
        gap = np.abs(getattr(initial, key) - target)
        with np.errstate(divide="ignore", invalid="ignore"):
            months = np.ceil(np.log(EQUILIBRIUM_BAND * target / gap) / log_rate[:, None])
        warm = np.maximum(warm, np.where(gap > EQUILIBRIUM_BAND * target, months, 0.0).max(axis=1))
        cold = np.maximum(cold, np.ceil(math.log(EQUILIBRIUM_BAND) / log_rate))
    report = RestartReport(years=years, window_years=world.years,
                           before=before, after=after, drift=drift,
                           cold_start_years=cold / 12.0, warm_start_years=warm / 12.0,
                           speedup=cold / warm)
    return state, report


def _distance_report(state, reference, pools=POOL_KEYS):
    out = {}
    for key in pools:
        a = getattr(state, key)
        b = getattr(reference, key)
        denom = np.maximum(np.abs(b), 1e-30)
        rel = np.abs(a - b) / denom
        out[key] = {"median": float(np.median(rel)), "max": float(rel.max())}
    return out


# ---------------------------------------------------------------------------
# Construction entry point
# ---------------------------------------------------------------------------

def generate_world(seed, grid, years=20):
    """Build a fully specified world: land cells, parameters, forcing
    network, monthly forcing window, the stationary end-of-window response,
    and the end-of-window pool state, spun through the window from the
    equilibrium of the noise-free pre-window climatology."""
    if not isinstance(grid, GridSpec):
        raise ConfigurationError("grid must be a GridSpec")
    if years < 1:
        raise ConfigurationError("years must be >= 1")
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
    climate = _PointClimate(points)
    offsets = _cell_offsets(seed, land_idx, grid.spread_scale)
    forcing_monthly = _window_monthly_forcing(seed, grid, years, land_idx,
                                              cell_point, climate, offsets)
    pre = _stationary_monthly(climate, cell_point, offsets, ramp_value=0.0)
    stat = _stationary_monthly(climate, cell_point, offsets, ramp_value=1.0)

    world = World(seed=int(seed), years=int(years), grid=grid,
                  land_idx=land_idx, cell_lat=cell_lat, cell_lon=cell_lon,
                  cell_point=cell_point, params=params, points=points,
                  forcing_monthly=forcing_monthly, gbar_stat12=_gbar_of(stat),
                  window_end=None)
    pre_params = dataclasses.replace(params, nutrient=np.ones(world.n_cells))
    eq_pre = _equilibrium_from(_gbar_of(pre), pre_params).pools
    world.window_end = spinup(world, years, initial=eq_pre).final
    return world


# ---------------------------------------------------------------------------
# Sample export
# ---------------------------------------------------------------------------

def export_samples(world, window_years=None):
    """Every cell's sample as one :class:`pipeline.Samples`: monthly forcing
    over the last window_years (by default the last STATIONARY_YEARS, or the
    whole span if shorter), static attributes, traits, end-of-window states
    with small observation noise, and exact equilibrium targets."""
    if window_years is None:
        window_years = min(world.years, STATIONARY_YEARS)
    wy = int(window_years)
    if wy > world.years:
        raise RangeError(f"window of {wy} yr exceeds simulated span of "
                         f"{world.years} yr")
    if wy < 1:
        raise RangeError("window must cover at least 1 yr")
    months = 12 * wy
    p, w, eq = world.params, world.window_end, analytic_equilibrium(world)
    g2 = np.stack([world.cell_lat, world.cell_lon, p.land_frac, p.alpha,
                   p.resp_frac, p.nutrient, p.decomp, p.texture], axis=1)
    g3 = np.stack([p.pft_weight, p.sla, p.crootfrac], axis=2)
    g4 = np.stack([w.leaf_c, w.froot_c, w.deadcrootc, w.deadstemc,
                   p.sla * w.leaf_c], axis=2)
    g5 = np.stack([w.cwdc, w.soil3c, w.soil4c], axis=2)
    # each cell draws its own noise, g4 before g5, from a stream keyed by
    # its flat grid index, so a cell's sample does not depend on the others
    for c, flat in enumerate(world.land_idx):
        rng = np.random.default_rng([world.seed, _SEED_OBS, int(flat)])
        g4[c] *= 1.0 + OBS_NOISE * rng.standard_normal(g4.shape[1:])
        g5[c] *= 1.0 + OBS_NOISE * rng.standard_normal(g5.shape[1:])
    targets = {"deadcrootc": eq.pools.deadcrootc, "deadstemc": eq.pools.deadstemc,
               "tlai": eq.tlai, "cwdc": eq.pools.cwdc, "soil3c": eq.pools.soil3c,
               "soil4c": eq.pools.soil4c, "gpp": eq.gpp, "ar": eq.ar, "npp": eq.npp}
    return pipeline.Samples(
        cell_id=world.land_idx.astype(np.int64),
        lat=world.cell_lat.copy(), lon=world.cell_lon.copy(),
        pft_code=p.pft_code.copy(),
        deepest_valid_layer=p.deepest_valid_layer.copy(),
        groups={"g1": world.forcing_monthly[:, world.months - months:].copy(),
                "g2": g2, "g3": g3,
                "g4": np.maximum(g4, 0.0), "g5": np.maximum(g5, 0.0)},
        targets={t: v.copy() for t, v in targets.items()})


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_world(world, path):
    manifest = {
        "format": "world",
        "version": 2,
        "seed": world.seed,
        "years": world.years,
        "grid": {"n_lat": world.grid.n_lat, "n_lon": world.grid.n_lon,
                 "resolution_deg": world.grid.resolution_deg,
                 "land_fraction": world.grid.land_fraction},
        "n_cells": world.n_cells,
        "n_pft": world.n_pft,
        "n_layers": world.n_layers,
        "turnover": {"k_fast": K_FAST, "k_wood": K_WOOD, "k_slow": K_SLOW},
    }
    arrays = {
        "land_idx": world.land_idx.astype(np.float64),
        "cell_lat": world.cell_lat, "cell_lon": world.cell_lon,
        "cell_point": world.cell_point.astype(np.float64),
        "points.lat": world.points.lat, "points.lon": world.points.lon,
        "points.trend": world.points.trend,
        "points.rad_scale": world.points.rad_scale,
        "points.precip_scale": world.points.precip_scale,
        "forcing_monthly": world.forcing_monthly,
        "gbar_stat12": world.gbar_stat12,
    }
    for f in dataclasses.fields(CellParams):
        arrays[f"params.{f.name}"] = getattr(world.params, f.name).astype(np.float64)
    arrays.update({f"window.{k}": getattr(world.window_end, k) for k in POOL_KEYS})
    manifest["params"] = sorted(arrays)
    blobio.write_model_file(path, manifest, arrays)


def load_world(path):
    """Read a world file.  A file of an older version holds every array
    this reads, and more, so it loads too."""
    manifest, arrays = blobio.read_model_file(path)
    if manifest.get("format") != "world":
        raise ContractError(f"{path} is not a world file")
    try:
        return _world_from(manifest, arrays)
    except KeyError as exc:
        raise ContractError(f"world file {path} lacks {exc.args[0]!r}") from None


def _world_from(manifest, arrays):
    g = manifest["grid"]
    grid = GridSpec(g["n_lat"], g["n_lon"], g["resolution_deg"], g["land_fraction"])
    n_cells = arrays["land_idx"].shape[0]
    per_cell = ("cell_lat", "cell_lon", "cell_point", "forcing_monthly",
                "gbar_stat12",
                *(f"params.{f.name}" for f in dataclasses.fields(CellParams)),
                *(f"window.{k}" for k in POOL_KEYS))
    for name in per_cell:
        if arrays[name].shape[:1] != (n_cells,):
            raise ContractError(f"world array {name!r} has shape "
                                f"{arrays[name].shape}, not one row per land "
                                f"cell ({n_cells})")
    fields = {}
    for f in dataclasses.fields(CellParams):
        arr = arrays[f"params.{f.name}"]
        if f.name in ("pft_code", "deepest_valid_layer"):
            arr = arr.astype(np.int64)
        fields[f.name] = arr
    params = CellParams(**fields)
    points = ForcingPoints(arrays["points.lat"], arrays["points.lon"],
                           arrays["points.trend"], arrays["points.rad_scale"],
                           arrays["points.precip_scale"])
    return World(seed=manifest["seed"], years=manifest["years"], grid=grid,
                 land_idx=arrays["land_idx"].astype(np.int64),
                 cell_lat=arrays["cell_lat"], cell_lon=arrays["cell_lon"],
                 cell_point=arrays["cell_point"].astype(np.int64),
                 params=params, points=points,
                 forcing_monthly=arrays["forcing_monthly"],
                 gbar_stat12=arrays["gbar_stat12"],
                 window_end=PoolState(**{k: arrays[f"window.{k}"] for k in POOL_KEYS}))


def load_restart_state(world, path):
    """Read a restart file and validate it against the world; fast pools
    start from zero since the file carries only slow pools.  Returns the
    initial PoolState and the stored tlai diagnostic."""
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
    state = PoolState.zeros(world.n_cells, world.n_pft, world.n_layers)
    for key in SLOW_POOLS:
        vals = pools[key][order].astype(np.float64)
        if not np.all(np.isfinite(vals)) or vals.min() < 0:
            raise ContractError(f"restart pool {key} must be finite and "
                                "non-negative")
        setattr(state, key, vals)
    return state, pools["tlai"][order].astype(np.float64)

