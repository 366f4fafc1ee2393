import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from phase_surrogate import blobio
from phase_surrogate import pipeline as pl
from phase_surrogate import simulator as sim
from phase_surrogate.errors import ConfigurationError, ContractError


@pytest.fixture(scope="module")
def world():
    return sim.generate_world(3, sim.GridSpec(8, 8, 1.0), years=20)


@pytest.fixture(scope="module")
def preset_world():
    """Gives the default 20-year world of a grid preset and seed, each
    built once per module."""
    worlds = {}

    def get(grid, seed):
        if (grid, seed) not in worlds:
            worlds[grid, seed] = sim.generate_world(seed, sim.grid_spec(grid))
        return worlds[grid, seed]
    return get


def reference_step(state, npp_month, route, kappa):
    """The per-pool forward-Euler month, C + (u - (k/12) C) clamped at
    zero, from per-pool routes and annual turnovers: the reference the
    packed stepper must equal bit for bit."""
    new = {}
    for key in sim.POOL_KEYS:
        pool = getattr(state, key)
        u = npp_month[:, None] * route[key]
        kap = (kappa[key] / 12.0)[:, None]
        new[key] = np.maximum(pool + (u - kap * pool), 0.0)
    return sim.PoolState(**new)


def stepper(state, npp_month, route, kappa):
    """Packed pools, input, turnover and scratch blocks for advance_month
    from a PoolState and per-pool routes and annual turnovers."""
    n_pft, n_layers = state.leaf_c.shape[1], state.cwdc.shape[1]
    pools = sim.pack(vars(state), n_pft, n_layers)
    u = npp_month[:, None] * sim.pack(route, n_pft, n_layers)
    k_month = sim.pack({key: (k / 12.0)[:, None] for key, k in kappa.items()},
                       n_pft, n_layers)
    return pools, u, k_month, np.empty_like(pools)


SOIL3C = sim.pool_columns(1, 1)["soil3c"].start


def single_pool_setup(k, n=1):
    """Integrator harness: everything routed into one soil3c layer."""
    route = {key: np.zeros((n, 1)) for key in sim.POOL_KEYS}
    route["soil3c"] = np.ones((n, 1))
    kappa = {key: np.full(n, k) for key in sim.POOL_KEYS}
    state = sim.PoolState.zeros(n, n_pft=1, n_layers=1)
    return state, route, kappa


def integrate_constant(state, u_annual, route, kappa, years):
    """The packed stepper from ``state`` under constant input; returns the
    final state and the soil3c trajectory [months + 1, n], start included."""
    npp_month = np.full(state.soil3c.shape[0], u_annual / 12.0)
    pools, u, k_month, scratch = stepper(state, npp_month, route, kappa)
    path = [pools[:, SOIL3C].copy()]
    for _ in range(12 * years):
        sim.advance_month(pools, u, k_month, scratch)
        path.append(pools[:, SOIL3C].copy())
    return sim.unpack(pools, 1, 1), np.array(path)


class TestIntegratorClosedForms:
    def test_one_year_from_zero(self):
        # C(1yr) = u (1 - e^{-k}) / k for k=0.004, u=2
        state, route, kappa = single_pool_setup(0.004)
        final, _ = integrate_constant(state, 2.0, route, kappa, years=1)
        expect = 2.0 * (1.0 - math.exp(-0.004)) / 0.004
        assert final.soil3c[0, 0] == pytest.approx(expect, rel=5e-4)

    def test_long_run_reaches_u_over_k(self):
        # u=2, k=0.004 -> C* = 500
        state, route, kappa = single_pool_setup(0.004)
        final, _ = integrate_constant(state, 2.0, route, kappa, years=3000)
        assert final.soil3c[0, 0] == pytest.approx(500.0, rel=1e-4)

    def test_ten_percent_offset_decays_to_6_7_percent(self):
        state, route, kappa = single_pool_setup(0.004)
        state.soil3c[0, 0] = 550.0  # 10% above the u/k = 500 equilibrium
        final, _ = integrate_constant(state, 2.0, route, kappa, years=100)
        rel = (final.soil3c[0, 0] - 500.0) / 500.0
        assert rel == pytest.approx(0.1 * math.exp(-0.4), rel=2e-3)

    def test_monotone_convergence_from_zero(self):
        state, route, kappa = single_pool_setup(0.03)
        _, path = integrate_constant(state, 5.0, route, kappa, years=200)
        values = path[:, 0]
        assert np.all(np.diff(values) > 0)
        assert values[-1] < 5.0 / 0.03

    def test_conservation_is_bitwise(self):
        rng = np.random.default_rng(5)
        n, n_pft, n_layers = 7, 5, 9
        state = sim.PoolState.zeros(n, n_pft, n_layers)
        for key in sim.POOL_KEYS:
            arr = getattr(state, key)
            arr[:] = rng.uniform(0.0, 800.0, size=arr.shape)
        route = {key: rng.uniform(0.0, 0.3, size=getattr(state, key).shape[:2])
                 for key in sim.POOL_KEYS}
        kappa = {key: rng.uniform(0.001, 0.1, size=n) for key in sim.POOL_KEYS}
        npp = rng.uniform(10.0, 90.0, size=n)
        pools, u, k_month, scratch = stepper(state, npp, route, kappa)
        sim.advance_month(pools, u, k_month, scratch)
        after = sim.unpack(pools, n_pft, n_layers)
        for key in sim.POOL_KEYS:
            pool = getattr(state, key)
            delta = npp[:, None] * route[key] - (kappa[key] / 12.0)[:, None] * pool
            assert np.array_equal(getattr(after, key), pool + delta), key

    def test_clamps_negative_states_at_zero(self):
        # k/12 = 1.5: the month ends at 100 - 150 before the clamp
        state, route, kappa = single_pool_setup(18.0)
        state.soil3c[0, 0] = 100.0
        pools, u, k_month, scratch = stepper(state, np.zeros(1), route, kappa)
        sim.advance_month(pools, u, k_month, scratch)
        assert pools[0, SOIL3C] == 0.0


class TestPackedLayout:
    @pytest.mark.parametrize("n_pft, n_layers", [(1, 1), (2, 3), (5, 9)])
    def test_pack_unpack_round_trip(self, n_pft, n_layers):
        rng = np.random.default_rng(10 * n_pft + n_layers)
        state = sim.PoolState.zeros(4, n_pft, n_layers)
        for key in sim.POOL_KEYS:
            arr = getattr(state, key)
            arr[:] = rng.uniform(0.0, 800.0, size=arr.shape)
        block = sim.pack(vars(state), n_pft, n_layers)
        assert block.shape == (4, 4 * n_pft + 3 * n_layers)
        assert block.dtype == np.float64
        # the pools' columns lie side by side in POOL_KEYS order
        assert np.array_equal(block, np.concatenate(
            [getattr(state, key) for key in sim.POOL_KEYS], axis=1))
        back = sim.unpack(block, n_pft, n_layers)
        for key in sim.POOL_KEYS:
            assert np.array_equal(getattr(back, key), getattr(state, key)), key
            assert not np.shares_memory(getattr(back, key), block), key

    def test_months_allocate_nothing(self, world):
        route, k_month = sim._monthly_operators(world)
        u = (sim.analytic_equilibrium(world).npp / 12.0)[:, None] * route
        pools = sim.pack(vars(world.window_end), world.n_pft, world.n_layers)
        scratch = np.empty_like(pools)
        tracemalloc.start()
        try:
            for _ in range(120):
                sim.advance_month(pools, u, k_month, scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pools.shape == (world.n_cells, 47)
        assert peak < pools.nbytes


class TestFluxes:
    # the formula spin-up, the equilibria and a model's flux predictions run
    def fluxes(self, fm, alpha=2000.0, resp_frac=0.9, nutrient=1.0):
        return pl._flux_from_gbar(pl._gbar_of(fm), alpha, resp_frac, nutrient)

    def random_forcing(self, rng, n):
        cols = []
        for name in pl.G1_FIELDS:
            lo, hi = sim.FORCING_BOUNDS[name]
            cols.append(rng.uniform(lo, hi, size=n))
        return np.stack(cols, axis=-1)

    def test_identity_exact_for_1000_random_inputs(self):
        rng = np.random.default_rng(0)
        fm = self.random_forcing(rng, 1000)
        gpp, ar, npp = self.fluxes(fm, alpha=rng.uniform(800, 3600, size=1000),
                                   resp_frac=rng.uniform(0.82, 0.975, size=1000),
                                   nutrient=rng.uniform(0.4, 1.0, size=1000))
        assert np.all(npp + ar - gpp == 0.0)
        assert np.all(gpp > 0)

    def test_full_respiration_gives_zero_npp(self):
        fm = self.random_forcing(np.random.default_rng(1), 10)
        _, _, npp = self.fluxes(fm, resp_frac=1.0)
        assert np.all(npp == 0.0)

    def test_halving_nutrient_halves_gpp(self):
        fm = self.random_forcing(np.random.default_rng(2), 50)
        g1, a1, n1 = self.fluxes(fm, nutrient=1.0)
        g2, a2, n2 = self.fluxes(fm, nutrient=0.5)
        assert np.array_equal(g2, 0.5 * g1)
        assert np.array_equal(n2, 0.5 * n1)

    def test_response_is_positive_and_bounded(self):
        rng = np.random.default_rng(3)
        fm = self.random_forcing(rng, 500)
        g = pl._gbar_of(fm)
        assert np.all(g >= 0.0) and np.all(g <= 1.0)


class TestWorldGeneration:
    def test_deterministic_bitwise(self):
        a = sim.generate_world(11, sim.GridSpec(4, 6, 1.0), years=2)
        b = sim.generate_world(11, sim.GridSpec(4, 6, 1.0), years=2)
        assert np.array_equal(a.land_idx, b.land_idx)
        assert np.array_equal(a.forcing_monthly, b.forcing_monthly)
        assert np.array_equal(a.params.alpha, b.params.alpha)
        assert np.array_equal(a.window_end.soil4c, b.window_end.soil4c)
        assert np.array_equal(sim.analytic_equilibrium(a).pools.soil4c,
                              sim.analytic_equilibrium(b).pools.soil4c)

    def test_forcing_series_length_and_bounds(self):
        # the window's monthly means, one row per month of every year
        w = sim.generate_world(0, sim.GridSpec(2, 2, 1.0), years=2)
        # the smallest grid keeps round(LAND_FRACTION * 4) land cells
        assert w.n_cells == 2
        series = w.forcing_monthly
        assert series.shape == (w.n_cells, 24, len(pl.G1_FIELDS))
        for i, name in enumerate(pl.G1_FIELDS):
            lo, hi = sim.FORCING_BOUNDS[name]
            assert series[..., i].min() >= lo and series[..., i].max() <= hi, name

    def test_nutrient_only_deviates_in_tropics(self, world):
        tropical = np.abs(world.cell_lat) < pl.TROPICS_LAT
        assert tropical.any() and (~tropical).any()
        assert np.all(world.params.nutrient[tropical] < 1.0)
        assert np.all(world.params.nutrient[~tropical] == 1.0)
        assert world.params.nutrient.min() > 0.0

    def test_cell_point_is_nearest(self, world):
        cells = np.stack([world.cell_lat, world.cell_lon], axis=1)
        points = np.stack([world.points.lat, world.points.lon], axis=1)
        d2 = ((cells[:, None, :] - points[None, :, :]) ** 2).sum(-1)
        np.testing.assert_array_equal(world.cell_point, d2.argmin(axis=1))

    def test_allocation_and_deposit_normalized(self, world):
        p = world.params
        np.testing.assert_allclose(p.alloc.sum(axis=2), 1.0, rtol=1e-12)
        np.testing.assert_allclose(p.deposit.sum(axis=(1, 2)), 1.0, rtol=1e-12)
        np.testing.assert_allclose(p.pft_weight.sum(axis=1), 1.0, rtol=1e-12)
        route = sim.route_weights(p)
        total = sum(route[k].sum(axis=1) for k in sim.POOL_KEYS)
        np.testing.assert_allclose(total, 1.0, rtol=1e-12)

    def test_slow_turnover_keeps_cold_start_over_1200_years(self, world):
        k_slow = sim.K_SLOW * world.params.decomp
        years = np.log(200.0) / k_slow
        assert years.min() >= 1200.0

    def test_grid_coordinate_ranges(self, world):
        assert world.cell_lat.min() >= -90 and world.cell_lat.max() <= 90
        assert world.cell_lon.min() >= -180 and world.cell_lon.max() < 180

    def test_monthly_forcing_within_bounds(self, world):
        for i, name in enumerate(pl.G1_FIELDS):
            lo, hi = sim.FORCING_BOUNDS[name]
            vals = world.forcing_monthly[..., i]
            assert vals.min() >= lo and vals.max() <= hi, name

    def test_configuration_errors(self):
        with pytest.raises(ConfigurationError):
            sim.generate_world(0, sim.GridSpec(4, 4, 1.0), years=0)
        with pytest.raises(ConfigurationError):
            sim.GridSpec(1, 5, 1.0)
        with pytest.raises(ConfigurationError):
            sim.grid_spec("planetary")

    def test_unstable_step_rejected(self, world):
        forged = dataclasses.replace(world.params,
                                     decomp=np.full(world.n_cells, 1e4))
        bad = dataclasses.replace(world, params=forged)
        with pytest.raises(ConfigurationError):
            sim.spinup(bad, 1)


def step_mean(steps):
    """The mean of a month's 6-hourly rows [120, ...], summed one step at
    a time."""
    total = 0.0
    for row in steps:
        total = total + row
    return total / sim.STEPS_PER_MONTH


def bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def clip_fields(series):
    out = series.copy()
    for i, name in enumerate(pl.G1_FIELDS):
        lo, hi = sim.FORCING_BOUNDS[name]
        out[..., i] = np.clip(out[..., i], lo, hi)
    return out


# The closed-form month means of radiation and precipitation differ from
# the reference's sums of 120 steps by rounding only, at most about 2e-15
# relative on the coarse and fine grids.  No order of summation reproduces
# the reference's own rounding, so these two fields, and whatever is
# computed from them, are compared at about ten times that; the fields and
# draws the closed form does not touch are compared bitwise.
RAMPED = [pl.G1_FIELDS.index("radiation"), pl.G1_FIELDS.index("precipitation")]
STATIC = [i for i in range(len(pl.G1_FIELDS)) if i not in RAMPED]
ROUNDING = 2e-14


def assert_rounding_close(got, want, axis=None):
    """``got`` equals ``want`` but for rounding: within ROUNDING of the
    largest magnitude of ``want`` (over ``axis``)."""
    scale = np.abs(want).max(axis=axis, keepdims=axis is not None)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= ROUNDING * scale)


def assert_forcing_matches(got, want):
    """Forcing [..., 3]: temperature bitwise, radiation and precipitation
    within rounding of each field's largest value."""
    assert bitwise_equal(got[..., STATIC], want[..., STATIC])
    assert_rounding_close(got[..., RAMPED], want[..., RAMPED],
                          axis=tuple(range(want.ndim - 1)))


def month_mean_sd(rho, steps):
    """The sd of the mean of ``steps`` consecutive values of a stationary
    unit-variance AR(1) process, from its autocorrelations rho^|i-j|."""
    lag = np.abs(np.subtract.outer(np.arange(steps), np.arange(steps)))
    return math.sqrt(float((rho ** lag).sum())) / steps


class StepClimate:
    """The forcing points' 6-hourly climatology built the direct way, one
    point at a time, every field time-major [1440, P, 3]; :meth:`base`
    scales radiation and precipitation by the month's trend ramp.  The
    simulator's monthly means must equal means of these rows: bitwise for
    temperature, within rounding for the other two."""

    def __init__(self, points):
        t = np.arange(12 * sim.STEPS_PER_MONTH, dtype=np.float64)
        frac = t / sim.STEPS_PER_YEAR
        step_in_day = t % sim.STEPS_PER_DAY
        diurnal = 4.0 * np.cos(2.0 * np.pi * (step_in_day / sim.STEPS_PER_DAY) - np.pi)
        self.season = np.empty((t.shape[0], points.n, 3))
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
            out[:, 2] = temperature
            self.sun[j] = max(0.22, math.cos(math.radians(lat)))
            self.itcz[j] = 1.2 + 7.5 * math.exp(-(((abs(lat) - 12.0) / 26.0) ** 2))
        self.points = points

    def base(self, month, ramp):
        """The 6-hourly rows [120, P, 3] of calendar month 0-11 under the
        trend ramp ``ramp`` [120, 1]."""
        steps = slice(month * sim.STEPS_PER_MONTH, (month + 1) * sim.STEPS_PER_MONTH)
        out = self.season[steps].copy()
        growth = 1.0 + self.points.trend * ramp
        out[..., 0] = self.points.rad_scale * growth * 250.0 * self.sun * out[..., 0]
        out[..., 1] = self.points.precip_scale * growth * self.itcz * out[..., 1]
        return out

    def window_month(self, m):
        """Month ``m`` of the window at every point, [P, 3]: the mean of
        its 6-hourly rows under that month's trend ramp."""
        start = (m // 12) * sim.STEPS_PER_YEAR + (m % 12) * sim.STEPS_PER_MONTH
        t = np.arange(start, start + sim.STEPS_PER_MONTH, dtype=np.float64)
        ramp = np.minimum((t / sim.STEPS_PER_YEAR) / sim.TREND_RAMP_YEARS, 1.0)
        return step_mean(self.base(m % 12, ramp[:, None]))

    def stationary(self, ramp_value):
        """The twelve months at every point, [P, 12, 3], under a constant
        trend ramp."""
        ramp = np.full((sim.STEPS_PER_MONTH, 1), float(ramp_value))
        return np.stack([step_mean(self.base(m, ramp)) for m in range(12)], axis=1)


# A cell draws its offset and each month's noise for these five fields,
# and keeps those of pipeline.G1_FIELDS.
DRAWN_FIELDS = ("radiation", "precipitation", "pressure", "humidity", "temperature")
KEPT = [DRAWN_FIELDS.index(name) for name in pl.G1_FIELDS]


def reference_offset(seed, grid, flat):
    """One cell's forcing offset [3]: five normals from its own stream, of
    which the kept fields are scaled."""
    rng = np.random.default_rng([seed, sim._SEED_NOISE, int(flat), 0])
    return rng.standard_normal(len(DRAWN_FIELDS))[KEPT] * sim._OFFSET_SD * grid.spread_scale


def reference_forcing(seed, grid, flat, point_months, offset):
    """One cell's monthly forcing [months, 3] built the direct way: its
    whole noise stream in one draw of five fields a month, and month by
    month its point's mean climatology (``point_months`` [months, 3]) plus
    its offset and the kept fields' noise, clipped field by field."""
    rng = np.random.default_rng([seed, sim._SEED_NOISE, int(flat), 1])
    drawn = rng.standard_normal((point_months.shape[0], len(DRAWN_FIELDS)))
    noise = drawn[:, KEPT] * (sim._NOISE_SD * grid.spread_scale * sim._MONTH_MEAN_SD)
    return clip_fields(point_months + offset + noise)


def spread_uniform_scalar(rng, lo, hi, scale, clip_lo, clip_hi, size=None):
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return np.clip(mid + rng.uniform(-1.0, 1.0, size=size) * half * scale, clip_lo, clip_hi)


def reference_points(seed, grid):
    """The forcing points drawn one scalar at a time."""
    m_lat, m_lon = grid.n_lat // 2, grid.n_lon // 2
    dlat, dlon = 180.0 / m_lat, 360.0 / m_lon
    lat = np.repeat(-90.0 + (np.arange(m_lat) + 0.37) * dlat, m_lon)
    lon = np.tile(-180.0 + (np.arange(m_lon) + 0.37) * dlon, m_lat)
    s = grid.spread_scale
    draws = np.empty((lat.shape[0], 3))
    for j in range(lat.shape[0]):
        rng = np.random.default_rng([seed, sim._SEED_POINT, j])
        draws[j] = (spread_uniform_scalar(rng, -0.25, 0.25, s, -0.4, 0.4),
                    spread_uniform_scalar(rng, 0.85, 1.15, s, 0.7, 1.3),
                    spread_uniform_scalar(rng, 0.9, 1.1, s, 0.8, 1.2))
    return sim.ForcingPoints(lat, lon, *draws.T.copy())


def reference_cell_params(seed, grid, land_idx, cell_lat, n_pft, n_layers):
    """Every cell's parameters drawn and normalized one cell, and one
    scalar parameter, at a time.  The fourth and fifth scalars and the
    second trait are drawn as the generator draws them, and not kept."""
    n = land_idx.shape[0]
    s = grid.spread_scale
    scalars = np.empty((n, 6))
    nutrient = np.ones(n)
    pft_weight, sla = np.empty((n, n_pft)), np.empty((n, n_pft))
    alloc = np.empty((n, n_pft, 5))
    deposit = np.empty((n, 3, n_layers))
    layers = np.arange(n_layers, dtype=np.float64)
    for c, flat in enumerate(land_idx):
        rng = np.random.default_rng([seed, sim._SEED_CELL, int(flat)])
        for i, (lo, hi, clip_lo, clip_hi) in enumerate([
                (1600.0, 2400.0, 800.0, 3600.0), (0.86, 0.94, 0.84, 0.96),
                (0.65, 1.08, 0.55, 1.095), (0.0, 1.0, 0.0, 1.0),
                (0.55, 1.0, 0.05, 1.0), (0.05, 0.45, 0.02, 0.6)]):
            scalars[c, i] = spread_uniform_scalar(rng, lo, hi, s, clip_lo, clip_hi)
        if abs(cell_lat[c]) < pl.TROPICS_LAT:
            nutrient[c] = 1.0 - scalars[c, 5]
        w = sim._PFT_BASE_WEIGHT[:n_pft] * rng.gamma(16.0, size=n_pft)
        pft_weight[c] = w / w.sum()
        sla[c] = sim._PFT_BASE_SLA[:n_pft] * spread_uniform_scalar(
            rng, 0.85, 1.15, s, 0.6, 1.6, size=n_pft)
        spread_uniform_scalar(rng, 0.1, 0.6, s, 0.02, 0.9, size=n_pft)
        a = sim._PFT_BASE_ALLOC[:n_pft] * rng.gamma(25.0, size=(n_pft, 5))
        alloc[c] = a / a.sum(axis=1, keepdims=True)
        group = rng.gamma(5.0, size=3)
        z0 = spread_uniform_scalar(rng, 3.0, 5.0, s, 2.5, 6.0, size=3)
        prof = group[:, None] * np.exp(-layers[None, :] / z0[:, None])
        deposit[c] = prof / prof.sum()
    alpha, resp_frac, decomp = scalars[:, :3].T.copy()
    return sim.CellParams(alpha, resp_frac, nutrient, decomp, pft_weight, sla,
                          alloc, deposit)


class TestForcingSynthesis:
    SEED, YEARS = 5, 2
    GRID = sim.GridSpec(3, 4, 1.0)

    @pytest.fixture(scope="class")
    def parts(self):
        grid, seed = self.GRID, self.SEED
        land_idx = sim._land_indices(seed, grid)
        ilat, ilon = np.divmod(land_idx, grid.n_lon)
        points = sim._draw_points(seed, grid)
        cell_point = pl.kdtree_map(
            np.stack([grid.lat_centers[ilat], grid.lon_centers[ilon]], axis=1),
            np.stack([points.lat, points.lon], axis=1))
        offsets = sim._cell_offsets(seed, land_idx, grid.spread_scale)
        window = sim._point_climatologies(points, self.YEARS)[0]
        full = sim._window_monthly_forcing(seed, grid, land_idx, cell_point,
                                           window, offsets)
        return land_idx, cell_point, points, offsets, full

    def test_window_bitwise_equals_per_cell_reference(self, parts):
        land_idx, cell_point, points, offsets, full = parts
        assert full.shape == (land_idx.shape[0], 12 * self.YEARS, 3)
        assert len(set(cell_point.tolist())) > 1
        ref = StepClimate(points)
        point_months = np.stack([ref.window_month(m) for m in range(12 * self.YEARS)],
                                axis=1)
        got = sim._point_climatologies(points, self.YEARS)[0]
        assert bitwise_equal(got[..., STATIC], point_months[..., STATIC])
        assert np.allclose(got[..., RAMPED], point_months[..., RAMPED], rtol=ROUNDING, atol=0)
        for c, flat in enumerate(land_idx):
            assert bitwise_equal(offsets[c], reference_offset(self.SEED, self.GRID, flat))
            want = reference_forcing(self.SEED, self.GRID, flat,
                                     point_months[cell_point[c]], offsets[c])
            assert_forcing_matches(full[c], want)

    def test_cell_subset_gives_same_rows(self, parts):
        # each cell's forcing depends only on its own streams
        land_idx, cell_point, points, offsets, full = parts
        sub = np.array([len(land_idx) - 1, 0, 2])
        window = sim._point_climatologies(points, self.YEARS)[0]
        part = sim._window_monthly_forcing(self.SEED, self.GRID, land_idx[sub],
                                           cell_point[sub], window, offsets[sub])
        assert np.array_equal(part, full[sub])

    def test_world_equals_step_level_reference(self, world):
        # the window's forcing, the stationary response and the window-end
        # pools of a world built from the 6-hourly climatology and the
        # per-scalar draws, through the ramp and the stationary years
        seed, grid, years = world.seed, world.grid, world.years
        assert years > sim.TREND_RAMP_YEARS
        points = reference_points(seed, grid)
        params = reference_cell_params(seed, grid, world.land_idx, world.cell_lat,
                                       sim.N_PFT, sim.N_LAYERS)
        offsets = np.stack([reference_offset(seed, grid, flat) for flat in world.land_idx])
        ref = StepClimate(points)
        point_months = np.stack([ref.window_month(m) for m in range(12 * years)], axis=1)
        forcing = np.stack([reference_forcing(seed, grid, flat, point_months[point], offset)
                            for flat, point, offset
                            in zip(world.land_idx, world.cell_point, offsets)])
        stationary = lambda ramp_value: clip_fields(
            ref.stationary(ramp_value)[world.cell_point] + offsets[:, None])
        gbar_stat12 = pl._gbar_of(stationary(1.0))
        built = dataclasses.replace(world, params=params, points=points,
                                    forcing_monthly=forcing, gbar_stat12=gbar_stat12)
        pre_params = dataclasses.replace(params, nutrient=np.ones(world.n_cells))
        eq_pre = sim._equilibrium_from(pl._gbar_of(stationary(0.0)), pre_params).pools
        window_end = sim.spinup(built, years, initial=eq_pre).final
        for part, ref_part in ((world.params, params), (world.points, points)):
            for field in dataclasses.fields(ref_part):
                assert bitwise_equal(getattr(part, field.name), getattr(ref_part, field.name))
        assert_forcing_matches(world.forcing_monthly, forcing)
        assert_rounding_close(world.gbar_stat12, gbar_stat12)
        for key in sim.POOL_KEYS:
            assert_rounding_close(getattr(world.window_end, key), getattr(window_end, key))

    @pytest.mark.parametrize("shape", [(7, 11, 3), (4, 3)])
    def test_one_clip_equals_per_field_clips(self, shape):
        lo, hi = np.array([sim.FORCING_BOUNDS[f] for f in pl.G1_FIELDS]).T
        x = lo + (hi - lo) * np.random.default_rng(0).uniform(-0.5, 1.5, shape)
        ref = clip_fields(x)
        # every field is clipped somewhere, and kept somewhere
        changed = (ref != x).reshape(-1, len(pl.G1_FIELDS))
        assert changed.any(axis=0).all() and not changed.all(axis=0).any()
        assert np.array_equal(sim._clip_bounds(x), ref)

    def test_stationary_is_clipped_point_climatology(self, parts):
        land_idx, cell_point, points, offsets, _ = parts
        _, pre_points, stat_points = sim._point_climatologies(points, 1)
        for ramp_value, point_monthly in ((0.0, pre_points), (1.0, stat_points)):
            stat = sim._clip_bounds(point_monthly[cell_point] + offsets[:, None])
            means = StepClimate(points).stationary(ramp_value)
            for c in range(land_idx.shape[0]):
                want = clip_fields(means[cell_point[c]] + offsets[c])
                assert_forcing_matches(stat[c], want)

    def test_noise_free_window_ends_on_the_stationary_climatology(self, parts, monkeypatch):
        # past the trend ramp, a month without noise is the target climate
        land_idx, cell_point, points, offsets, _ = parts
        years = int(sim.TREND_RAMP_YEARS) + 2
        monkeypatch.setattr(sim, "_NOISE_SD", np.zeros(len(pl.G1_FIELDS)))
        point_window, _, point_stat = sim._point_climatologies(points, years)
        window = sim._window_monthly_forcing(self.SEED, self.GRID, land_idx,
                                             cell_point, point_window, offsets)
        stat = sim._clip_bounds(point_stat[cell_point] + offsets[:, None])
        for year in range(int(sim.TREND_RAMP_YEARS), years):
            assert np.array_equal(window[:, 12 * year:12 * (year + 1)], stat), year
        # before it, the ramp still moves radiation and precipitation
        assert not np.array_equal(window[:, :12], stat)

    def test_monthly_noise_keeps_the_ar1_monthly_sd(self, world):
        # the stationary years are the target climate plus independent
        # monthly noise; the clip touches none of their months
        offsets = sim._cell_offsets(world.seed, world.land_idx, world.grid.spread_scale)
        stat = sim._point_climatologies(world.points, 1)[2][world.cell_point]
        stat = sim._clip_bounds(stat + offsets[:, None])
        ramp_end = 12 * int(sim.TREND_RAMP_YEARS)
        years = world.years - int(sim.TREND_RAMP_YEARS)
        residual = world.forcing_monthly[:, ramp_end:] - np.tile(stat, (1, years, 1))
        f = month_mean_sd(sim.AR1_RHO, sim.STEPS_PER_MONTH)
        assert f == pytest.approx(0.2687, abs=1e-4)
        assert sim._MONTH_MEAN_SD == pytest.approx(f, rel=1e-12)
        window = world.forcing_monthly[:, ramp_end:]
        assert not ((window == sim._FORCING_LO) | (window == sim._FORCING_HI)).any()
        for i in range(len(pl.G1_FIELDS)):
            r = residual[..., i]
            want = sim._NOISE_SD[i] * world.grid.spread_scale * f
            assert r.std() == pytest.approx(want, rel=0.05), i
            lag1 = np.corrcoef(r[:, 1:].ravel(), r[:, :-1].ravel())[0, 1]
            assert abs(lag1) < 0.1, i


class TestBatchedDraws:
    SEED = 2

    @pytest.mark.parametrize("name", ["coarse", "fine"])
    def test_cell_params_equal_per_scalar_draws(self, name):
        grid = sim.grid_spec(name)
        land_idx = sim._land_indices(self.SEED, grid)[::4]
        cell_lat = grid.lat_centers[land_idx // grid.n_lon]
        got = sim._draw_cell_params(self.SEED, grid, land_idx, cell_lat,
                                    sim.N_PFT, sim.N_LAYERS)
        want = reference_cell_params(self.SEED, grid, land_idx, cell_lat,
                                     sim.N_PFT, sim.N_LAYERS)
        for field in dataclasses.fields(sim.CellParams):
            assert bitwise_equal(getattr(got, field.name), getattr(want, field.name)), field.name
        # only the fine grid's wider spread carries draws past their clips
        clipped = (got.decomp == 1.095).any()
        assert clipped == (grid.spread_scale > 1.0)

    @pytest.mark.parametrize("name", ["coarse", "fine"])
    def test_points_equal_per_scalar_draws(self, name):
        grid = sim.grid_spec(name)
        got, want = sim._draw_points(self.SEED, grid), reference_points(self.SEED, grid)
        for field in dataclasses.fields(sim.ForcingPoints):
            assert bitwise_equal(getattr(got, field.name), getattr(want, field.name)), field.name


class TestCellStreams:
    FLATS = np.array([0, 1, 691, 2**32 - 1])

    @pytest.mark.parametrize("seed", [0, 5_000_000_000])
    @pytest.mark.parametrize("suffix", [(), (1,)], ids=["3-word", "4-word"])
    def test_streams_equal_default_rng(self, seed, suffix):
        streams = sim._cell_streams(seed, sim._SEED_NOISE, self.FLATS, *suffix)
        n = 0
        for flat, rng in zip(self.FLATS, streams):
            want = np.random.default_rng([seed, sim._SEED_NOISE, int(flat), *suffix])
            assert rng.bit_generator.state == want.bit_generator.state, flat
            assert bitwise_equal(rng.uniform(-1.0, 1.0, size=3), want.uniform(-1.0, 1.0, size=3))
            assert bitwise_equal(rng.gamma(5.0, size=(2, 3)), want.gamma(5.0, size=(2, 3)))
            got = np.empty((4, 5))
            rng.standard_normal(out=got)
            assert bitwise_equal(got, want.standard_normal((4, 5)))
            n += 1
        assert n == len(self.FLATS)

    def test_streams_refuse_keys_numpy_refuses(self):
        with pytest.raises(ValueError, match="non-negative"):
            next(sim._cell_streams(-1, sim._SEED_CELL, self.FLATS))
        with pytest.raises(ValueError, match="one uint32 word"):
            next(sim._cell_streams(0, sim._SEED_CELL, np.array([2**32])))


class TestEquilibrium:
    def test_long_spinup_matches_analytic(self, world):
        result = sim.spinup(world, 5000)
        eq = sim.analytic_equilibrium(world)
        for key in sim.POOL_KEYS:
            got = getattr(result.final_year_mean, key)
            want = getattr(eq.pools, key)
            rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-30)
            assert rel.max() < 1e-3, key

    def test_doubling_alpha_doubles_equilibria(self, world):
        eq = sim.analytic_equilibrium(world)
        doubled = dataclasses.replace(world, params=dataclasses.replace(
            world.params, alpha=2.0 * world.params.alpha))
        eq2 = sim.analytic_equilibrium(doubled)
        for key in sim.POOL_KEYS:
            assert np.array_equal(getattr(eq2.pools, key), 2.0 * getattr(eq.pools, key))
        assert np.array_equal(eq2.gpp, 2.0 * eq.gpp)

    def test_halving_nutrient_halves_slow_pools(self, world):
        eq = sim.analytic_equilibrium(world)
        halved = dataclasses.replace(world, params=dataclasses.replace(
            world.params, nutrient=0.5 * world.params.nutrient))
        eq2 = sim.analytic_equilibrium(halved)
        for key in sim.SLOW_POOLS:
            assert np.array_equal(getattr(eq2.pools, key), 0.5 * getattr(eq.pools, key))

    def test_equilibria_increase_with_nutrient(self, world):
        eq = sim.analytic_equilibrium(world)
        richer = dataclasses.replace(world, params=dataclasses.replace(
            world.params, nutrient=np.minimum(world.params.nutrient + 0.05, 1.5)))
        eq2 = sim.analytic_equilibrium(richer)
        for key in sim.SLOW_POOLS:
            assert np.all(getattr(eq2.pools, key) > getattr(eq.pools, key)), key

    def test_flux_identity_on_equilibrium(self, world):
        eq = sim.analytic_equilibrium(world)
        assert np.all(eq.npp + eq.ar - eq.gpp == 0.0)

    def test_tlai_is_sla_times_leaf(self, world):
        eq = sim.analytic_equilibrium(world)
        np.testing.assert_array_equal(eq.tlai, world.params.sla * eq.pools.leaf_c)


class TestRestart:
    def test_equilibrium_is_fixed_point(self, world):
        eq = sim.analytic_equilibrium(world)
        final, report = sim.restart_run(eq.pools.copy(), world, years=100)
        for key in sim.POOL_KEYS:
            assert report.after[key]["max"] < 1e-6, key
        for key in sim.SLOW_POOLS:
            assert report.drift[key]["max"] < 1e-6, key

    def test_offset_decays_at_pool_rate(self, world):
        eq = sim.analytic_equilibrium(world)
        off = eq.pools.copy()
        off.soil3c *= 1.1
        final, report = sim.restart_run(off, world, years=100)
        k = sim.K_SLOW * world.params.decomp
        want = np.broadcast_to(0.1 * np.exp(-100.0 * k)[:, None],
                               eq.pools.soil3c.shape)
        got = np.abs(final.soil3c - eq.pools.soil3c) / eq.pools.soil3c
        np.testing.assert_allclose(got, want, rtol=2e-3)

    def test_fast_pools_recover_from_zero(self, world):
        eq = sim.analytic_equilibrium(world)
        start = eq.pools.copy()
        start.leaf_c = np.zeros_like(start.leaf_c)
        start.froot_c = np.zeros_like(start.froot_c)
        _, report = sim.restart_run(start, world, years=100)
        assert report.after["leaf_c"]["max"] < 0.005
        assert report.after["froot_c"]["max"] < 0.005

    def test_speedup_from_equilibrium_is_cold_months(self, world):
        # a warm start already inside the band counts one month
        eq = sim.analytic_equilibrium(world)
        _, report = sim.restart_run(eq.pools.copy(), world, years=1)
        assert report.window_years == 20
        np.testing.assert_array_equal(report.warm_start_years, 1.0 / 12.0)
        np.testing.assert_array_equal(report.speedup,
                                      report.cold_start_years * 12.0)
        assert report.cold_start_years.min() >= 1200.0

    def test_speedup_from_zero_pools_is_one(self, world):
        zero = sim.PoolState.zeros(world.n_cells, world.n_pft, world.n_layers)
        _, report = sim.restart_run(zero, world, years=1)
        np.testing.assert_array_equal(report.warm_start_years,
                                      report.cold_start_years)
        np.testing.assert_array_equal(report.speedup, 1.0)

    def test_warm_months_match_monthly_loop(self, world):
        eq = sim.analytic_equilibrium(world)
        rng = np.random.default_rng(5)
        start = eq.pools.copy()
        for key in sim.SLOW_POOLS:
            pool = getattr(start, key)
            pool *= rng.uniform(0.985, 1.015, size=pool.shape)
            pool[0] = getattr(eq.pools, key)[0] * 1.002  # inside the band
        _, report = sim.restart_run(start, world, years=1)

        def outside(state):
            return np.any([np.any(np.abs(getattr(state, k) - getattr(eq.pools, k))
                                  > sim.EQUILIBRIUM_BAND * getattr(eq.pools, k),
                                  axis=1)
                           for k in sim.SLOW_POOLS], axis=0)

        pools, u, k_month, scratch = stepper(start, eq.npp / 12.0,
                                             sim.route_weights(world.params),
                                             sim.kappa_annual(world.params))
        months, month = np.zeros(world.n_cells), 0
        still = outside(start)
        while still.any():
            sim.advance_month(pools, u, k_month, scratch)
            month += 1
            months[still] = month
            still = outside(sim.unpack(pools, world.n_pft, world.n_layers))
        assert months[0] == 0 and months[1:].min() > 12
        np.testing.assert_allclose(report.warm_start_years * 12.0,
                                   np.maximum(months, 1.0), atol=1.0)
        np.testing.assert_allclose(report.speedup, report.cold_start_years
                                   / report.warm_start_years, rtol=1e-12)

    @pytest.mark.parametrize("start", ["perturbed", "zero"])
    def test_bitwise_equals_per_pool_reference(self, world, start):
        # the closed form against the per-pool monthly loop, to rounding:
        # the state and the after and drift reports; before is exact
        eq = sim.analytic_equilibrium(world)
        params = world.params
        route, kappa = sim.route_weights(params), sim.kappa_annual(params)
        npp = eq.npp / 12.0
        initial = eq.pools.copy()
        if start == "perturbed":
            rng = np.random.default_rng(9)
            for key in sim.POOL_KEYS:
                pool = getattr(initial, key)
                pool *= rng.uniform(0.8, 1.2, size=pool.shape)
        else:
            initial = sim.PoolState.zeros(world.n_cells, world.n_pft, world.n_layers)
        final, report = sim.restart_run(initial, world, years=3)
        state = initial.copy()
        for _ in range(36):
            state = reference_step(state, npp, route, kappa)
        for key in sim.POOL_KEYS:
            np.testing.assert_allclose(getattr(final, key), getattr(state, key),
                                       rtol=1e-13, atol=0, err_msg=key)
        assert report.before == sim._distance_report(initial, eq.pools)
        want = (sim._distance_report(state, eq.pools),
                sim._distance_report(state, initial, pools=sim.SLOW_POOLS))
        for got, ref in zip((report.after, report.drift), want):
            assert got.keys() == ref.keys()
            for key, stats in got.items():
                for stat, value in stats.items():
                    assert value == pytest.approx(ref[key][stat], rel=1e-12, abs=1e-15), \
                        (key, stat)

    @pytest.mark.parametrize("grid,seed,zero_cells", [("coarse", 0, 0), ("coarse", 7, 0),
                                                      ("fine", 1, 3)])
    def test_matches_monthly_loop_on_preset_worlds(self, preset_world, grid, seed,
                                                   zero_cells):
        # from the window-end pools and from zero, over 1 and 100 years; the
        # fine world has three cells of zero NPP, the coarse worlds none
        w = preset_world(grid, seed)
        params, npp = w.params, sim.analytic_equilibrium(w).npp / 12.0
        zero = sim.PoolState.zeros(w.n_cells, w.n_pft, w.n_layers)
        for initial in (w.window_end, zero):
            pools, u, k_month, scratch = stepper(initial, npp,
                                                 sim.route_weights(params),
                                                 sim.kappa_annual(params))
            month = 0
            for years in (1, 100):
                while month < 12 * years:
                    sim.advance_month(pools, u, k_month, scratch)
                    month += 1
                final, report = sim.restart_run(initial, w, years=years)
                closed = sim.pack(vars(final), w.n_pft, w.n_layers)
                np.testing.assert_allclose(closed, pools, rtol=1e-13, atol=0,
                                           err_msg=f"{years} yr")
                assert report.zero_equilibrium_cells == zero_cells

    @pytest.mark.parametrize("value", [-1e-3, np.nan, np.inf])
    def test_negative_or_non_finite_initial_pool_refused(self, world, value):
        eq = sim.analytic_equilibrium(world)
        initial = eq.pools.copy()
        initial.soil4c[2, 3] = value
        with pytest.raises(ContractError, match="initial pool soil4c"):
            sim.restart_run(initial, world, years=1)

    def test_turnover_past_one_per_month_refused(self, world):
        # K_FAST * 150 / 12 = 1.25: the monthly step would overshoot zero
        fast = dataclasses.replace(world, params=dataclasses.replace(
            world.params, decomp=np.full(world.n_cells, 150.0)))
        zero = sim.PoolState.zeros(world.n_cells, world.n_pft, world.n_layers)
        with pytest.raises(ConfigurationError, match=r"k/12 in \(0, 1\]"):
            sim.restart_run(zero, fast, years=1)

    def test_zero_equilibrium_cell_counted_apart(self, world):
        # a cell with alpha 0 has zero NPP, so every u/k of it is 0 and no
        # restart of positive pools reaches its band
        dead = dataclasses.replace(world, params=dataclasses.replace(
            world.params, alpha=np.where(np.arange(world.n_cells) == 2, 0.0,
                                         world.params.alpha)))
        eq = sim.analytic_equilibrium(dead)
        assert np.all(eq.npp[2] == 0.0) and np.all(eq.npp[np.arange(world.n_cells) != 2] > 0)
        rng = np.random.default_rng(4)
        initial = eq.pools.copy()
        for key in sim.SLOW_POOLS:
            pool = getattr(initial, key)
            pool *= rng.uniform(0.98, 1.02, size=pool.shape)
            pool[2] = 50.0
        _, report = sim.restart_run(initial, dead, years=1)
        assert report.zero_equilibrium_cells == 1
        assert report.zero_equilibrium.tolist() == [c == 2 for c in range(world.n_cells)]
        assert report.speedup[2] == 0.0
        rest = np.delete(report.speedup, 2)
        assert report.speedup_min == rest.min() > 0.0
        assert report.speedup_median == pl.median(rest)
        assert report.warm_start_years_median == pl.median(
            np.delete(report.warm_start_years, 2))
        assert np.isfinite(report.warm_start_years_median)

    def test_zero_equilibrium_cell_left_out_of_the_distances(self, world):
        # the zero-NPP cell has no relative distance to its equilibrium of
        # 0; the drift, relative to the restart state, keeps every cell
        dead = dataclasses.replace(world, params=dataclasses.replace(
            world.params, alpha=np.where(np.arange(world.n_cells) == 2, 0.0,
                                         world.params.alpha)))
        eq = sim.analytic_equilibrium(dead)
        initial = eq.pools.copy()
        for key in sim.POOL_KEYS:
            getattr(initial, key)[:] *= 1.01
            getattr(initial, key)[2] = 50.0
        state, report = sim.restart_run(initial, dead, years=1)
        rest = np.arange(world.n_cells) != 2
        assert report.before == sim._distance_report(initial, eq.pools, cells=rest)
        assert report.after == sim._distance_report(state, eq.pools, cells=rest)
        assert report.drift == sim._distance_report(state, initial, pools=sim.SLOW_POOLS)
        for key in sim.POOL_KEYS:
            assert report.before[key]["max"] == pytest.approx(0.01)
            assert report.after[key]["max"] < 0.01

    def test_no_cell_with_a_speedup_gives_nan(self, world):
        dead = dataclasses.replace(world, params=dataclasses.replace(
            world.params, alpha=np.zeros(world.n_cells)))
        zero = sim.PoolState.zeros(world.n_cells, world.n_pft, world.n_layers)
        _, report = sim.restart_run(zero, dead, years=1)
        assert report.zero_equilibrium_cells == world.n_cells
        assert math.isnan(report.speedup_min) and math.isnan(report.speedup_median)
        for stats in (*report.before.values(), *report.after.values()):
            assert math.isnan(stats["median"]) and math.isnan(stats["max"])


class TestExportSamples:
    def test_shapes_and_order(self, world):
        s = sim.export_samples(world)
        n = world.n_cells
        assert s.n == n
        width = {g: len(pl.GROUP_FIELDS[g]) for g in pl.GROUPS}
        assert s.groups["g1"].shape == (n, 12, width["g1"])
        assert s.groups["g2"].shape == (n, width["g2"])
        assert s.groups["g3"].shape == (n, world.n_pft, width["g3"])
        assert s.groups["g4"].shape == (n, world.n_pft, width["g4"])
        assert s.groups["g5"].shape == (n, world.n_layers, width["g5"])
        assert s.groups["prior"].shape == (n, len(pl.PRIOR_GROUPS))
        assert s.lat.shape == s.lon.shape == (n,)
        for t in pl.TASKS:
            assert s.targets[t].shape[0] == n, t
        assert s.targets["gpp"].shape == (n,)
        assert s.cell_id.dtype == np.int64
        assert s.cell_id.tolist() == [int(v) for v in world.land_idx]

    def test_targets_are_exact_equilibria(self, world):
        s = sim.export_samples(world)
        eq = sim.analytic_equilibrium(world)
        np.testing.assert_array_equal(s.targets["soil3c"], eq.pools.soil3c)
        np.testing.assert_array_equal(s.targets["tlai"], eq.tlai)
        assert np.all(s.targets["npp"] + s.targets["ar"] - s.targets["gpp"] == 0.0)

    def test_state_features_carry_small_noise(self, world):
        s = sim.export_samples(world)
        w = world.window_end
        for c in (1, 3):
            clean = np.stack([w.cwdc[c], w.soil3c[c], w.soil4c[c]], axis=1)
            noisy = s.groups["g5"][c]
            rel = np.abs(noisy - clean) / np.maximum(clean, 1e-30)
            assert 0.0 < rel.max() < 0.05

    def test_noise_is_each_cells_own_stream(self, world):
        # cell c draws g4's noise first from default_rng([seed, 7, land_idx[c]])
        g4 = sim.export_samples(world).groups["g4"]
        p, w = world.params, world.window_end
        for c in (0, 5):
            end = np.stack([w.leaf_c[c], w.froot_c[c], w.deadcrootc[c],
                            w.deadstemc[c], p.sla[c] * w.leaf_c[c]], axis=1)
            rng = np.random.default_rng([world.seed, 7, int(world.land_idx[c])])
            want = end * (1.0 + sim.OBS_NOISE * rng.standard_normal((world.n_pft, 5)))
            np.testing.assert_array_equal(g4[c], want)

    def test_groups_g4_g5_copy_the_observation(self, world):
        s = sim.export_samples(world)
        for g in ("g4", "g5"):
            np.testing.assert_array_equal(s.groups[g], getattr(world.observed, g))
            assert not np.shares_memory(s.groups[g], getattr(world.observed, g)), g

    @pytest.mark.parametrize("seed", [0, 7])
    def test_observation_equals_per_cell_redraw(self, preset_world, seed):
        # the reference: each cell's own default_rng([seed, 7, flat]), g4's
        # noise before g5's, then the clamp at zero, one cell at a time
        w = preset_world("coarse", seed)
        p, end = w.params, w.window_end
        for c, flat in enumerate(w.land_idx.tolist()):
            rng = np.random.default_rng([seed, 7, flat])
            g4 = np.stack([end.leaf_c[c], end.froot_c[c], end.deadcrootc[c],
                           end.deadstemc[c], p.sla[c] * end.leaf_c[c]], axis=1)
            g5 = np.stack([end.cwdc[c], end.soil3c[c], end.soil4c[c]], axis=1)
            g4 = g4 * (1.0 + sim.OBS_NOISE * rng.standard_normal(g4.shape))
            g5 = g5 * (1.0 + sim.OBS_NOISE * rng.standard_normal(g5.shape))
            assert np.array_equal(w.observed.g4[c], np.maximum(g4, 0.0)), c
            assert np.array_equal(w.observed.g5[c], np.maximum(g5, 0.0)), c

    def test_default_window_is_the_stationary_years(self):
        # the trend ramp ends STATIONARY_YEARS before the end of a 20-yr run;
        # g1 is the mean annual cycle of those years, bit for bit
        assert sim.TREND_RAMP_YEARS + sim.STATIONARY_YEARS == 20
        six = sim.generate_world(3, sim.GridSpec(4, 6, 1.0), years=6)
        g1 = sim.export_samples(six).groups["g1"]
        want = six.forcing_monthly[:, -60:].reshape(six.n_cells, 5, 12, -1).mean(axis=1)
        assert g1.shape == (six.n_cells, 12, len(pl.G1_FIELDS)) and g1.dtype == np.float64
        assert bitwise_equal(g1, want)

    def test_default_window_of_a_short_world_is_its_span(self):
        two = sim.generate_world(3, sim.GridSpec(4, 6, 1.0), years=2)
        g1 = sim.export_samples(two).groups["g1"]
        assert bitwise_equal(g1, two.forcing_monthly.reshape(two.n_cells, 2, 12, -1).mean(axis=1))

    def test_one_year_world_gives_its_own_year(self):
        one = sim.generate_world(3, sim.GridSpec(4, 6, 1.0), years=1)
        assert bitwise_equal(sim.export_samples(one).groups["g1"], one.forcing_monthly)

    def test_shorter_window_takes_recent_years(self, world):
        g1 = sim.export_samples(world).groups["g1"]
        want = world.forcing_monthly[:, -60:].reshape(world.n_cells, 5, 12, -1).mean(axis=1)
        assert bitwise_equal(g1, want)

    def test_year_order_does_not_matter(self, world):
        # up to the rounding of the sum's order
        years = world.forcing_monthly[:, -60:].reshape(world.n_cells, 5, 12, -1)
        forcing = world.forcing_monthly.copy()
        forcing[:, -60:] = years[:, [3, 0, 4, 2, 1]].reshape(world.n_cells, 60, -1)
        shuffled = dataclasses.replace(world, forcing_monthly=forcing)
        np.testing.assert_allclose(sim.export_samples(shuffled).groups["g1"],
                                   sim.export_samples(world).groups["g1"],
                                   rtol=1e-15, atol=0)

    def test_repeated_year_reads_as_that_year(self, world):
        forcing = world.forcing_monthly.copy()
        last = forcing[:, -12:]
        forcing[:, -60:] = np.tile(last, (1, 5, 1))
        repeated = dataclasses.replace(world, forcing_monthly=forcing)
        np.testing.assert_allclose(sim.export_samples(repeated).groups["g1"], last,
                                   rtol=1e-15, atol=0)

    def test_deterministic(self, world):
        a = sim.export_samples(world)
        b = sim.export_samples(world)
        for g in (*pl.GROUPS, "prior"):
            assert np.array_equal(a.groups[g], b.groups[g])


def exact_npp_terms(world):
    """A world's exact annual NPP before the window, of its noise-free
    pre-window climatology at nutrient factor 1, as generate_world spins
    the window up from it, and at equilibrium."""
    pre = sim._point_climatologies(world.points, world.years)[1]
    offsets = sim._cell_offsets(world.seed, world.land_idx, world.grid.spread_scale)
    pre = sim._clip_bounds(pre[world.cell_point] + offsets[:, None])
    p = world.params
    npp_pre = pl.annual_fluxes(pl._gbar_of(pre), p.alpha, p.resp_frac,
                               np.ones(world.n_cells))[2]
    return npp_pre, sim.analytic_equilibrium(world).npp


class TestSpinupPrior:
    """The prior is each turnover group's log factor from the window-end
    pools to u/k, in closed form over the window's monthly NPP."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_closed_form_with_exact_npp_is_the_window_end_log_ratio(
            self, preset_world, seed):
        w = preset_world("coarse", seed)
        prior = sim._prior_from(w, *exact_npp_terms(w))
        eq, end = sim.analytic_equilibrium(w), w.window_end
        ratios = {"tlai": eq.tlai / (w.params.sla * end.leaf_c),
                  **{k: getattr(eq.pools, k) / getattr(end, k) for k in sim.SLOW_POOLS}}
        for group, tasks in enumerate(pl.PRIOR_GROUPS):
            for t in tasks:
                gap = np.abs(np.log(ratios[t]) - prior[:, group, None])
                assert gap.max() < 1e-12, t

    @pytest.mark.parametrize("seed", [0, 7])
    def test_forcing_fit_estimates_the_npp_terms(self, preset_world, seed):
        # a median error of 0.28-0.42% at these seeds, 29-42% at worst, in
        # cells whose precipitation is clipped at 0 in some months
        w = preset_world("coarse", seed)
        for fit, exact in zip(sim._ramp_fit(w), exact_npp_terms(w)):
            err = np.abs(fit / exact - 1.0)
            assert np.median(err) < 0.005 and err.max() < 0.5
        assert np.array_equal(sim.export_samples(w).groups["prior"], sim.spinup_prior(w))

    def test_one_year_world_fits_no_slope(self):
        w = sim.generate_world(3, sim.GridSpec(8, 8, 1.0), years=1)
        npp_pre, npp_star = sim._ramp_fit(w)
        np.testing.assert_allclose(npp_star, w.params.nutrient * npp_pre, rtol=1e-13)
        assert np.all(np.isfinite(sim.spinup_prior(w)))

    def test_one_year_world_builds_and_restarts(self, tmp_path):
        from phase_surrogate.cli import main
        config = tmp_path / "config.json"
        config.write_text('{"model": {"dim": 8, "hidden": 8, "heads": 2, "depth": 1, '
                          '"ff_mult": 2, "channels": [4, 6]}, '
                          '"train": {"max_epochs": 2, "seed": 0}}')
        world, data, model = tmp_path / "world", tmp_path / "data", tmp_path / "m.phm"
        for argv in (["gen-data", "--seed", "3", "--years", "1", "--out", str(world)],
                     ["build-dataset", "--world", str(world), "--out", str(data)],
                     ["train", "--data", str(data), "--config", str(config),
                      "--out", str(model)],
                     ["restart-check", "--model", str(model), "--world", str(world),
                      "--out", str(tmp_path / "drift.csv"), "--years", "1"]):
            assert main(argv) == 0, argv
        assert pl.load_dataset(str(data)).train.groups["g1"].shape[1] == 12
        lines = (tmp_path / "drift.csv").read_text().splitlines()[1:]
        rows = {name: float(value)
                for name, _, value in (line.split(",") for line in lines)}
        assert math.isfinite(rows["prior_speedup_median"])


class TestPersistence:
    def test_world_round_trip(self, world, tmp_path):
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        loaded = sim.load_world(path)
        assert loaded.seed == world.seed and loaded.years == world.years
        assert np.array_equal(loaded.land_idx, world.land_idx)
        assert np.array_equal(loaded.forcing_monthly, world.forcing_monthly)
        assert np.array_equal(loaded.gbar_stat12, world.gbar_stat12)
        for key in sim.POOL_KEYS:
            assert np.array_equal(getattr(loaded.window_end, key),
                                  getattr(world.window_end, key)), key
        for g in ("g4", "g5"):
            assert np.array_equal(getattr(loaded.observed, g), getattr(world.observed, g)), g
        for f in dataclasses.fields(sim.CellParams):
            assert np.array_equal(getattr(loaded.params, f.name),
                                  getattr(world.params, f.name)), f.name
        assert loaded.land_idx.dtype == loaded.cell_point.dtype == np.int64
        got, want = sim.export_samples(loaded), sim.export_samples(world)
        for g in (*pl.GROUPS, "prior"):
            assert np.array_equal(got.groups[g], want.groups[g]), g
        for name in want.targets:
            assert np.array_equal(got.targets[name], want.targets[name]), name

    def test_manifest_is_version_five(self, world, tmp_path):
        # the dims are the arrays'; the manifest keeps what they cannot give
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        manifest, arrays = blobio.read_model_file(path)
        assert manifest["version"] == 5
        assert sorted(manifest) == ["format", "grid", "params", "seed",
                                    "turnover", "version", "years"]
        assert manifest["grid"] == {"n_lat": 8, "n_lon": 8, "resolution_deg": 1.0}
        assert manifest["turnover"] == {"k_fast": sim.K_FAST, "k_wood": sim.K_WOOD,
                                        "k_slow": sim.K_SLOW}
        assert sorted(arrays) == sorted(sim.WORLD_LAYOUT)
        assert {"observed.g4", "observed.g5"} <= set(arrays)
        assert not any(name.startswith(("eq", "gbar_pre")) for name in arrays)

    def test_every_stored_array_is_read(self, world, tmp_path):
        # a file that lacks any one array, or the grid, is refused by name
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        manifest, arrays = blobio.read_model_file(path)
        cut = str(tmp_path / "cut.phw")
        for name in arrays:
            rest = {k: v for k, v in arrays.items() if k != name}
            blobio.write_model_file(cut, dict(manifest, params=sorted(rest)), rest)
            with pytest.raises(ContractError, match=re.escape(repr(name))):
                sim.load_world(cut)
        blobio.write_model_file(cut, {k: v for k, v in manifest.items() if k != "grid"},
                                arrays)
        with pytest.raises(ContractError, match="'grid'"):
            sim.load_world(cut)

    def test_every_per_cell_array_is_shape_checked(self, world, tmp_path):
        # an array one row short of the land cells is refused by name
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        manifest, arrays = blobio.read_model_file(path)
        per_cell = [name for name, arr in arrays.items()
                    if name != "land_idx" and arr.shape[:1] == (world.n_cells,)]
        assert any(n.startswith("params.") for n in per_cell)
        assert any(n.startswith("window.") for n in per_cell)
        cut = str(tmp_path / "cut.phw")
        for name in per_cell:
            blobio.write_model_file(cut, manifest, {**arrays, name: arrays[name][:-1]})
            with pytest.raises(ContractError, match=re.escape(repr(name))):
                sim.load_world(cut)

    def test_older_versions_refused(self, world, tmp_path):
        # versions 1 and 2 held no observed state; version 1 also stored
        # the equilibria and the pre-window intermediates, version 3 two
        # per-cell columns nothing read, and version 4 five forcing fields
        # and five parameters beside the kept ones
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        manifest, arrays = blobio.read_model_file(path)
        old_arrays = {k: v for k, v in arrays.items() if not k.startswith("observed.")}
        eq = sim.analytic_equilibrium(world)
        extra = {f"{prefix}.{k}": getattr(eq.pools, k)
                 for prefix in ("eq", "eq_pre") for k in sim.POOL_KEYS}
        extra["gbar_pre12"] = world.gbar_stat12
        validity = {"params.pft_code": np.tile(np.arange(world.n_pft, dtype=np.float64),
                                               (world.n_cells, 1)),
                    "params.deepest_valid_layer": np.full(world.n_cells,
                                                          float(world.n_layers))}
        five = np.zeros(arrays["forcing_monthly"].shape[:2] + (len(DRAWN_FIELDS),))
        five[..., KEPT] = arrays["forcing_monthly"]
        unread = {"forcing_monthly": five,
                  **{f"params.{name}": arrays["params.alpha"]
                     for name in ("texture", "land_frac")},
                  "params.crootfrac": arrays["params.sla"]}
        old = str(tmp_path / "old.phw")
        for version, stored in ((1, {**old_arrays, **extra}), (2, old_arrays),
                                (3, {**arrays, **validity}), (4, {**arrays, **unread})):
            blobio.write_model_file(old, dict(manifest, version=version,
                                              params=sorted(stored)), stored)
            with pytest.raises(ContractError, match=rf"version {version}; .*rerun gen-data"):
                sim.load_world(old)

    def test_load_rejects_other_files(self, tmp_path):
        path = str(tmp_path / "other.phm")
        blobio.write_model_file(path, {"format": "model", "params": []}, {})
        with pytest.raises(ContractError):
            sim.load_world(path)

    def restart_pools(self, world, rows):
        eq = sim.analytic_equilibrium(world)
        return {"deadcrootc": eq.pools.deadcrootc[rows], "deadstemc": eq.pools.deadstemc[rows],
                "tlai": eq.tlai[rows], "cwdc": eq.pools.cwdc[rows],
                "soil3c": eq.pools.soil3c[rows], "soil4c": eq.pools.soil4c[rows]}

    def test_restart_round_trip(self, world, tmp_path):
        eq = sim.analytic_equilibrium(world)
        path = str(tmp_path / "state.phr")
        blobio.write_restart(path, world.land_idx, self.restart_pools(world, slice(None)),
                             world.n_pft, world.n_layers)
        state = sim.load_restart_state(world, path)
        np.testing.assert_allclose(state.soil3c, eq.pools.soil3c, rtol=1e-6)
        assert np.all(state.leaf_c == 0.0) and np.all(state.froot_c == 0.0)

    def test_restart_missing_cells_rejected(self, world, tmp_path):
        keep = world.n_cells - 1
        path = str(tmp_path / "short.phr")
        blobio.write_restart(path, world.land_idx[:keep],
                             self.restart_pools(world, slice(None, keep)),
                             world.n_pft, world.n_layers)
        with pytest.raises(ContractError, match="missing"):
            sim.load_restart_state(world, path)

    def test_restart_duplicate_cell_rejected(self, world, tmp_path):
        # a cell appended again at 3x its pools would otherwise win
        rows = np.append(np.arange(world.n_cells), 0)
        pools = self.restart_pools(world, rows)
        for name in pools:
            pools[name][-1] *= 3.0
        path = str(tmp_path / "twice.phr")
        blobio.write_restart(path, world.land_idx[rows], pools, world.n_pft,
                             world.n_layers)
        with pytest.raises(ContractError, match=rf"cell {world.land_idx[0]} more than once"):
            sim.load_restart_state(world, path)

    def test_restart_foreign_cell_rejected(self, world, tmp_path):
        foreign = min(set(range(world.grid.n_lat * world.grid.n_lon))
                      - set(world.land_idx.tolist()))
        rows = np.append(np.arange(world.n_cells), 1)
        path = str(tmp_path / "foreign.phr")
        blobio.write_restart(path, np.append(world.land_idx, foreign),
                             self.restart_pools(world, rows), world.n_pft,
                             world.n_layers)
        with pytest.raises(ContractError, match=rf"cell {foreign}, which is not"):
            sim.load_restart_state(world, path)

    def test_restart_negative_pool_rejected(self, world, tmp_path):
        # write_restart refuses the pool too, so the file is forged
        path = str(tmp_path / "neg.phr")
        blobio.write_restart(path, world.land_idx, self.restart_pools(world, slice(None)),
                             world.n_pft, world.n_layers)
        manifest, arrays = blobio.read_model_file(path)
        arrays["soil3c"][0, 0] = -5.0
        blobio.write_model_file(path, manifest, arrays)
        with pytest.raises(ContractError, match="non-negative"):
            sim.load_restart_state(world, path)


class TestSpinupBookkeeping:
    def test_final_year_mean_is_mean_of_last_twelve(self, world):
        # reference: the same monthly steps, pool by pool, through the
        # window (from zero pools) and past its end (from the window-end
        # state of a world with a one-year window)
        short = dataclasses.replace(world, years=1)
        for w, initial in ((world, None), (short, world.window_end)):
            res = sim.spinup(w, 3, initial=initial)
            params = w.params
            route, kappa = sim.route_weights(params), sim.kappa_annual(params)
            state = sim.PoolState.zeros(w.n_cells, w.n_pft, w.n_layers) \
                if initial is None else initial.copy()
            states = []
            for gbar, p in sim._schedule(w, 3):
                _, _, npp = pl._flux_from_gbar(gbar, params.alpha, params.resp_frac, p)
                state = reference_step(state, npp, route, kappa)
                states.append(state)
            for key in sim.POOL_KEYS:
                assert np.array_equal(getattr(res.final, key), getattr(state, key)), key
                want = np.mean([getattr(s, key) for s in states[-12:]], axis=0)
                assert np.array_equal(getattr(res.final_year_mean, key), want), key

    def test_window_response_is_per_month_gbar(self, world):
        # the window's response, computed a year of months at a time, is
        # bitwise each month's response computed on its own
        schedule = list(sim._schedule(world, world.years))
        assert len(schedule) == world.months
        for m, (gbar, p) in enumerate(schedule):
            assert np.array_equal(gbar, pl._gbar_of(world.forcing_monthly[:, m])), m
            assert p == 1.0

    def test_rejects_zero_years(self, world):
        with pytest.raises(ConfigurationError):
            sim.spinup(world, 0)
