import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from phase_surrogate import blobio
from phase_surrogate import pipeline as pl
from phase_surrogate import simulator as sim
from phase_surrogate.errors import ConfigurationError, ContractError, RangeError


@pytest.fixture(scope="module")
def world():
    return sim.generate_world(3, sim.GridSpec(8, 8, 1.0), years=20)


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
    # the formula spin-up and the equilibria run
    def fluxes(self, fm, alpha=2000.0, resp_frac=0.9, nutrient=1.0):
        return sim._flux_from_gbar(sim._gbar_of(fm), alpha, resp_frac, nutrient)

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
        g = sim._gbar_of(fm)
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
        assert w.n_cells >= 1
        series = w.forcing_monthly
        assert series.shape == (w.n_cells, 24, 5)
        for i, name in enumerate(pl.G1_FIELDS):
            lo, hi = sim.FORCING_BOUNDS[name]
            assert series[..., i].min() >= lo and series[..., i].max() <= hi, name

    def test_nutrient_only_deviates_in_tropics(self, world):
        tropical = np.abs(world.cell_lat) < sim.TROPICS_LAT
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
            sim.generate_world(0, sim.GridSpec(4, 4, 1.0, land_fraction=0.0))
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


def reference_forcing(seed, grid, years, flat, point, climate, offset):
    """One cell's monthly forcing [months, 5] built the direct way: its
    whole noise stream in one draw, an explicit AR(1) loop, per-field
    clipping of the full 6-hourly series, then monthly means."""
    steps = years * sim.STEPS_PER_YEAR
    rng = np.random.default_rng([seed, sim._SEED_NOISE, int(flat), 1])
    sd = sim._NOISE_SD * grid.spread_scale * math.sqrt(1.0 - sim.AR1_RHO ** 2)
    eps = rng.standard_normal((steps, 5)) * sd
    noise = np.empty_like(eps)
    y = np.zeros(5)
    for k in range(steps):
        y = sim.AR1_RHO * y + eps[k]
        noise[k] = y
    noise = pl.trim_to_months(noise)
    t = np.arange(steps, dtype=np.float64)
    ramp = pl.trim_to_months(np.minimum((t / sim.STEPS_PER_YEAR) / sim.TREND_RAMP_YEARS, 1.0))
    months = ramp.reshape(12 * years, sim.STEPS_PER_MONTH)
    base = np.concatenate([climate.base(i % 12, r[:, None])[:, point]
                           for i, r in enumerate(months)])
    series = base + offset + noise
    for i, name in enumerate(pl.G1_FIELDS):
        lo, hi = sim.FORCING_BOUNDS[name]
        series[:, i] = np.clip(series[:, i], lo, hi)
    return pl.aggregate_monthly(series)


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
        climate = sim._PointClimate(points)
        offsets = sim._cell_offsets(seed, land_idx, grid.spread_scale)
        full = sim._window_monthly_forcing(seed, grid, self.YEARS, land_idx,
                                           cell_point, climate, offsets)
        return land_idx, cell_point, climate, offsets, full

    def test_window_bitwise_equals_per_cell_reference(self, parts):
        land_idx, cell_point, climate, offsets, full = parts
        assert full.shape == (land_idx.shape[0], 12 * self.YEARS, 5)
        assert len(set(cell_point.tolist())) > 1
        for c, flat in enumerate(land_idx):
            ref = reference_forcing(self.SEED, self.GRID, self.YEARS, flat,
                                    cell_point[c], climate, offsets[c])
            assert np.array_equal(full[c], ref), c

    def test_cell_subset_gives_same_rows(self, parts):
        # each cell's forcing depends only on its own streams
        land_idx, cell_point, climate, offsets, full = parts
        sub = np.array([len(land_idx) - 1, 0, 2])
        part = sim._window_monthly_forcing(self.SEED, self.GRID, self.YEARS,
                                           land_idx[sub], cell_point[sub],
                                           climate, offsets[sub])
        assert np.array_equal(part, full[sub])

    @pytest.mark.parametrize("shape", [(7, 11, 5), (3, 5)])
    def test_one_clip_equals_per_field_clips(self, shape):
        lo, hi = np.array([sim.FORCING_BOUNDS[f] for f in pl.G1_FIELDS]).T
        x = lo + (hi - lo) * np.random.default_rng(0).uniform(-0.5, 1.5, shape)
        ref = x.copy()
        for i in range(5):
            ref[..., i] = np.clip(ref[..., i], lo[i], hi[i])
        assert (ref != x).any()
        assert np.array_equal(sim._clip_bounds(x), ref)

    def test_stationary_is_clipped_point_climatology(self, parts):
        land_idx, cell_point, climate, offsets, _ = parts
        stat = sim._stationary_monthly(climate, cell_point, offsets, ramp_value=1.0)
        ramp = np.ones((sim.STEPS_PER_MONTH, 1))
        for c in range(land_idx.shape[0]):
            series = np.concatenate([climate.base(m, ramp)[:, cell_point[c]]
                                     for m in range(12)])
            series = pl.aggregate_monthly(series) + offsets[c]
            for i, name in enumerate(pl.G1_FIELDS):
                lo, hi = sim.FORCING_BOUNDS[name]
                series[:, i] = np.clip(series[:, i], lo, hi)
            assert np.array_equal(stat[c], series), c


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

    @pytest.mark.parametrize("start", ["perturbed", "zero", "clamped"])
    def test_bitwise_equals_per_pool_reference(self, world, start):
        eq = sim.analytic_equilibrium(world)
        params = world.params
        route, kappa = sim.route_weights(params), sim.kappa_annual(params)
        _, _, npp_m12 = sim._flux_from_gbar(world.gbar_stat12, params.alpha[:, None],
                                            params.resp_frac[:, None],
                                            params.nutrient[:, None])
        npp = npp_m12.mean(axis=1)
        initial = eq.pools.copy()
        if start == "perturbed":
            rng = np.random.default_rng(9)
            for key in sim.POOL_KEYS:
                pool = getattr(initial, key)
                pool *= rng.uniform(0.8, 1.2, size=pool.shape)
        elif start == "zero":
            initial = sim.PoolState.zeros(world.n_cells, world.n_pft, world.n_layers)
        else:
            # far enough below zero that the first month ends below zero
            initial.leaf_c[::2] *= -100.0
            first = reference_step(initial, npp, route, kappa)
            assert np.all(first.leaf_c[::2] == 0.0)
        final, report = sim.restart_run(initial, world, years=3)
        state = initial.copy()
        for _ in range(36):
            state = reference_step(state, npp, route, kappa)
        for key in sim.POOL_KEYS:
            assert np.array_equal(getattr(final, key), getattr(state, key)), key
        assert report.before == sim._distance_report(initial, eq.pools)
        assert report.after == sim._distance_report(state, eq.pools)
        assert report.drift == sim._distance_report(state, initial, pools=sim.SLOW_POOLS)


class TestExportSamples:
    def test_shapes_and_order(self, world):
        s = sim.export_samples(world)
        n = world.n_cells
        assert s.n == n
        assert s.groups["g1"].shape == (n, 60, 5)
        assert s.groups["g2"].shape == (n, 8)
        assert s.groups["g3"].shape == (n, world.n_pft, 3)
        assert s.groups["g4"].shape == (n, world.n_pft, 5)
        assert s.groups["g5"].shape == (n, world.n_layers, 3)
        assert s.pft_code.shape == (n, world.n_pft)
        assert s.lat.shape == s.lon.shape == s.deepest_valid_layer.shape == (n,)
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

    def test_default_window_is_the_stationary_years(self):
        # the trend ramp ends STATIONARY_YEARS before the end of a 20-yr run
        assert sim.TREND_RAMP_YEARS + sim.STATIONARY_YEARS == 20
        six = sim.generate_world(3, sim.GridSpec(4, 6, 1.0), years=6)
        g1 = sim.export_samples(six).groups["g1"]
        assert g1.shape == (six.n_cells, 60, 5)
        np.testing.assert_array_equal(g1, six.forcing_monthly[:, -60:])

    def test_default_window_of_a_short_world_is_its_span(self):
        two = sim.generate_world(3, sim.GridSpec(4, 6, 1.0), years=2)
        g1 = sim.export_samples(two).groups["g1"]
        assert g1.shape == (two.n_cells, 24, 5)
        np.testing.assert_array_equal(g1, two.forcing_monthly)

    def test_shorter_window_takes_recent_years(self, world):
        g1 = sim.export_samples(world, window_years=5).groups["g1"]
        assert g1.shape == (world.n_cells, 60, 5)
        np.testing.assert_array_equal(g1, world.forcing_monthly[:, -60:])

    @pytest.mark.parametrize("window_years", [1, 20])
    def test_explicit_window_overrides_default(self, world, window_years):
        months = 12 * window_years
        g1 = sim.export_samples(world, window_years=window_years).groups["g1"]
        assert g1.shape == (world.n_cells, months, 5)
        np.testing.assert_array_equal(g1, world.forcing_monthly[:, -months:])

    def test_window_longer_than_span_rejected(self, world):
        with pytest.raises(RangeError):
            sim.export_samples(world, window_years=21)

    def test_deterministic(self, world):
        a = sim.export_samples(world)
        b = sim.export_samples(world)
        for g in pl.GROUPS:
            assert np.array_equal(a.groups[g], b.groups[g])


class TestPersistence:
    def test_world_round_trip(self, world, tmp_path):
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        loaded = sim.load_world(path)
        assert loaded.seed == world.seed and loaded.years == world.years
        assert np.array_equal(loaded.land_idx, world.land_idx)
        assert np.array_equal(loaded.forcing_monthly, world.forcing_monthly)
        assert np.array_equal(loaded.params.pft_code, world.params.pft_code)
        assert np.array_equal(loaded.gbar_stat12, world.gbar_stat12)
        for key in sim.POOL_KEYS:
            assert np.array_equal(getattr(loaded.window_end, key),
                                  getattr(world.window_end, key)), key
        assert loaded.params.pft_code.dtype == np.int64
        got = sim.export_samples(loaded).targets
        for name, want in sim.export_samples(world).targets.items():
            assert np.array_equal(got[name], want), name

    def test_manifest_is_version_two(self, world, tmp_path):
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        manifest, arrays = blobio.read_model_file(path)
        assert manifest["version"] == 2
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

    def test_version_one_file_loads(self, world, tmp_path):
        # version 1 also stored the equilibria and the pre-window
        # intermediates; they are not read
        path = str(tmp_path / "world.phw")
        sim.save_world(world, path)
        manifest, arrays = blobio.read_model_file(path)
        eq = sim.analytic_equilibrium(world)
        extra = {f"{prefix}.{k}": getattr(eq.pools, k)
                 for prefix in ("eq", "eq_pre") for k in sim.POOL_KEYS}
        extra.update({f"eq.{k}": getattr(eq, k) for k in ("tlai", "gpp", "ar", "npp")})
        extra["gbar_pre12"] = world.gbar_stat12
        old = str(tmp_path / "old.phw")
        blobio.write_model_file(old, dict(manifest, version=1,
                                          params=sorted({**arrays, **extra})),
                                {**arrays, **extra})
        loaded = sim.load_world(old)
        assert np.array_equal(loaded.forcing_monthly, world.forcing_monthly)
        assert np.array_equal(loaded.window_end.soil4c, world.window_end.soil4c)

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
        state, tlai = sim.load_restart_state(world, path)
        np.testing.assert_allclose(state.soil3c, eq.pools.soil3c, rtol=1e-6)
        np.testing.assert_allclose(tlai, eq.tlai, rtol=1e-6)
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
        pools = self.restart_pools(world, slice(None))
        pools["soil3c"] = pools["soil3c"].copy()
        pools["soil3c"][0, 0] = -5.0
        path = str(tmp_path / "neg.phr")
        blobio.write_restart(path, world.land_idx, pools, world.n_pft,
                             world.n_layers)
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
            for m in range(36):
                gbar, p = sim._schedule(w, *divmod(m, 12))
                _, _, npp = sim._flux_from_gbar(gbar, params.alpha, params.resp_frac, p)
                state = reference_step(state, npp, route, kappa)
                states.append(state)
            for key in sim.POOL_KEYS:
                assert np.array_equal(getattr(res.final, key), getattr(state, key)), key
                want = np.mean([getattr(s, key) for s in states[-12:]], axis=0)
                assert np.array_equal(getattr(res.final_year_mean, key), want), key

    def test_window_response_is_per_month_gbar(self, world):
        # one month's response equals that month of the whole window's
        full = sim._gbar_of(world.forcing_monthly)
        for m in range(world.months):
            gbar, p = sim._schedule(world, *divmod(m, 12))
            assert np.array_equal(gbar, full[:, m]), m
            assert np.array_equal(p, np.ones(world.n_cells))

    def test_rejects_zero_years(self, world):
        with pytest.raises(ConfigurationError):
            sim.spinup(world, 0)
