import dataclasses
import math

import numpy as np
import pytest

from phase_surrogate import blobio
from phase_surrogate import pipeline as pl
from phase_surrogate import simulator as sim
from phase_surrogate.errors import ConfigurationError, ContractError, RangeError


@pytest.fixture(scope="module")
def world():
    return sim.generate_world(3, sim.GridSpec(8, 8, 1.0), years=20)


def single_pool_setup(k, n=1):
    """Integrator harness: everything routed into one soil3c layer."""
    route = {key: np.zeros((n, 1)) for key in sim.POOL_KEYS}
    route["soil3c"] = np.ones((n, 1))
    kappa = {key: np.full(n, k) for key in sim.POOL_KEYS}
    state = sim.PoolState.zeros(n, n_pft=1, n_layers=1)
    return state, route, kappa


def integrate_constant(state, u_annual, route, kappa, years):
    npp_month = np.full(state.soil3c.shape[0], u_annual / 12.0)
    states = [state]
    for _ in range(12 * years):
        state = sim.advance_month(state, npp_month, route, kappa)
        states.append(state)
    return state, states


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
        _, states = integrate_constant(state, 5.0, route, kappa, years=200)
        values = np.array([s.soil3c[0, 0] for s in states])
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
        before = state.copy()
        after = sim.advance_month(state, npp, route, kappa)
        for key in sim.POOL_KEYS:
            pool = getattr(before, key)
            delta = npp[:, None] * route[key] - (kappa[key] / 12.0)[:, None] * pool
            assert np.array_equal(getattr(after, key), pool + delta), key

    def test_clamps_negative_states_at_zero(self):
        state, route, kappa = single_pool_setup(12.0)
        state.soil3c[0, 0] = 100.0
        new = sim.advance_month(state, np.zeros(1), route, kappa)
        assert new.soil3c[0, 0] == 0.0


class TestFluxes:
    # the formula spin-up, the equilibria and load_world run
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
        assert np.array_equal(a.eq_final.pools.soil4c, b.eq_final.pools.soil4c)

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


class TestEquilibrium:
    def test_long_spinup_matches_analytic(self, world):
        cells = np.random.default_rng(1).choice(world.n_cells, size=20, replace=False)
        result = sim.spinup(world, 5000, cells=cells)
        eq = sim.analytic_equilibrium(world, cells)
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
        eq = world.eq_final
        assert np.all(eq.npp + eq.ar - eq.gpp == 0.0)

    def test_tlai_is_sla_times_leaf(self, world):
        np.testing.assert_array_equal(
            world.eq_final.tlai, world.params.sla * world.eq_final.pools.leaf_c)


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
        cells = np.array([0, 3, 7, 11])
        eq = sim.analytic_equilibrium(world, cells)
        rng = np.random.default_rng(5)
        start = eq.pools.copy()
        for key in sim.SLOW_POOLS:
            pool = getattr(start, key)
            pool *= rng.uniform(0.985, 1.015, size=pool.shape)
            pool[0] = getattr(eq.pools, key)[0] * 1.002  # inside the band
        _, report = sim.restart_run(start, world, years=1, cells=cells)

        def outside(state):
            return np.any([np.any(np.abs(getattr(state, k) - getattr(eq.pools, k))
                                  > sim.EQUILIBRIUM_BAND * getattr(eq.pools, k),
                                  axis=1)
                           for k in sim.SLOW_POOLS], axis=0)

        params = sim._select_params(world.params, cells)
        route, kappa = sim.route_weights(params), sim.kappa_annual(params)
        state, months, month = start, np.zeros(cells.size), 0
        still = outside(state)
        while still.any():
            state = sim.advance_month(state, eq.npp / 12.0, route, kappa)
            month += 1
            months[still] = month
            still = outside(state)
        assert months[0] == 0 and months[1:].min() > 12
        np.testing.assert_allclose(report.warm_start_years * 12.0,
                                   np.maximum(months, 1.0), atol=1.0)
        np.testing.assert_allclose(report.speedup, report.cold_start_years
                                   / report.warm_start_years, rtol=1e-12)

    def test_subset_of_cells(self, world):
        cells = np.array([0, 2, 5])
        eq = sim.analytic_equilibrium(world, cells)
        final, report = sim.restart_run(eq.pools.copy(), world, years=10, cells=cells)
        assert final.soil3c.shape[0] == 3
        assert report.after["soil3c"]["max"] < 1e-6


class TestExportSamples:
    def test_shapes_and_order(self, world):
        s = sim.export_samples(world)
        n = world.n_cells
        assert s.n == n
        assert s.groups["g1"].shape == (n, 240, 5)
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
        eq = world.eq_final
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

    def test_shorter_window_takes_recent_years(self, world):
        g1 = sim.export_samples(world, window_years=5).groups["g1"]
        assert g1.shape == (world.n_cells, 60, 5)
        np.testing.assert_array_equal(g1, world.forcing_monthly[:, -60:])

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
        assert np.array_equal(loaded.eq_final.pools.soil4c,
                              world.eq_final.pools.soil4c)
        assert np.array_equal(loaded.window_end.leaf_c, world.window_end.leaf_c)
        assert loaded.params.pft_code.dtype == np.int64

    def test_load_rejects_other_files(self, tmp_path):
        path = str(tmp_path / "other.phm")
        blobio.write_model_file(path, {"format": "model", "params": []}, {})
        with pytest.raises(ContractError):
            sim.load_world(path)

    def test_restart_round_trip(self, world, tmp_path):
        eq = world.eq_final
        pools = {"deadcrootc": eq.pools.deadcrootc, "deadstemc": eq.pools.deadstemc,
                 "tlai": eq.tlai, "cwdc": eq.pools.cwdc,
                 "soil3c": eq.pools.soil3c, "soil4c": eq.pools.soil4c}
        path = str(tmp_path / "state.phr")
        blobio.write_restart(path, world.land_idx, pools, world.n_pft,
                             world.n_layers)
        state, tlai = sim.load_restart_state(world, path)
        np.testing.assert_allclose(state.soil3c, eq.pools.soil3c, rtol=1e-6)
        np.testing.assert_allclose(tlai, eq.tlai, rtol=1e-6)
        assert np.all(state.leaf_c == 0.0) and np.all(state.froot_c == 0.0)

    def test_restart_missing_cells_rejected(self, world, tmp_path):
        eq = world.eq_final
        keep = world.n_cells - 1
        pools = {"deadcrootc": eq.pools.deadcrootc[:keep],
                 "deadstemc": eq.pools.deadstemc[:keep], "tlai": eq.tlai[:keep],
                 "cwdc": eq.pools.cwdc[:keep], "soil3c": eq.pools.soil3c[:keep],
                 "soil4c": eq.pools.soil4c[:keep]}
        path = str(tmp_path / "short.phr")
        blobio.write_restart(path, world.land_idx[:keep], pools,
                             world.n_pft, world.n_layers)
        with pytest.raises(ContractError, match="missing"):
            sim.load_restart_state(world, path)

    def test_restart_negative_pool_rejected(self, world, tmp_path):
        eq = world.eq_final
        bad = eq.pools.soil3c.copy()
        bad[0, 0] = -5.0
        pools = {"deadcrootc": eq.pools.deadcrootc, "deadstemc": eq.pools.deadstemc,
                 "tlai": eq.tlai, "cwdc": eq.pools.cwdc,
                 "soil3c": bad, "soil4c": eq.pools.soil4c}
        path = str(tmp_path / "neg.phr")
        blobio.write_restart(path, world.land_idx, pools, world.n_pft,
                             world.n_layers)
        with pytest.raises(ContractError, match="non-negative"):
            sim.load_restart_state(world, path)


class TestSpinupBookkeeping:
    def test_record_returns_monthly_trajectory(self, world):
        cells = np.array([0, 1])
        res = sim.spinup(world, 2, cells=cells, record=True)
        assert len(res.monthly) == 24
        assert res.monthly[-1].soil3c.shape == (2, world.n_layers)
        np.testing.assert_array_equal(res.monthly[-1].soil3c, res.final.soil3c)

    def test_final_year_mean_is_mean_of_last_twelve(self, world):
        cells = np.array([4])
        res = sim.spinup(world, 3, cells=cells, record=True)
        want = np.mean([m.cwdc for m in res.monthly[-12:]], axis=0)
        np.testing.assert_allclose(res.final_year_mean.cwdc, want, rtol=1e-14)

    def test_rejects_zero_years(self, world):
        with pytest.raises(ConfigurationError):
            sim.spinup(world, 0)
