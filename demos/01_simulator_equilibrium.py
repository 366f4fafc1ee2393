#!/usr/bin/env python3
"""Why spin-up is the bottleneck, shown on the toy simulator.

Builds a small world, integrates the carbon pools forward from bare
ground, and watches how long each pool takes to reach its analytically
known steady state. Fast pools (leaves, fine roots) settle within a few
years; the slow soil pool needs more than a millennium, which is the
cost a surrogate warm start avoids.
"""

import math

import numpy as np

from phase_surrogate import simulator


def median_rel_distance(state, eq, pool):
    got = getattr(state, pool)
    want = getattr(eq, pool)
    return float(np.median(np.abs(got - want) / np.abs(want)))


def main():
    grid = simulator.grid_spec("coarse")
    world = simulator.generate_world(seed=0, grid=grid)
    print(f"world: {world.n_cells} land cells on a "
          f"{grid.n_lat}x{grid.n_lon} grid, {world.years} yr forcing window")

    eq = simulator.analytic_equilibrium(world)
    print(f"turnover: k_fast={simulator.K_FAST}/yr  k_slow={simulator.K_SLOW}/yr")
    print(f"cold start to within 0.5% of the slow-pool equilibrium: "
          f"{math.log(1 / simulator.EQUILIBRIUM_BAND) / simulator.K_SLOW:.0f} yr\n")

    # integrate from zero pools and report the remaining gap to equilibrium
    print(f"{'years':>6} {'leaf_c':>10} {'cwdc':>10} {'soil4c':>10}"
          f"   (median relative distance to equilibrium)")
    for years in (5, 15, 30, 50, 100, 200):
        result = simulator.spinup(world, years)
        row = [median_rel_distance(result.final_year_mean, eq.pools, p)
               for p in ("leaf_c", "cwdc", "soil4c")]
        print(f"{years:>6} {row[0]:>10.4f} {row[1]:>10.4f} {row[2]:>10.4f}")

    print("\nfast pools are done in years; the slowest soil pool is still "
          "far off after two centuries.")
    print("restarting from the exact equilibrium instead:")
    _, report = simulator.restart_run(eq.pools, world, years=2)
    for pool in simulator.SLOW_POOLS:
        print(f"  {pool:>10}: drift after 2 yr = "
              f"{report.drift[pool]['max']:.2e} (max over cells)")
    print("a correct warm start stays put, which is what the surrogate "
          "is trained to provide.")


if __name__ == "__main__":
    main()
