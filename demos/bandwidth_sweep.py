#!/usr/bin/env python3
"""Bandwidth sweep: the U-shaped error curve and its two slopes.

Replicated sweep of the kernel bandwidth on the sinusoidal-density
curve.  The mean relative 2-norm error traces a U: it falls like
eps^(-3/4) while sampling variance dominates, bottoms out, then rises
roughly linearly in eps once the smoothing bias takes over.  Both
slopes come from ``sweep_slopes``, as in ``sinklap sweep --slopes-out``:
the variance branch over the first grid points, the bias branch from the
sup-norm argmin, held inside the grid.

Run:  python3 demos/bandwidth_sweep.py   (about 10 s)
"""

import numpy as np

from sinklap import DensitySpec, LaplacianKind, epsilon_sweep, sweep_slopes


def main():
    n, replicas = 1000, 3
    eps_grid = np.geomspace(1e-4, 1e-2, 8)
    records = epsilon_sweep(
        n, DensitySpec.SINUSOIDAL_1D, eps_grid, replicas,
        LaplacianKind.BISTOCH_UN, base_seed=0,
    )
    print(f"n = {n}, {replicas} replicas per bandwidth")
    print()
    print(f"{'epsilon':>9} {'relerr2':>9} {'+/-':>7} {'relerrinf':>10} "
          f"{'sk iters':>9}")
    for rec in records:
        print(f"{rec.epsilon:9.1e} {rec.relerr2_mean:9.4f} "
              f"{rec.relerr2_std:7.4f} {rec.relerrinf_mean:10.4f} "
              f"{rec.mean_sk_iters:9.2f}")
    (_, small), (_, large) = sweep_slopes(records, 3)
    print()
    print(f"variance-branch slope (first 3 points):   {small:+.3f}  "
          f"(about -3/4 expected)")
    print(f"bias-branch slope (3 points from argmin): {large:+.3f}  "
          f"(about +1 expected)")


if __name__ == "__main__":
    main()
