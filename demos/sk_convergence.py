#!/usr/bin/env python3
"""Behavior of the accelerated symmetric scaling iteration.

Four small studies on the solver that turns a symmetric positive
kernel A into a doubly stochastic matrix diag(eta) A diag(eta):

  1. residual trace on a kernel matrix: the sup-norm residual
     ||eta * (A eta) - 1|| drops by orders of magnitude per sweep
     (each sweep is two Jacobi half-steps combined as a geometric mean);
  2. scale equivariance: scaling A by c divides eta by sqrt(c) exactly,
     so the iteration count is invariant to the kernel normalization;
  3. lower-bound projection: a matrix with a weakly connected sample
     drives that sample's factor below the floor c_sk; the projection
     counter records every clamp;
  4. early termination: on noisy data the pointwise error of the
     bi-stochastic Laplacian hardly moves between a loose and a tight
     tolerance eps_sk, and stays below the degree-normalized one.

Run:  python3 demos/sk_convergence.py
"""

import numpy as np

from sinklap import (
    DensitySpec,
    LaplacianKind,
    NoiseKind,
    NoiseModel,
    SkConfig,
    approx_sym_sk,
    build_affinity,
    normalized_prefactor,
    pointwise_experiment,
    sample_dataset,
    scaling_residual,
)


def main():
    ds = sample_dataset(400, DensitySpec.SINUSOIDAL_1D, seed=0)
    aff = build_affinity(ds, 1e-3)
    res = approx_sym_sk(aff, SkConfig(eps_sk=1e-12, max_iter=30))
    print("residual trace on a kernel matrix (n = 400, eps = 1e-3):")
    for k, r in enumerate(res.residual_history, 1):
        print(f"  sweep {k}: {r:.3e}")
    print(f"converged = {res.converged}, projections = {res.projection_hits}")
    print()

    rng = np.random.default_rng(1)
    a = rng.uniform(0.1, 2.0, size=(6, 6))
    a = (a + a.T) / 2.0
    cfg = SkConfig(c_sk=0.0, eps_sk=1e-12, max_iter=200)
    base = approx_sym_sk(a, cfg)
    for c in (0.25, 4.0):
        scaled = approx_sym_sk(c * a, cfg)
        gap = np.max(np.abs(scaled.eta - base.eta / np.sqrt(c)))
        print(f"scale equivariance, c = {c}: iterations "
              f"{base.iterations} -> {scaled.iterations}, "
              f"max |eta(cA) - eta(A)/sqrt(c)| = {gap:.2e}")
    print()

    weak = np.array([[1.0, 1.0, 50.0],
                     [1.0, 1.0, 1.0],
                     [50.0, 1.0, 200.0]])
    res = approx_sym_sk(weak, SkConfig(c_sk=0.2, eps_sk=1e-10, max_iter=50))
    print("lower-bound projection on an ill-balanced matrix, c_sk = 0.2:")
    print(f"  eta = {np.array2string(res.eta, precision=4)}")
    resid = np.max(np.abs(scaling_residual(weak, res.eta)))
    print(f"  projections = {res.projection_hits}, "
          f"final residual = {resid:.2e}")
    print("  the clamped factor keeps the residual from closing; the")
    print("  counter is the diagnostic that the floor is active")
    print()

    n, eps, seeds = 600, 5e-4, (0, 1)
    model = NoiseModel(NoiseKind.SIMPLE, 1000)
    c_sk = 0.1 * np.sqrt(normalized_prefactor(n, eps, 1))
    print(f"mean RelErr2 vs eps_sk (n = {n}, eps = {eps}, SIMPLE noise in "
          f"R^{model.m}, seeds {seeds}):")
    for label, kind, cfg in (
        [(f"eps_sk = {tol:g}", LaplacianKind.BISTOCH_UN,
          SkConfig(c_sk=c_sk, eps_sk=tol)) for tol in (0.5, 1e-3, 1e-6)]
        + [("dm (degree)", LaplacianKind.DM_UN, SkConfig())]
    ):
        runs = [pointwise_experiment(n, DensitySpec.SINUSOIDAL_1D, eps, kind,
                                     sk_config=cfg, noise_model=model, seed=s)
                for s in seeds]
        print(f"  {label:>14}: RelErr2 {np.mean([r.relerr2 for r in runs]):.4f}, "
              f"iterations {np.mean([r.sk_iters for r in runs]):g}")


if __name__ == "__main__":
    main()
