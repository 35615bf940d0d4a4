#!/usr/bin/env python3
"""Outlier robustness of the scaled kernel against degree normalization.

Embeds the curve in a high-dimensional ambient space, replaces a tenth
of the samples with noisy copies (isotropic Gaussian displacement of
magnitude sigma), and runs both pipelines at a fixed bandwidth.  Three
effects are surfaced:

  * the kernel attenuation exp(-||xi||^2 / 4 eps) collapses the rows of
    every outlier, while inlier rows are untouched;
  * up to cross terms that shrink like 1/sqrt(m), the noisy squared
    distances are the clean ones plus per-sample offsets, so the noisy
    kernel is the clean kernel times per-sample attenuation;
  * the symmetric scaling absorbs that attenuation into the factors
    eta_i, so inlier factors stay near the clean profile and the
    pointwise error barely moves, with zero lower-bound projections.

Run:  python3 demos/noise_robustness.py   (about 1 s)
"""

import numpy as np

from sinklap import (
    DensitySpec,
    LaplacianKind,
    NoiseKind,
    NoiseModel,
    add_noise,
    attenuation,
    cross_term_stats,
    pointwise_experiment,
    sample_dataset,
)


def main():
    n, m, eps = 1000, 2000, 5e-4
    model = NoiseModel(NoiseKind.SIMPLE, m=m, sigma_out=0.1, p_out=0.1)
    ds = sample_dataset(n, DensitySpec.SINUSOIDAL_1D, seed=0)
    noisy = add_noise(ds, model, seed=1)
    att = attenuation(noisy, eps)
    max_r, frac_in = cross_term_stats(noisy)
    flags = noisy.outlier_flags
    print(f"n = {n}, ambient dim = {m}, eps = {eps:.0e}, "
          f"outliers = {flags.sum()}/{n}")
    print(f"inlier fraction: {frac_in:.3f}")
    print(f"attenuation: inliers all 1, outlier median "
          f"{np.median(att[flags]):.2e}")
    print(f"cross-term bound max|r_ij| = {max_r:.5f} "
          f"(decays like 1/sqrt(m): doubling m shrinks it by about 1.4x)")
    print()
    for kind, label in ((LaplacianKind.BISTOCH_UN, "bistochastic"),
                        (LaplacianKind.DM_UN, "degree-normalized")):
        res = pointwise_experiment(
            n, DensitySpec.SINUSOIDAL_1D, eps, kind,
            noise_model=model, seed=0,
        )
        extra = ""
        if res.min_inlier_eta is not None:
            extra = (f", min inlier eta {res.min_inlier_eta:.3f}, "
                     f"projections {res.projection_hits}")
        print(f"{label:>18}: relerr2 = {res.relerr2:.4f}{extra}")
    print()
    print("the scaled pipeline keeps inlier factors well above the lower")
    print("bound (no projections), so outliers only rescale their own rows")


if __name__ == "__main__":
    main()
