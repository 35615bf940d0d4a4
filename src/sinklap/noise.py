"""Outlier noise models for embedded manifold data.

Each sample is independently marked an outlier with probability p_i and,
if marked, displaced by an isotropic Gaussian z_i ~ N(0, (sigma_i^2/m) I_m)
in the ambient R^m, so ||z_i|| concentrates near sigma_i regardless of m.
Three regimes:

* SIMPLE          : p_i = p_out, sigma_i = sigma_out.
* HETEROSKEDASTIC : p_i = 0.05 + 0.9 ((1 - t_i + u) mod 1) with one
  phase u ~ Unif(0,1) for all samples, and sigma_i = sigma_out
  sqrt(gamma_i) with gamma_i = 0.9 gamma1(t_i) + 0.1 gamma2, gamma2 ~
  Unif(0,3), gamma1(t) = 10^(1 - ((1 + sin 2 pi t)/2)^2): both the
  outlier rate and magnitude vary over the manifold.
* IID             : p_i = 0.95, gamma_i ~ Unif(0,3); nearly every point
  is perturbed.

Draw order is part of the reproducibility contract.  First the phase u
(heteroskedastic only); then for each sample i = 0..n-1, in order: the
outlier coin, then only for outliers the gamma uniform (heteroskedastic
and IID) followed by the m Gaussian components.  Gaussians come from
the inverse CDF of uniforms, so a (seed, order) pair pins every byte of
the output.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rng import make_rng, standard_normal
from .manifold import Dataset, embed_ambient


class NoiseKind(Enum):
    SIMPLE = "simple"
    HETEROSKEDASTIC = "heteroskedastic"
    IID = "iid"


@dataclass
class NoiseModel:
    """Noise regime plus ambient dimension and scale knobs.

    p_out is only read by the SIMPLE regime.  m is the ambient
    dimension of the noisy points: at least 4 and at least the clean
    points' width.
    """

    kind: NoiseKind
    m: int
    sigma_out: float = 0.1
    p_out: float = 0.1

    def __post_init__(self):
        if self.m < 4:
            raise ValueError("m must be >= 4")
        if not 0.0 <= self.p_out < 1.0:
            raise ValueError("p_out must lie in [0, 1)")
        if not 0 <= self.sigma_out < np.inf:
            raise ValueError("sigma_out must be finite and >= 0")


def _gamma1(t):
    return 10.0 ** (1.0 - ((1.0 + np.sin(2.0 * np.pi * t)) / 2.0) ** 2)


def add_noise(ds, model, seed):
    """Return a noisy copy of a clean dataset, observed in R^m.

    The clean points may be k <= m = model.m columns wide; the noisy
    points are them zero-padded to R^m (``manifold.embed_ambient``) plus
    the outlier displacements, and the clean points are kept as given.
    Inlier rows of the result are bitwise equal to the padded clean rows.

    Draws follow the module's order.  The heteroskedastic phase makes
    the outlier probability a randomly rotated sawtooth along the
    manifold; the coherent high-outlier arc it produces is what breaks
    the degree-normalized pipeline in the embedding experiment.
    """
    if ds.noisy_points is not None:
        raise ValueError("dataset already carries noise")
    clean = ds.clean_points
    n, k = clean.shape
    m = model.m
    if k > m:
        raise ValueError(f"dataset is {k}-dimensional, wider than the model's m={m}")
    rng = make_rng(seed)
    noisy = embed_ambient(clean, m)
    flags = np.zeros(n, dtype=bool)
    root_m = np.sqrt(m)
    u = rng.random() if model.kind is NoiseKind.HETEROSKEDASTIC else 0.0
    for i in range(n):
        ti = ds.t[i]
        if model.kind is NoiseKind.HETEROSKEDASTIC:
            p_i = 0.05 + 0.9 * ((1.0 - ti + u) % 1.0)
        elif model.kind is NoiseKind.SIMPLE:
            p_i = model.p_out
        else:
            p_i = 0.95
        if rng.random() >= p_i:
            continue
        flags[i] = True
        if model.kind is NoiseKind.SIMPLE:
            gam = 1.0
        elif model.kind is NoiseKind.HETEROSKEDASTIC:
            gam = 0.9 * _gamma1(ti) + 0.1 * (3.0 * rng.random())
        else:
            gam = 3.0 * rng.random()
        sigma = model.sigma_out * np.sqrt(gam)
        noisy[i] += (sigma / root_m) * standard_normal(rng, m)
    return Dataset(
        t=ds.t,
        clean_points=clean,
        noisy_points=noisy,
        outlier_flags=flags,
        seed=ds.seed,
    )


def _clean_and_offsets(ds):
    """Clean points padded to the noisy width, and the displacements xi."""
    if ds.noisy_points is None:
        raise ValueError("needs a noisy dataset")
    xc = embed_ambient(ds.clean_points, ds.noisy_points.shape[1])
    return xc, ds.noisy_points - xc


def attenuation(ds, epsilon):
    """Per-sample kernel attenuation exp(-||xi_i||^2 / (4 epsilon)).

    xi_i is the sample's displacement off the manifold; the factor is
    how much every affinity touching i shrinks relative to the clean
    kernel (up to cross terms).
    """
    _, xi = _clean_and_offsets(ds)
    return np.exp(-np.einsum("ij,ij->i", xi, xi) / (4.0 * epsilon))


def cross_term_stats(ds):
    """Extremes of the distance cross term between clean and noise parts.

    Writing x_i = x_i^c + xi_i,

        ||x_i - x_j||^2 = ||x_i^c - x_j^c||^2 + ||xi_i||^2 + ||xi_j||^2
                          + r_ij,
        r_ij = 2 (x_i^c - x_j^c) . (xi_i - xi_j) - 2 xi_i . xi_j.

    r_ij is the only part of the noisy squared distance that is not a
    clean distance plus per-sample offsets; it shrinks like 1/sqrt(m)
    as the ambient dimension grows.  Returns the largest |r_ij| over
    off-diagonal pairs (the empirical cross-term bound) and the
    fraction of inlier samples.
    """
    xc, xi = _clean_and_offsets(ds)
    cross = xc @ xi.T
    diag = np.einsum("ij,ij->i", xc, xi)
    gram = xi @ xi.T
    r = 2.0 * (diag[:, None] + diag[None, :] - cross - cross.T) - 2.0 * gram
    off = ~np.eye(ds.n, dtype=bool)
    max_abs = float(np.max(np.abs(r[off])))
    flags = ds.outlier_flags
    frac_inliers = 1.0 if flags is None else float(1.0 - flags.mean())
    return max_abs, frac_inliers
