"""Outlier noise models for embedded manifold data.

Each sample is independently marked an outlier with probability p_i and,
if marked, displaced by its noise vector, an isotropic Gaussian
xi_i ~ N(0, (sigma_i^2/m) I_m) in the ambient R^m, so ||xi_i||
concentrates near sigma_i regardless of m.
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

An inlier's noise vector is exactly 0, so a noisy dataset stores only
its outliers' noise vectors xi in R^m (``Dataset.outlier_offsets``),
and the diagnostics read them in place, without the n x m cloud.  For
n_out outliers and k clean columns, ``attenuation`` costs O(n) and
``cross_term_stats`` O(n n_out) memory beside the dataset, and
O(n n_out k + n_out^2 m) time.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rng import make_rng, normals_in_place
from .errors import (finite_nonnegative, instance_of, integer_at_least, member,
                     positive_finite, scalar, unit_interval)
from .manifold import Dataset


class NoiseKind(Enum):
    SIMPLE = "simple"
    HETEROSKEDASTIC = "heteroskedastic"
    IID = "iid"


@dataclass(frozen=True)
class NoiseModel:
    """Noise regime plus ambient dimension and scale knobs, immutable
    and checked once, when made.

    kind is a ``NoiseKind``.  p_out is only read by the SIMPLE regime.
    m is the ambient dimension of the observed points: an integer, at
    least 4 and at least the clean points' width.
    """

    kind: NoiseKind
    m: int
    sigma_out: float = 0.1
    p_out: float = 0.1

    def __post_init__(self):
        member(NoiseKind, self.kind, "noise kind")
        integer_at_least("m", self.m, 4)
        scalar("p_out", self.p_out)
        unit_interval("p_out", self.p_out)
        scalar("sigma_out", self.sigma_out)
        finite_nonnegative("sigma_out", self.sigma_out)


def _gamma1(t):
    return 10.0 ** (1.0 - ((1.0 + np.sin(2.0 * np.pi * t)) / 2.0) ** 2)


def add_noise(ds, model, seed):
    """Return a noisy copy of a clean dataset, observed in R^m.

    model is a ``NoiseModel``.  The clean points may be k <= m = model.m
    columns wide and are kept as given.  Only the outliers' noise
    vectors xi are stored (``outlier_offsets``), each its scaled
    Gaussian block in R^m; ``Dataset.points`` adds them to the padded
    clean rows on demand.  A dataset with an outlier already flagged is
    refused.

    Draws follow the module's order.  The heteroskedastic phase makes
    the outlier probability a randomly rotated sawtooth along the
    manifold; the coherent high-outlier arc it produces is what breaks
    the degree-normalized pipeline in the embedding experiment.
    """
    integer_at_least("seed", seed, 0)
    instance_of("noise model", model, NoiseModel)
    if ds.outlier_flags.any():
        raise ValueError("dataset already carries noise")
    n, k = ds.clean_points.shape
    m = model.m
    if k > m:
        raise ValueError(f"dataset is {k}-dimensional, wider than the model's m={m}")
    # a first pass finds the outliers and where each one's m Gaussian
    # uniforms start in the stream, stepping over them (PCG64 spends one
    # output on each), so xi is allocated once at its exact size; a second
    # generator from the same seed jumps from block to block and draws
    # each into its row of xi, which is then turned into the noise in place
    rng = make_rng(seed)
    flags = np.zeros(n, dtype=bool)
    starts, sigmas = [], []
    for i, sigma, drawn in _outliers(ds.t, model, rng):
        flags[i] = True
        starts.append(drawn + m * len(sigmas))
        sigmas.append(sigma)
        rng.bit_generator.advance(m)
    xi = np.empty((len(starts), m))
    rng, at = make_rng(seed), 0
    for row, start in zip(xi, starts):
        rng.bit_generator.advance(start - at)
        rng.random(out=row)
        at = start + m
    normals_in_place(xi)
    xi *= (np.array(sigmas) / np.sqrt(m))[:, None]
    return Dataset(
        t=ds.t,
        clean_points=ds.clean_points,
        outlier_flags=flags,
        outlier_offsets=xi,
        seed=ds.seed,
    )


def _outliers(t, model, rng):
    """Yield (i, sigma_i, drawn) for each outlier in row order, drawing
    the phase, the coins and the gammas from rng in the module's order,
    drawn the number of those draws so far; the caller draws or skips
    the outlier's m Gaussian uniforms before it asks for the next."""
    u = rng.random() if model.kind is NoiseKind.HETEROSKEDASTIC else 0.0
    drawn = int(model.kind is NoiseKind.HETEROSKEDASTIC)
    for i, ti in enumerate(t):
        if model.kind is NoiseKind.HETEROSKEDASTIC:
            p_i = 0.05 + 0.9 * ((1.0 - ti + u) % 1.0)
        elif model.kind is NoiseKind.SIMPLE:
            p_i = model.p_out
        else:
            p_i = 0.95
        drawn += 1
        if rng.random() >= p_i:
            continue
        if model.kind is NoiseKind.SIMPLE:
            gam = 1.0
        elif model.kind is NoiseKind.HETEROSKEDASTIC:
            gam = 0.9 * _gamma1(ti) + 0.1 * (3.0 * rng.random())
        else:
            gam = 3.0 * rng.random()
        drawn += model.kind is not NoiseKind.SIMPLE
        yield i, model.sigma_out * np.sqrt(gam), drawn


def attenuation(ds, epsilon):
    """Per-sample kernel attenuation exp(-||xi_i||^2 / (4 epsilon)).

    xi_i is the sample's displacement off the manifold; the factor is
    how much every affinity touching i shrinks relative to the clean
    kernel (up to cross terms).  Inliers, with xi_i = 0, get exactly 1,
    so every sample of a clean dataset does.
    """
    scalar("epsilon", epsilon)
    positive_finite("epsilon", epsilon)
    xi = ds.outlier_offsets
    sq = np.zeros(ds.n)
    sq[ds.outlier_flags] = np.einsum("ij,ij->i", xi, xi)
    return np.exp(-sq / (4.0 * epsilon))


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
    fraction of inlier samples: (0.0, 1.0) for a clean dataset.

    A pair of inliers has r_ij = 0 exactly, so r is formed only on the
    (n, n_out) pairs with an outlier j, from the products x_i^c . xi_j
    over the k clean columns, the outliers' own x_j^c . xi_j and the
    outliers' Gram matrix, reading xi in place: O(n n_out) memory and
    O(n n_out k + n_out^2 m) time, with no n x m or n x n array.
    """
    xi, flags, clean = ds.outlier_offsets, ds.outlier_flags, ds.clean_points
    head = xi[:, : clean.shape[1]]  # xi over the clean columns
    own = np.einsum("ij,ij->i", clean[flags], head)
    # r[i, j] for each outlier j, from cross[i, j] = x_i^c . xi_j; an inlier
    # row i has xi_i = 0, and an outlier row adds its own terms
    cross = clean @ head.T
    r = 2.0 * (own - cross)
    both = cross[flags]
    r[flags] = 2.0 * (own[:, None] + own - both - both.T) - 2.0 * (xi @ xi.T)
    # each pair (j, j) is not off-diagonal: as |r| >= 0, a zero drops it
    # from the max, as the inlier pairs' exact zeros are dropped
    r[flags, np.arange(len(xi))] = 0.0
    return float(np.abs(r, out=r).max(initial=0.0)), float(1.0 - flags.mean())
