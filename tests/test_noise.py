"""Outlier noise models and the distance decomposition diagnostics."""

import numpy as np
import pytest

from sinklap import (
    Dataset,
    DensitySpec,
    NoiseKind,
    NoiseModel,
    add_noise,
    attenuation,
    cross_term_stats,
    embed_ambient,
    sample_dataset,
)
from sinklap._rng import make_rng, standard_normal


def embedded_dataset(n, m, spec=DensitySpec.SINUSOIDAL_1D, seed=0):
    ds = sample_dataset(n, spec, seed)
    return Dataset(t=ds.t, clean_points=embed_ambient(ds.points, m), seed=seed)


class TestAddNoise:
    def test_deterministic(self):
        ds = embedded_dataset(200, 8)
        model = NoiseModel(NoiseKind.HETEROSKEDASTIC, 8, sigma_out=0.2)
        a = add_noise(ds, model, seed=5)
        b = add_noise(ds, model, seed=5)
        assert np.array_equal(a.noisy_points, b.noisy_points)
        assert np.array_equal(a.outlier_flags, b.outlier_flags)
        c = add_noise(ds, model, seed=6)
        assert not np.array_equal(a.noisy_points, c.noisy_points)

    def test_inliers_untouched(self):
        ds = embedded_dataset(500, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.3, 0.4), seed=1)
        inl = ~noisy.outlier_flags
        assert np.array_equal(noisy.noisy_points[inl], ds.clean_points[inl])
        assert not np.array_equal(noisy.noisy_points[~inl], ds.clean_points[~inl])
        assert np.array_equal(noisy.clean_points, ds.clean_points)

    def test_simple_outlier_rate(self):
        n, p = 4000, 0.1
        ds = embedded_dataset(n, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.1, p), seed=2)
        count = noisy.outlier_flags.sum()
        assert abs(count - n * p) < 3.0 * np.sqrt(n * p * (1.0 - p))

    def test_het_outlier_rate(self):
        # sawtooth profile on [0.05, 0.95] averages one half for uniform t,
        # whatever the random phase
        n = 4000
        ds = embedded_dataset(n, 8, spec=DensitySpec.UNIFORM_CIRCLE)
        noisy = add_noise(ds, NoiseModel(NoiseKind.HETEROSKEDASTIC, 8), seed=3)
        assert abs(noisy.outlier_flags.mean() - 0.5) < 0.06

    def test_iid_outlier_rate(self):
        n = 4000
        ds = embedded_dataset(n, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.IID, 8), seed=4)
        assert abs(noisy.outlier_flags.mean() - 0.95) < 0.02

    def test_outlier_displacement_scale(self):
        # z ~ N(0, (sigma^2/m) I_m) so E||z||^2 = sigma^2
        sigma = 0.1
        ds = embedded_dataset(2000, 400)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 400, sigma, 0.9),
                          seed=7)
        xi = noisy.noisy_points - noisy.clean_points
        sq = np.einsum("ij,ij->i", xi, xi)[noisy.outlier_flags]
        assert abs(sq.mean() / sigma**2 - 1.0) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.SIMPLE, 3)
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.SIMPLE, 8, p_out=1.0)
        for sigma in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="sigma_out"):
                NoiseModel(NoiseKind.SIMPLE, 8, sigma_out=sigma)
        ds = embedded_dataset(50, 8)
        with pytest.raises(ValueError, match="wider"):
            add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 4), seed=0)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8), seed=0)
        with pytest.raises(ValueError):
            add_noise(noisy, NoiseModel(NoiseKind.SIMPLE, 8), seed=0)


    @pytest.mark.parametrize("kind", list(NoiseKind))
    def test_draw_order(self, kind):
        # the module docstring's order, rebuilt draw by draw: the phase u
        # (heteroskedastic only), then per sample the coin and, for
        # outliers only, the gamma uniform and the m Gaussians
        n, m, seed = 300, 6, 21
        ds = embedded_dataset(n, m, spec=DensitySpec.UNIFORM_CIRCLE)
        model = NoiseModel(kind, m, sigma_out=0.2, p_out=0.3)
        rng = make_rng(seed)
        points = ds.clean_points.copy()
        flags = np.zeros(n, dtype=bool)
        u = rng.random() if kind is NoiseKind.HETEROSKEDASTIC else None
        for i, t in enumerate(ds.t):
            if kind is NoiseKind.HETEROSKEDASTIC:
                p = 0.05 + 0.9 * ((1.0 - t + u) % 1.0)
            else:
                p = 0.3 if kind is NoiseKind.SIMPLE else 0.95
            if rng.random() >= p:
                continue
            flags[i] = True
            if kind is NoiseKind.SIMPLE:
                gam = 1.0
            elif kind is NoiseKind.HETEROSKEDASTIC:
                gamma1 = 10.0 ** (1.0 - ((1.0 + np.sin(2.0 * np.pi * t)) / 2.0) ** 2)
                gam = 0.9 * gamma1 + 0.1 * (3.0 * rng.random())
            else:
                gam = 3.0 * rng.random()
            points[i] += (0.2 * np.sqrt(gam) / np.sqrt(m)) * standard_normal(rng, m)
        noisy = add_noise(ds, model, seed)
        assert 0 < flags.sum() < n
        assert np.array_equal(noisy.outlier_flags, flags)
        assert np.array_equal(noisy.noisy_points, points)

    def test_narrow_clean_points_padded(self):
        # clean points narrower than m give the noise of their padded copy,
        # bit for bit, and are kept at their own width
        ds = sample_dataset(300, DensitySpec.SINUSOIDAL_1D, 0)
        model = NoiseModel(NoiseKind.HETEROSKEDASTIC, 40, sigma_out=0.2)
        narrow = add_noise(ds, model, seed=3)
        padded = add_noise(embedded_dataset(300, 40), model, seed=3)
        assert narrow.clean_points.shape == (300, 4)
        assert narrow.noisy_points.shape == (300, 40)
        assert np.array_equal(narrow.noisy_points, padded.noisy_points)
        assert np.array_equal(narrow.outlier_flags, padded.outlier_flags)
        assert np.array_equal(attenuation(narrow, 5e-4), attenuation(padded, 5e-4))
        assert cross_term_stats(narrow) == cross_term_stats(padded)


class TestDiagnostics:
    def test_attenuation(self):
        ds = embedded_dataset(100, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.3, 0.5), seed=9)
        eps = 5e-4
        att = attenuation(noisy, eps)
        xi = noisy.noisy_points - noisy.clean_points
        ref = np.exp(-np.sum(xi * xi, axis=1) / (4.0 * eps))
        assert np.allclose(att, ref, rtol=1e-12, atol=0.0)
        assert np.all(att[~noisy.outlier_flags] == 1.0)
        assert np.all(att[noisy.outlier_flags] < 1.0)
        with pytest.raises(ValueError):
            attenuation(ds, eps)

    def test_cross_term_oracle(self):
        ds = embedded_dataset(30, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.5, 0.5), seed=11)
        max_abs, frac = cross_term_stats(noisy)
        xc = noisy.clean_points
        xi = noisy.noisy_points - xc
        worst = 0.0
        for i in range(30):
            for j in range(30):
                if i == j:
                    continue
                r = (2.0 * np.dot(xc[i] - xc[j], xi[i] - xi[j])
                     - 2.0 * np.dot(xi[i], xi[j]))
                worst = max(worst, abs(r))
        assert np.isclose(max_abs, worst, rtol=1e-10)
        assert frac == 1.0 - noisy.outlier_flags.mean()

    def test_cross_term_decomposition(self):
        # r_ij closes the gap between noisy and clean squared distances
        ds = embedded_dataset(20, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.5, 0.8), seed=12)
        xc = noisy.clean_points
        x = noisy.noisy_points
        xi = x - xc
        sq = np.einsum("ij,ij->i", xi, xi)
        i, j = 3, 17
        r = (np.sum((x[i] - x[j]) ** 2) - np.sum((xc[i] - xc[j]) ** 2)
             - sq[i] - sq[j])
        r_formula = (2.0 * np.dot(xc[i] - xc[j], xi[i] - xi[j])
                     - 2.0 * np.dot(xi[i], xi[j]))
        assert np.isclose(r, r_formula, atol=1e-12)

    def test_cross_term_zero_noise(self):
        ds = embedded_dataset(25, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.0, 0.5), seed=13)
        max_abs, frac = cross_term_stats(noisy)
        assert max_abs == 0.0
        assert frac == 1.0 - noisy.outlier_flags.mean()
        with pytest.raises(ValueError):
            cross_term_stats(ds)
