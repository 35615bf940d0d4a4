"""Outlier noise models and the distance decomposition diagnostics."""

import dataclasses
import tracemalloc

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
from sinklap._rng import make_rng, normals_in_place


def embedded_dataset(n, m, spec=DensitySpec.SINUSOIDAL_1D, seed=0):
    ds = sample_dataset(n, spec, seed)
    return Dataset(t=ds.t, clean_points=embed_ambient(ds.points, m), seed=seed)


class TestAddNoise:
    def test_deterministic(self):
        ds = embedded_dataset(200, 8)
        model = NoiseModel(NoiseKind.HETEROSKEDASTIC, 8, sigma_out=0.2)
        a = add_noise(ds, model, seed=5)
        b = add_noise(ds, model, seed=5)
        assert np.array_equal(a.outlier_offsets, b.outlier_offsets)
        assert np.array_equal(a.outlier_flags, b.outlier_flags)
        c = add_noise(ds, model, seed=6)
        assert not np.array_equal(a.points, c.points)

    def test_inliers_untouched(self):
        ds = embedded_dataset(500, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.3, 0.4), seed=1)
        inl = ~noisy.outlier_flags
        # only the outliers' xi are stored, one per flag in row order
        assert noisy.outlier_offsets.shape == ((~inl).sum(), 8)
        assert np.all(noisy.outlier_offsets != 0)
        assert np.array_equal(noisy.points[inl], ds.clean_points[inl])
        assert np.array_equal(noisy.points[~inl],
                              ds.clean_points[~inl] + noisy.outlier_offsets)
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
        xi = noisy.points - noisy.clean_points
        sq = np.einsum("ij,ij->i", xi, xi)[noisy.outlier_flags]
        assert abs(sq.mean() / sigma**2 - 1.0) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.SIMPLE, 3)
        with pytest.raises(ValueError):
            NoiseModel(NoiseKind.SIMPLE, 8, p_out=1.0)
        with pytest.raises(ValueError, match="^m must be an integer >= 4$"):
            NoiseModel(NoiseKind.SIMPLE, m=4.5)
        # a string kind would match none of add_noise's identity tests and
        # fall through to the IID branch
        with pytest.raises(ValueError, match="^unknown noise kind: 'simple'$"):
            NoiseModel("simple", m=8)
        for sigma in (-0.1, np.nan, np.inf, "0.1", None, True):
            with pytest.raises(ValueError, match="^sigma_out must be finite and >= 0$"):
                NoiseModel(NoiseKind.SIMPLE, 8, sigma_out=sigma)
        for p_out in (-0.1, 1.0, np.nan, "0.1", None):
            with pytest.raises(ValueError, match=r"^p_out must lie in \[0, 1\)$"):
                NoiseModel(NoiseKind.SIMPLE, 8, p_out=p_out)
        ds = embedded_dataset(50, 8)
        with pytest.raises(ValueError, match="wider"):
            add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 4), seed=0)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8), seed=0)
        with pytest.raises(ValueError, match="^dataset already carries noise$"):
            add_noise(noisy, NoiseModel(NoiseKind.SIMPLE, 8), seed=0)
        # a dataset that drew no outlier is noised from its clean rows
        model = NoiseModel(NoiseKind.SIMPLE, 8, p_out=0.5)
        drew_none = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, p_out=0.0), seed=0)
        again = add_noise(drew_none, model, seed=1)
        once = add_noise(ds, model, seed=1)
        assert again.outlier_flags.any()
        assert np.array_equal(again.outlier_flags, once.outlier_flags)
        assert np.array_equal(again.outlier_offsets, once.outlier_offsets)

    def test_model_is_frozen(self):
        # a field set after the checks would skip them: add_noise reads any
        # kind it does not know as IID, and a negative sigma_out as a scale
        model = NoiseModel(NoiseKind.SIMPLE, 10)
        for name, value in (("kind", "bogus"), ("m", 3), ("sigma_out", -1.0),
                            ("p_out", 2.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, name, value)
        assert model == NoiseModel(NoiseKind.SIMPLE, 10)

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
        xi = []
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
            xi.append((0.2 * np.sqrt(gam) / np.sqrt(m)) * normals_in_place(rng.random(m)))
            points[i] += xi[-1]
        noisy = add_noise(ds, model, seed)
        assert 0 < flags.sum() < n
        assert np.array_equal(noisy.outlier_flags, flags)
        # xi is bitwise the stream's scaled normals, points their sum with x^c
        assert np.array_equal(noisy.outlier_offsets, np.array(xi))
        assert np.array_equal(noisy.points, points)

    def test_narrow_clean_points_padded(self):
        # clean points narrower than m give the noise of their padded copy,
        # bit for bit, and are kept at their own width
        ds = sample_dataset(300, DensitySpec.SINUSOIDAL_1D, 0)
        model = NoiseModel(NoiseKind.HETEROSKEDASTIC, 40, sigma_out=0.2)
        narrow = add_noise(ds, model, seed=3)
        padded = add_noise(embedded_dataset(300, 40), model, seed=3)
        assert narrow.clean_points.shape == (300, 4)
        assert narrow.outlier_offsets.shape == (narrow.outlier_flags.sum(), 40)
        assert np.array_equal(narrow.outlier_offsets, padded.outlier_offsets)
        assert np.array_equal(narrow.points, padded.points)
        assert np.array_equal(narrow.outlier_flags, padded.outlier_flags)
        assert np.array_equal(attenuation(narrow, 5e-4), attenuation(padded, 5e-4))
        assert cross_term_stats(narrow) == cross_term_stats(padded)


class TestDiagnostics:
    def test_attenuation(self):
        ds = embedded_dataset(100, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.3, 0.5), seed=9)
        eps = 5e-4
        att = attenuation(noisy, eps)
        xi = noisy.points - noisy.clean_points
        ref = np.exp(-np.sum(xi * xi, axis=1) / (4.0 * eps))
        assert np.allclose(att, ref, rtol=1e-12, atol=0.0)
        # read from xi in place, bitwise the formula on all n rows' xi
        xi = np.zeros((100, 8))
        xi[noisy.outlier_flags] = noisy.outlier_offsets
        assert np.array_equal(att, np.exp(-np.einsum("ij,ij->i", xi, xi) / (4.0 * eps)))
        assert np.all(att[~noisy.outlier_flags] == 1.0)
        assert np.all(att[noisy.outlier_flags] < 1.0)
        # a clean dataset has no outlier: every sample gets exactly 1
        assert np.array_equal(attenuation(ds, eps), np.ones(100))
        for bad in (np.nan, np.inf, -1.0, 0.0):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                attenuation(noisy, bad)

    def test_cross_term_oracle(self):
        ds = embedded_dataset(30, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.5, 0.5), seed=11)
        max_abs, frac = cross_term_stats(noisy)
        xc = noisy.clean_points
        xi = noisy.points - xc
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
        x = noisy.points
        xi = x - xc
        sq = np.einsum("ij,ij->i", xi, xi)
        i, j = 3, 17
        r = (np.sum((x[i] - x[j]) ** 2) - np.sum((xc[i] - xc[j]) ** 2)
             - sq[i] - sq[j])
        r_formula = (2.0 * np.dot(xc[i] - xc[j], xi[i] - xi[j])
                     - 2.0 * np.dot(xi[i], xi[j]))
        assert np.isclose(r, r_formula, atol=1e-12)

    def test_no_outlier_drawn(self):
        # p_out = 0 draws no outlier: (0, m) noise vectors, no attenuation
        # and no cross term
        ds = embedded_dataset(50, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.3, 0.0), seed=14)
        assert noisy.outlier_offsets.shape == (0, 8)
        assert np.array_equal(attenuation(noisy, 5e-4), np.ones(50))
        assert cross_term_stats(noisy) == (0.0, 1.0)

    def test_cross_term_memory(self):
        # r is formed on the (n, n_out) pairs with an outlier only, from
        # xi read in place: the peak is a few (n, n_out) arrays and 1 MiB,
        # where xi alone is 1.8 MB, the n x m cloud 16 MB and n x n 8 MB
        n, m = 1000, 2000
        ds = sample_dataset(n, DensitySpec.SINUSOIDAL_1D, 0)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, m), seed=0)
        n_out = int(noisy.outlier_flags.sum())
        tracemalloc.start()
        try:
            cross_term_stats(noisy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 3 * 8 * n * n_out + 2**20
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"

    def test_attenuation_memory(self):
        # the squared norms of xi, read in place: a few length-n vectors
        n, m = 1000, 2000
        ds = sample_dataset(n, DensitySpec.SINUSOIDAL_1D, 0)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, m), seed=0)
        tracemalloc.start()
        try:
            attenuation(noisy, 5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = 8 * n + 2**20
        assert peak <= bound, f"peak {peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"

    def test_cross_term_zero_noise(self):
        ds = embedded_dataset(25, 8)
        noisy = add_noise(ds, NoiseModel(NoiseKind.SIMPLE, 8, 0.0, 0.5), seed=13)
        max_abs, frac = cross_term_stats(noisy)
        assert max_abs == 0.0
        assert frac == 1.0 - noisy.outlier_flags.mean()
        # a clean dataset has no cross term and only inliers
        assert cross_term_stats(ds) == (0.0, 1.0)
