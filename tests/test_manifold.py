"""Geometry, density, and sampling checks against independent oracles."""

import numpy as np
import pytest
from scipy.integrate import quad, simpson

from sinklap import (
    Dataset,
    DensitySpec,
    circle_point,
    curve_point,
    delta_p_f,
    density,
    density_cdf,
    density_cdf_inverse,
    embed_ambient,
    read_dataset_csv,
    sample_dataset,
    write_dataset_csv,
)
from sinklap import test_function as f_obs

SIN = DensitySpec.SINUSOIDAL_1D
CIR = DensitySpec.UNIFORM_CIRCLE


class TestCurveGeometry:
    def test_curve_shape_and_norm(self):
        t = np.array([0.0, 0.25, 0.5, 0.7])
        x = curve_point(t)
        assert x.shape == (4, 4)
        # the curve lives on a torus of radii 1/(2*pi*sqrt(5)) in two planes
        r = 1.0 / (2.0 * np.pi * np.sqrt(5.0))
        assert np.allclose(np.hypot(x[:, 0], x[:, 1]), r, rtol=1e-14)
        assert np.allclose(np.hypot(x[:, 2], x[:, 3]), r, rtol=1e-14)

    def test_unit_speed_finite_difference(self):
        # arclength parametrization: |dx/dt| = 1 everywhere
        h = 1e-6
        for t0 in (0.137, 0.402, 0.651, 0.923):
            dx = curve_point(np.array([t0 + h])) - curve_point(np.array([t0 - h]))
            speed = np.linalg.norm(dx) / (2.0 * h)
            assert abs(speed - 1.0) < 1e-5

    def test_curve_closes(self):
        a = curve_point(np.array([0.0]))
        b = curve_point(np.array([1.0 - 1e-12]))
        assert np.linalg.norm(a - b) < 1e-10

    def test_antipodal_strand_gap(self):
        # strands half a period apart sit 1/(sqrt(5) pi) apart in ambient space
        t = np.linspace(0.0, 0.49, 25)
        gap = np.linalg.norm(curve_point(t) - curve_point(t + 0.5), axis=1)
        assert np.allclose(gap, 1.0 / (np.sqrt(5.0) * np.pi), rtol=1e-12)

    def test_circle_unit_circumference(self):
        t = np.array([0.1, 0.6])
        x = circle_point(t)
        assert x.shape == (2, 2)
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0 / (2.0 * np.pi), rtol=1e-14)
        h = 1e-6
        dx = circle_point(np.array([0.3 + h])) - circle_point(np.array([0.3 - h]))
        assert abs(np.linalg.norm(dx) / (2.0 * h) - 1.0) < 1e-5

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            curve_point(np.array([1.5]))
        with pytest.raises(ValueError):
            circle_point(np.array([-0.1]))


class TestDensity:
    def test_density_normalizes(self):
        # domain is the half-open interval; integrate up to 1 - 1e-9
        t = np.linspace(0.0, 1.0 - 1e-9, 20001)
        total = simpson(density(t, SIN), x=t)
        assert abs(total - 1.0) < 1e-7
        assert np.allclose(density(t, CIR), 1.0)
        with pytest.raises(ValueError):
            density(np.array([1.0]), SIN)

    def test_density_range(self):
        t = np.linspace(0.0, 1.0, 4001, endpoint=False)
        p = density(t, SIN)
        assert p.min() > 0.39
        assert p.max() < 1.61

    def test_cdf_against_quadrature(self):
        for t0 in (0.1, 1.0 / 6.0, 0.37, 0.88):
            ref, _ = quad(lambda s: density(np.array([s]), SIN)[0], 0.0, t0)
            assert abs(density_cdf(np.array([t0]), SIN)[0] - ref) < 1e-12

    def test_cdf_closed_form_value(self):
        # int_0^{1/6} (1 - 0.6 sin 6 pi s) ds = 1/6 - 0.2/pi
        got = density_cdf(np.array([1.0 / 6.0]), SIN)[0]
        assert abs(got - (1.0 / 6.0 - 0.2 / np.pi)) < 1e-15

    def test_cdf_endpoints(self):
        assert density_cdf(np.array([0.0]), SIN)[0] == 0.0
        assert abs(density_cdf(np.array([1.0]), SIN)[0] - 1.0) < 1e-14

    def test_inverse_roundtrip(self):
        u = np.linspace(0.0, 1.0, 101, endpoint=False)
        t = density_cdf_inverse(u, SIN)
        assert np.abs(density_cdf(t, SIN) - u).max() < 1e-10
        t2 = np.linspace(0.0, 0.999, 57)
        back = density_cdf_inverse(density_cdf(t2, SIN), SIN)
        assert np.abs(back - t2).max() < 1e-10

    def test_inverse_uniform_is_identity(self):
        u = np.array([0.0, 0.25, 0.9])
        assert np.allclose(density_cdf_inverse(u, CIR), u, atol=1e-12)


class TestOperator:
    def test_test_function_phase(self):
        # f(t) = sin(2 pi (t + 0.05))
        t = np.array([0.2, 0.45])
        assert np.allclose(f_obs(t), np.sin(2.0 * np.pi * (t + 0.05)), rtol=1e-15)

    def test_delta_p_f_exact_point(self):
        # at t = 0.2 the phase is pi/2 so f' = 0 and the drift term drops out
        got = delta_p_f(np.array([0.2]), SIN)[0]
        assert abs(got + 4.0 * np.pi * np.pi) < 1e-12

    def test_delta_p_f_finite_difference(self):
        # independent oracle: second difference of f plus drift with p' also
        # taken by central differences
        t = np.linspace(0.01, 0.99, 37)
        h = 1e-5
        f = f_obs
        fpp = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
        fp = (f(t + h) - f(t - h)) / (2.0 * h)
        pp = (density(t + h, SIN) - density(t - h, SIN)) / (2.0 * h)
        oracle = fpp + (pp / density(t, SIN)) * fp
        got = delta_p_f(t, SIN)
        scale = np.abs(oracle).max()
        assert np.abs(got - oracle).max() / scale < 1e-4

    def test_delta_p_f_uniform_drops_drift(self):
        t = np.linspace(0.01, 0.99, 19)
        got = delta_p_f(t, CIR)
        f = f_obs
        h = 1e-5
        fpp = (f(t + h) - 2.0 * f(t) + f(t - h)) / h**2
        assert np.abs(got - fpp).max() / np.abs(got).max() < 1e-4


class TestSampling:
    def test_deterministic(self):
        a = sample_dataset(64, SIN, 11)
        b = sample_dataset(64, SIN, 11)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.clean_points, b.clean_points)
        c = sample_dataset(64, SIN, 12)
        assert not np.array_equal(a.t, c.t)

    def test_histogram_matches_density(self):
        # 20-bin goodness of fit at a frozen seed
        ds = sample_dataset(200000, SIN, 0)
        edges = np.linspace(0.0, 1.0, 21)
        mass = np.diff(density_cdf(edges, SIN))
        cnt, _ = np.histogram(ds.t, bins=edges)
        rel = np.abs(cnt / 200000.0 - mass) / mass
        assert rel.max() < 0.05

    def test_points_consistent_with_t(self):
        ds = sample_dataset(40, SIN, 5)
        assert np.array_equal(ds.clean_points, curve_point(ds.t))
        dc = sample_dataset(40, CIR, 5)
        assert np.array_equal(dc.clean_points, circle_point(dc.t))

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample_dataset(0, SIN, 1)


class TestDataset:
    def test_readonly_and_props(self):
        ds = sample_dataset(10, SIN, 2)
        assert ds.n == 10
        assert ds.points is ds.clean_points
        with pytest.raises(ValueError):
            ds.t[0] = 0.5

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(t=np.zeros(3), clean_points=np.zeros((4, 2)))
        flags = np.zeros(3, dtype=bool)
        wide = Dataset(t=np.zeros(3), clean_points=np.zeros((3, 2)),
                       noisy_points=np.zeros((3, 5)), outlier_flags=flags)
        assert wide.points.shape == (3, 5)
        for bad in (np.zeros((3, 1)), np.zeros((4, 5)), np.zeros(3)):
            with pytest.raises(ValueError):
                Dataset(t=np.zeros(3), clean_points=np.zeros((3, 2)),
                        noisy_points=bad, outlier_flags=flags)

    def test_embed_ambient(self):
        ds = sample_dataset(12, SIN, 3)
        wide = embed_ambient(ds.clean_points, 9)
        assert wide.shape == (12, 9)
        assert np.array_equal(wide[:, :4], ds.clean_points)
        assert not wide[:, 4:].any()
        with pytest.raises(ValueError):
            embed_ambient(ds.clean_points, 3)


class TestCsv:
    def test_roundtrip_clean(self, tmp_path):
        ds = sample_dataset(25, SIN, 9)
        path = tmp_path / "d.csv"
        write_dataset_csv(ds, path)
        back = read_dataset_csv(path)
        assert np.array_equal(back.t, ds.t)
        assert np.array_equal(back.points, ds.clean_points)
        assert back.outlier_flags is None

    def test_rewrite_identical(self, tmp_path):
        ds = sample_dataset(25, SIN, 9)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        write_dataset_csv(ds, p1)
        write_dataset_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()
