"""Affinity construction and kernel moment checks."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

from sinklap import (
    Affinity,
    Convention,
    DensitySpec,
    build_affinity,
    degree,
    gaussian_kernel,
    kernel_moments,
    normalized_prefactor,
    sample_dataset,
)


class TestGaussianKernel:
    def test_value_at_origin(self):
        assert gaussian_kernel(0.0, 2) == (4.0 * np.pi) ** -1.0

    def test_radial_decay(self):
        # xi is the squared radius; |u| = 2 gives exp(-1)
        want = (4.0 * np.pi) ** -1.5 * np.exp(-1.0)
        assert np.isclose(gaussian_kernel(4.0, 3), want, rtol=1e-14)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gaussian_kernel(-0.5, 1)


class TestMoments:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zeroth_and_second(self, d):
        m0, m2 = kernel_moments(d)
        assert abs(m0 - 1.0) < 1e-9
        assert abs(m2 - 2.0) < 1e-9


class TestBuildAffinity:
    def setup_method(self):
        self.ds = sample_dataset(60, DensitySpec.SINUSOIDAL_1D, 4)

    def test_bitwise_symmetry(self):
        a = build_affinity(self.ds.points, 1e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=False)
        assert np.array_equal(a.matrix, a.matrix.T)

    def test_entry_formula(self):
        a = build_affinity(self.ds.points, 1e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=False)
        x = self.ds.points
        # spot-check a handful of entries against the scalar formula
        for i, j in [(0, 1), (3, 17), (20, 59)]:
            d2 = np.sum((x[i] - x[j]) ** 2)
            assert np.isclose(a.matrix[i, j], np.exp(-d2 / (4.0 * 1e-3)), rtol=1e-14)

    def test_unscaled_unit_diagonal(self):
        a = build_affinity(self.ds.points, 2e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=False)
        assert np.array_equal(np.diag(a.matrix), np.ones(60))

    def test_normalized_prefactor_relation(self):
        eps = 2e-3
        u = build_affinity(self.ds.points, eps, 1,
                           convention=Convention.UNSCALED, zero_diag=False)
        n = build_affinity(self.ds.points, eps, 1,
                           convention=Convention.NORMALIZED, zero_diag=False)
        kappa = normalized_prefactor(60, eps, 1)
        assert np.isclose(kappa, (4.0 * np.pi * eps) ** -0.5 / 60.0, rtol=1e-15)
        assert np.array_equal(n.matrix, u.matrix * kappa)
        assert np.allclose(np.diag(n.matrix), kappa, rtol=1e-15)

    def test_zero_diag(self):
        a = build_affinity(self.ds.points, 1e-3, 1,
                           convention=Convention.NORMALIZED, zero_diag=True)
        assert not np.diag(a.matrix).any()
        assert a.zero_diag

    def test_higher_dim_prefactor(self):
        pts = np.random.default_rng(0).normal(size=(30, 3))
        n = build_affinity(pts, 0.05, 3,
                           convention=Convention.NORMALIZED, zero_diag=False)
        want = (4.0 * np.pi * 0.05) ** -1.5 / 30.0
        assert np.allclose(np.diag(n.matrix), want, rtol=1e-14)

    def test_identical_points(self):
        pts = np.zeros((3, 2))
        a = build_affinity(pts, 1e-2, 2,
                           convention=Convention.UNSCALED, zero_diag=False)
        assert np.array_equal(a.matrix, np.ones((3, 3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_affinity(self.ds.points[:1], 1e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=True)
        with pytest.raises(ValueError):
            build_affinity(self.ds.points, -1e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=True)

    def test_bitwise_out_of_place_formula(self):
        a = build_affinity(self.ds.points, 1e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=False)
        d2 = squareform(pdist(self.ds.points, "sqeuclidean"))
        assert np.array_equal(a.matrix, np.exp(-d2 / (4.0 * 1e-3)))

    def test_rejects_nan_point(self):
        pts = self.ds.points.copy()
        pts[5, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_affinity(pts, 1e-3, 1, convention=Convention.UNSCALED, zero_diag=True)

    def test_rejects_inf_point(self):
        pts = self.ds.points.copy()
        pts[7, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            build_affinity(pts, 1e-3, 1, convention=Convention.UNSCALED, zero_diag=True)

    def test_matrix_readonly(self):
        a = build_affinity(self.ds.points, 1e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=True)
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 1.0


class TestDegree:
    def test_matches_row_sums(self):
        ds = sample_dataset(40, DensitySpec.UNIFORM_CIRCLE, 8)
        a = build_affinity(ds.points, 1e-3, 1,
                           convention=Convention.UNSCALED, zero_diag=True)
        assert np.array_equal(degree(a), a.matrix.sum(axis=1))
        assert np.array_equal(degree(a.matrix), degree(a))

    def test_identical_points_zero_diag(self):
        a = Affinity(matrix=np.ones((3, 3)) - np.eye(3), epsilon=1.0,
                     intrinsic_dim=1, zero_diag=True,
                     convention=Convention.UNSCALED)
        assert np.array_equal(degree(a), np.full(3, 2.0))
