"""Affinity construction and kernel moment checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

from sinklap import (
    Affinity,
    DensitySpec,
    NoiseKind,
    NoiseModel,
    build_affinity,
    degree,
    gaussian_kernel,
    kernel_moments,
    noisy_dataset,
    normalized_prefactor,
    sample_dataset,
)
from sinklap.kernel import _BLOCK


def pdist_kernel(pts, eps):
    """The reference: the kernel over scipy's full-width pdist distances,
    with its diagonal zeroed."""
    d2 = squareform(pdist(pts, "sqeuclidean"))
    ref = np.exp(-d2 / (4.0 * eps))
    np.fill_diagonal(ref, 0.0)
    return ref


def assert_matches_pdist(pts, eps):
    """build_affinity against ``pdist_kernel``.  Rows narrower than the
    widest are narrow, w is their largest width and the widest rows are
    wide; one-width clouds have no wide row.

    Narrow-narrow entries are bitwise equal to the reference.
    Narrow-wide entries are bitwise equal to the tail-norm formula, a
    w-column ``cdist`` plus the wide row's squares past w.  Summing that
    tail on its own reorders a sum of m non-negative terms, so d2 moves by
    at most 2 (m - 1) u d2 from pdist's.

    Wide-wide entries take d2 = c + (t_i + t_j) - 2 g_ij, with c the
    w-column distance, t the tail squares and g the tail dot product of
    rows a and b.  To first order (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3), with k = m - w tail columns, c errs by
    (w + 2) u c, each t by k u t, g by k u (t_i + t_j) / 2, and the three
    additions by u each of their results; with c <= d2, t <= ||row||^2
    and pdist's own (m + 2) u d2, d2 is within
    2 (m + 1) u (||a||^2 + ||b||^2) + 2 (m + 3) u d2 of pdist's.

    On either side the division adds u of d2 / (4 eps) and exp about one
    ulp.  Subnormal kernels get an absolute floor.  The matrix is also
    bitwise symmetric and at most 1, as d2 is clamped at 0.  Returns the
    number of entries with a wide row.
    """
    a = build_affinity(pts, eps).matrix
    assert np.array_equal(a, a.T) and a.max() <= 1.0
    ref = pdist_kernel(pts, eps)
    m = pts.shape[1]
    u = np.finfo(float).eps / 2
    tiny = np.finfo(float).tiny
    d2 = squareform(pdist(pts, "sqeuclidean"))
    nonzero = pts != 0
    width = np.where(nonzero.any(axis=1), m - np.argmax(nonzero[:, ::-1], axis=1), 0)
    wide = (width == width.max()) & (width > width.min())
    narrow, wide_rows = np.flatnonzero(~wide), np.flatnonzero(wide)
    w = int(width[narrow].max())

    assert np.array_equal(a[np.ix_(narrow, narrow)], ref[np.ix_(narrow, narrow)])

    cross = np.ix_(narrow, wide_rows)
    tail = np.einsum("ij,ij->i", pts[wide_rows, w:], pts[wide_rows, w:])
    tail_d2 = cdist(pts[narrow, :w], pts[wide_rows, :w], "sqeuclidean") + tail
    assert np.array_equal(a[cross], np.exp(-tail_d2 / (4.0 * eps)))
    bound = ref[cross] * (2 * (m + 1) * u * d2[cross] / (4.0 * eps) + 4 * u)
    assert np.all(np.abs(a[cross] - ref[cross]) <= bound + tiny)

    both = np.ix_(wide_rows, wide_rows)
    sq = np.einsum("ij,ij->i", pts[wide_rows], pts[wide_rows])
    delta = 2 * (m + 1) * u * (sq[:, None] + sq) + 2 * (m + 4) * u * d2[both]
    bound = ref[both] * (np.expm1(delta / (4.0 * eps)) + 4 * u)
    assert np.all(np.abs(a[both] - ref[both]) <= bound + tiny)
    return a.size - narrow.size**2


@st.composite
def padded_clouds(draw):
    """Point clouds whose rows are zero (or -0.0) past a per-row width.

    Up to 600 rows, so the distance blocks can number more than one;
    widths follow one of seven patterns.  "sorted" widths are
    non-decreasing.  "near_duplicate" makes about half the rows widest
    and a tiny step from one common row, so their d2 is far below their
    squared norms; "tiny_tail" scales every column past the second-largest
    width down by up to 1e-8.
    """
    n = draw(st.integers(2, 600))
    m = draw(st.integers(1, 13))
    pattern = draw(
        st.sampled_from(
            ["random", "equal", "one_wide", "zero", "sorted",
             "near_duplicate", "tiny_tail"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3.0, 3.0)
    if pattern == "equal":
        widths = np.full(n, rng.integers(0, m + 1))
    elif pattern == "one_wide":
        widths = rng.integers(0, m, size=n)
        widths[rng.integers(n)] = m
    elif pattern == "zero":
        widths = np.zeros(n, dtype=int)
    elif pattern == "sorted":
        widths = np.sort(rng.integers(0, m + 1, size=n))
    else:
        widths = rng.integers(0, m + 1, size=n)
    if pattern == "near_duplicate":
        widths[rng.random(n) < 0.5] = m
        dup = widths == m
        pts[dup] = pts[rng.integers(n)] + pts[dup] * 10.0 ** rng.uniform(-12.0, -4.0)
    pad = np.arange(m) >= widths[:, None]
    pts[pad] = 0.0
    if pattern == "tiny_tail":
        pts[:, np.unique(widths)[-2:][0] :] *= 10.0 ** rng.uniform(-8.0, -2.0)
    pts[pad & (rng.random((n, m)) < 0.5)] = -0.0
    pts[~pad & (rng.random((n, m)) < 0.05)] = -0.0
    return pts


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
        a = build_affinity(self.ds.points, 1e-3)
        assert np.array_equal(a.matrix, a.matrix.T)

    def test_entry_formula(self):
        a = build_affinity(self.ds.points, 1e-3)
        x = self.ds.points
        # spot-check a handful of entries against the scalar formula
        for i, j in [(0, 1), (3, 17), (20, 59)]:
            d2 = np.sum((x[i] - x[j]) ** 2)
            assert np.isclose(a.matrix[i, j], np.exp(-d2 / (4.0 * 1e-3)), rtol=1e-14)

    def test_normalized_prefactor_relation(self):
        eps = 2e-3
        kappa = normalized_prefactor(60, eps, 1)
        assert np.isclose(kappa, (4.0 * np.pi * eps) ** -0.5 / 60.0, rtol=1e-15)

    def test_zero_diag(self):
        a = build_affinity(self.ds.points, 1e-3)
        assert not np.diag(a.matrix).any()

    def test_higher_dim_prefactor(self):
        want = (4.0 * np.pi * 0.05) ** -1.5 / 30.0
        assert np.isclose(normalized_prefactor(30, 0.05, 3), want, rtol=1e-14)

    def test_identical_points(self):
        pts = np.zeros((3, 2))
        a = build_affinity(pts, 1e-2)
        assert np.array_equal(a.matrix, np.ones((3, 3)) - np.eye(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_affinity(self.ds.points[:1], 1e-3)
        with pytest.raises(ValueError):
            build_affinity(self.ds.points, -1e-3)

    def test_bitwise_out_of_place_formula(self):
        a = build_affinity(self.ds.points, 1e-3)
        assert np.array_equal(a.matrix, pdist_kernel(self.ds.points, 1e-3))

    def test_rejects_nan_point(self):
        pts = self.ds.points.copy()
        pts[5, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            build_affinity(pts, 1e-3)

    def test_rejects_inf_point(self):
        pts = self.ds.points.copy()
        pts[7, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            build_affinity(pts, 1e-3)

    def test_matrix_readonly(self):
        a = build_affinity(self.ds.points, 1e-3)
        with pytest.raises(ValueError):
            a.matrix[0, 0] = 1.0


class TestRowSupport:
    """Distances over row-support prefixes: pdist's bits within a width
    group, the tail-norm bound across groups."""

    @settings(max_examples=60, deadline=None)
    @given(padded_clouds(), st.sampled_from([1e-3, 0.3, 10.0]))
    def test_bitwise_pdist_reference(self, pts, eps):
        assert_matches_pdist(pts, eps)

    @pytest.mark.parametrize(
        "spec, kind",
        [
            (DensitySpec.SINUSOIDAL_1D, NoiseKind.SIMPLE),
            (DensitySpec.UNIFORM_CIRCLE, NoiseKind.HETEROSKEDASTIC),
        ],
    )
    def test_bitwise_on_noisy_dataset(self, spec, kind):
        ds = noisy_dataset(300, spec, NoiseModel(kind, m=200), 11)
        assert 0 < ds.outlier_flags.sum() < 300
        assert assert_matches_pdist(ds.points, 5e-4) > 0


class TestMemory:
    """build_affinity allocates the n x n result and block temporaries only."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: sample_dataset(1000, DensitySpec.SINUSOIDAL_1D, 5),
            lambda: noisy_dataset(
                1000,
                DensitySpec.UNIFORM_CIRCLE,
                NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000),
                5,
            ),
            # scattered outliers: most row blocks hold a few wide rows,
            # whose tails are copied per block for the Gram product
            lambda: noisy_dataset(
                1000,
                DensitySpec.SINUSOIDAL_1D,
                NoiseModel(NoiseKind.SIMPLE, m=2000),
                5,
            ),
            # nearly every row wide: each block pair copies two full blocks
            # of tails
            lambda: noisy_dataset(
                1000,
                DensitySpec.UNIFORM_CIRCLE,
                NoiseModel(NoiseKind.IID, m=2000),
                5,
            ),
        ],
        ids=["clean", "heteroskedastic", "simple", "iid"],
    )
    def test_peak_is_one_matrix(self, make):
        pts = make().points
        n, m = pts.shape
        bound = 8 * n * n + 8 * 2 * _BLOCK * (m + _BLOCK) + 2**20
        tracemalloc.start()
        try:
            build_affinity(pts, 5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


class TestDegree:
    def test_matches_row_sums(self):
        ds = sample_dataset(40, DensitySpec.UNIFORM_CIRCLE, 8)
        a = build_affinity(ds.points, 1e-3)
        assert np.array_equal(degree(a), a.matrix.sum(axis=1))
        assert np.array_equal(degree(a.matrix), degree(a))

    def test_identical_points_zero_diag(self):
        a = Affinity(matrix=np.ones((3, 3)) - np.eye(3), epsilon=1.0)
        assert np.array_equal(degree(a), np.full(3, 2.0))
