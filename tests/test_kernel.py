"""Affinity construction and kernel moment checks."""

import copy
import ctypes
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist, pdist, squareform

import sinklap.kernel
import sinklap.laplacian
import sinklap.sinkhorn
from sinklap import (
    Affinity,
    Dataset,
    DensitySpec,
    LaplacianKind,
    NoiseKind,
    NoiseModel,
    approx_sym_sk,
    build_affinity,
    dm_scale,
    embed_ambient,
    embedding_experiment,
    epsilon_sweep,
    gaussian_kernel,
    kernel_moments,
    noisy_dataset,
    normalized_prefactor,
    pointwise_experiment,
    sample_dataset,
)
from sinklap.kernel import _BLOCK, _TILE, _matvec, _stored, _stored_size


def pdist_kernel(pts, eps):
    """The reference: the kernel over scipy's full-width pdist distances,
    with its diagonal zeroed."""
    d2 = squareform(pdist(pts, "sqeuclidean"))
    ref = np.exp(-d2 / (4.0 * eps))
    np.fill_diagonal(ref, 0.0)
    return ref


def stored(ref):
    """The storage rule applied to a float64 zero-diagonal kernel: its
    float32 rounding when every off-diagonal entry is at least float32's
    smallest normal, else the kernel itself."""
    off = ref[~np.eye(ref.shape[0], dtype=bool)]
    return ref.astype(np.float32) if off.min() >= np.finfo(np.float32).tiny else ref


def assert_matches_pdist(pts, eps):
    """build_affinity on an array against ``pdist_kernel``: an array is
    one cloud, so A is bitwise the stored reference (``stored``), float32
    exactly when the reference's off-diagonal entries are float32
    normals.  A is also bitwise symmetric, non-negative and at most 1;
    the first two are why ``Affinity`` need not check it."""
    a = build_affinity(pts, eps).dense()
    assert np.array_equal(a, a.T) and a.min() >= 0.0 and a.max() <= 1.0
    ref = stored(pdist_kernel(pts, eps))
    assert a.dtype == ref.dtype
    assert np.array_equal(a, ref)


def assert_matches_split(ds, eps):
    """build_affinity on a dataset against ``pdist_kernel`` of its
    points, split as the dataset declares it: its inliers, its outliers
    and k, the width of its clean rows.

    A is stored as diag(w) B diag(w), w_i = exp(-t_i / (4 eps)) with t_i
    outlier i's squares past column k (0 for an inlier), and B the
    kernel of d2 - t_i - t_j.  B is float32 exactly when every w_i and
    every off-diagonal entry of that B is a float32 normal; otherwise
    it is A itself in float64, with w = 1.  Inlier-inlier entries are
    bitwise the reference rounded to B's dtype.  Inlier-outlier entries
    are bitwise the stored tail-norm formula: w_j times the kernel of
    the k-column ``cdist`` in float32, the kernel of that ``cdist`` plus
    the outlier's squares past column k in float64.  Summing that tail
    on its own reorders a sum of m non-negative terms, so d2 moves by at
    most 2 (m - 1) u d2 from pdist's.

    Outlier-outlier entries take d2 = c + (t_i + t_j) - 2 g_ij, with c
    the k-column distance, t the tail squares and g the tail dot product
    of rows a and b.  To first order (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3), with m - k tail columns, c errs by
    (k + 2) u c, each t by (m - k) u t, g by (m - k) u (t_i + t_j) / 2,
    and the three additions by u each of their results; with c <= d2,
    t <= ||row||^2 and pdist's own (m + 2) u d2, d2 is within
    2 (m + 1) u (||a||^2 + ||b||^2) + 2 (m + 3) u d2 of pdist's.

    On either side the division adds u of d2 / (4 eps) and exp about one
    ulp.  A float32 B rounds that entry once more, by at most
    u32 = 2^-24 of it, and w_i B_ij w_j divides and exponentiates three
    exponents apart, u (|c - 2 g| + t_i + t_j) / (4 eps) relative, with
    about one ulp for each exp and each product: 6 u.  Subnormal
    kernels get an absolute floor.  The matrix is also bitwise
    symmetric and non-negative, and at most 1, as d2 is clamped at 0;
    in float32, where two coincident outliers' B_ij is the rounding of
    1 / (w_i w_j), at most 1 + 2 u32.  Returns the number of entries
    with an outlier.
    """
    aff = build_affinity(ds, eps)
    a, weights = aff.dense(), aff.weights
    single = aff.data.dtype == np.float32
    # the float32 rounding of a float32 B; none in a float64 A
    u_store = np.finfo(np.float32).eps / 2 if single else 0.0
    assert np.array_equal(a, a.T) and a.min() >= 0.0 and a.max() <= 1.0 + 2 * u_store
    pts = ds.points
    # pdist_kernel's reference, from distances computed once
    d2 = squareform(pdist(pts, "sqeuclidean"))
    ref = np.exp(-d2 / (4.0 * eps))
    np.fill_diagonal(ref, 0.0)
    n, m = pts.shape
    k = ds.clean_points.shape[1]
    inliers, outliers = np.flatnonzero(~ds.outlier_flags), np.flatnonzero(ds.outlier_flags)
    u = np.finfo(float).eps / 2
    tiny = np.finfo(float).tiny

    # the storage rule, read off the reference split
    t = np.einsum("ij,ij->i", pts[:, k:], pts[:, k:])
    w = np.exp(t / (-4.0 * eps))
    with np.errstate(over="ignore"):
        b = np.exp(-(d2 - t[:, None] - t) / (4.0 * eps))[~np.eye(n, dtype=bool)]
    info = np.finfo(np.float32)
    assert single == (w.min() >= info.tiny and info.tiny <= b.min() and b.max() <= info.max)
    assert np.array_equal(weights, w if single else np.ones(n))
    # the split's exponents rounded apart, where B is factored
    split = np.zeros((n, n))
    if single:
        split += u * (np.abs(d2 - t[:, None] - t) + t[:, None] + t) / (4.0 * eps) + 6 * u

    dtype = aff.data.dtype
    assert np.array_equal(a[np.ix_(inliers, inliers)],
                          ref[np.ix_(inliers, inliers)].astype(dtype))

    cross = np.ix_(inliers, outliers)
    tail_d2 = cdist(pts[inliers, :k], pts[outliers, :k], "sqeuclidean")
    if not single:
        tail_d2 += t[outliers]
    want = (weights[inliers, None] * weights[outliers]) * np.exp(-tail_d2 / (4.0 * eps)).astype(dtype)
    assert np.array_equal(a[cross], want)
    bound = ref[cross] * (2 * (m + 1) * u * d2[cross] / (4.0 * eps) + 4 * u + split[cross])
    bound += u_store * (ref[cross] + bound)
    assert np.all(np.abs(a[cross] - ref[cross]) <= bound + tiny)

    both = np.ix_(outliers, outliers)
    sq = np.einsum("ij,ij->i", pts[outliers], pts[outliers])
    delta = 2 * (m + 1) * u * (sq[:, None] + sq) + 2 * (m + 4) * u * d2[both]
    bound = ref[both] * (np.expm1(delta / (4.0 * eps)) + 4 * u + split[both])
    bound += u_store * (ref[both] + bound)
    assert np.all(np.abs(a[both] - ref[both]) <= bound + tiny)
    return a.size - inliers.size**2


def dense_path_kernel(ds, eps):
    """A dataset's kernel as the dense n x n build made it, the reference
    for the packed triangle: upper tiles written with their mirrors, the
    outlier tails' Gram product symmetrized on diagonal tiles, and the
    same storage rule, so the result is (w, B).  The split is the
    dataset's: its first k columns, k its clean width, and its outliers'
    tails past them.  B leaves the tails' squares t out, clamped where
    d2 is, and is float32 with w = exp(-t / (4 eps)) when float32 holds
    every w_i and every off-diagonal entry of B as a normal number;
    otherwise B is A in float64 and w = 1."""
    pts = ds.points
    n, k = ds.clean_points.shape
    outlier = ds.outlier_flags
    tail = np.einsum("ij,ij->i", pts[:, k:], pts[:, k:])
    weights = np.exp(tail / (-4.0 * eps))
    info = np.finfo(np.float32)
    for single in (True, False):
        mat = np.empty((n, n))
        for a in range(0, n, _TILE):
            rows = slice(a, a + _TILE)
            out_rows = np.flatnonzero(outlier[rows])
            tail_rows = pts[rows][out_rows, k:]
            for b in range(a, n, _TILE):
                cols = slice(b, b + _TILE)
                out_cols = np.flatnonzero(outlier[cols])
                block = cdist(pts[rows, :k], pts[cols, :k], "sqeuclidean")
                if not single:
                    block += tail[rows, None] + tail[cols]
                gram = tail_rows @ (tail_rows if a == b else pts[cols][out_cols, k:]).T
                block[np.ix_(out_rows, out_cols)] -= gram + gram.T if a == b else 2.0 * gram
                low = -(tail[rows, None] + tail[cols]) if single else 0.0
                with np.errstate(over="ignore"):
                    mat[rows, cols] = np.exp(-np.maximum(block, low) / (4.0 * eps))
                mat[cols, rows] = mat[rows, cols].T
        np.fill_diagonal(mat, 0.0)
        if not single:
            return np.ones(n), mat
        off = mat[~np.eye(n, dtype=bool)]
        if weights.min() >= info.tiny and info.tiny <= off.min() and off.max() <= info.max:
            return weights, mat.astype(np.float32)


def stored_matrix(a):
    """B of a stored kernel A = diag(w) B diag(w), as a dense array."""
    return _stored(a.data, np.ones(a.n), a.epsilon).dense()


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


@st.composite
def noisy_datasets(draw):
    """Noisy datasets, their outliers as ``Dataset`` declares them.

    Up to 600 samples, so the distance blocks can number more than one,
    with k <= 6 clean columns, each clean row zero (or -0.0) past its
    own width, observed in R^m with m <= 13.  An outlier's noise vector
    xi fills its first reach columns, so an outlier's nonzero columns
    can end before some inliers' do.  Seven patterns:
    "random" draws the outliers and their reaches, "equal" gives every
    outlier one reach, "one_outlier" makes one outlier reaching R^m,
    "zero_noise" puts every outlier at its clean row, "sorted" puts the
    outliers last, "near_duplicate" makes about half the samples
    outliers a tiny step from one common row, so their d2 is far below
    their squared norms, and "tiny_tail" scales the outliers' columns
    past k down by up to 1e-8.
    """
    n = draw(st.integers(2, 600))
    k = draw(st.integers(1, 6))
    m = draw(st.integers(k, 13))
    pattern = draw(
        st.sampled_from(
            ["random", "equal", "one_outlier", "zero_noise", "sorted",
             "near_duplicate", "tiny_tail"]
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    clean = rng.normal(size=(n, k)) * scale
    clean[np.arange(k) >= rng.integers(0, k + 1, size=(n, 1))] = 0.0
    flags = rng.random(n) < rng.uniform()
    reach = rng.integers(0, m + 1, size=n)
    if pattern == "equal":
        reach[:] = rng.integers(0, m + 1)
    elif pattern == "one_outlier":
        flags = np.arange(n) == rng.integers(n)
        reach[:] = m
    elif pattern == "zero_noise":
        reach[:] = 0
    elif pattern == "sorted":
        flags = np.arange(n) >= rng.integers(0, n + 1)
    elif pattern == "near_duplicate":
        flags = rng.random(n) < 0.5
    xi = rng.normal(size=(int(flags.sum()), m)) * scale
    xi[np.arange(m) >= reach[flags][:, None]] = 0.0
    if pattern == "near_duplicate":
        rows = rng.normal(size=m) * scale + xi * 10.0 ** rng.uniform(-12.0, -4.0)
        xi = rows - embed_ambient(clean[flags], m)
    if pattern == "tiny_tail":
        xi[:, k:] *= 10.0 ** rng.uniform(-8.0, -2.0)
    for part in (clean, xi):
        part[(part == 0.0) & (rng.random(part.shape) < 0.5)] = -0.0
        part[rng.random(part.shape) < 0.05] = -0.0
    return Dataset(t=np.zeros(n), clean_points=clean, outlier_flags=flags,
                   outlier_offsets=xi)


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
        # xi is a finite real number and d a dimension, by the errors rules
        for xi in (np.nan, np.inf, "1", None, [0.0, -1.0]):
            with pytest.raises(ValueError, match="^xi must be finite and >= 0$"):
                gaussian_kernel(xi, 1)
        for d in (0, -2, 1.5, True):
            with pytest.raises(ValueError, match=r"^d must be an integer >= 1$"):
                gaussian_kernel(1.0, d)


class TestMoments:
    # past d = 3 the integrand's peak, at r = sqrt(2 (d - 1)), moves out
    # toward any fixed cutoff, and past d ~ 340 Gamma(d/2) and r^(d-1)
    # overflow on their own
    @pytest.mark.parametrize("d", [1, 2, 3, 30, 60, 100, 300, 1000])
    def test_zeroth_and_second(self, d):
        m0, m2 = kernel_moments(d)
        assert abs(m0 - 1.0) < 1e-9
        assert abs(m2 - 2.0) < 1e-9

    def test_import_leaves_quadrature_out(self):
        # only the moments integrate, so importing the package skips
        # scipy.integrate and its import time
        src = str(Path(sinklap.kernel.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, sinklap; print('scipy.integrate' in sys.modules)"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestBuildAffinity:
    def setup_method(self):
        self.ds = sample_dataset(60, DensitySpec.SINUSOIDAL_1D, 4)

    def test_bitwise_symmetry(self):
        # one stored triangle, so an entry and its mirror are one number;
        # n = 60 is one block row, its diagonal tile stored whole
        a = build_affinity(self.ds.points, 1e-3)
        assert a.data.shape == (60 * 60,)
        assert np.array_equal(a.dense(), a.dense().T)

    def test_entry_formula(self):
        a = build_affinity(self.ds.points, 1e-3).dense()
        x = self.ds.points
        # spot-check a handful of entries against the scalar formula
        for i, j in [(0, 1), (3, 17), (20, 59)]:
            d2 = np.sum((x[i] - x[j]) ** 2)
            assert np.isclose(a[i, j], np.exp(-d2 / (4.0 * 1e-3)), rtol=1e-14)

    def test_normalized_prefactor_relation(self):
        eps = 2e-3
        kappa = normalized_prefactor(60, eps, 1)
        assert np.isclose(kappa, (4.0 * np.pi * eps) ** -0.5 / 60.0, rtol=1e-15)

    @pytest.mark.parametrize(
        "n, eps, d, message",
        [
            (10, -1.0, 1, "epsilon must be positive and finite"),
            (10, 0.0, 1, "epsilon must be positive and finite"),
            (10, np.nan, 1, "epsilon must be positive and finite"),
            (10, np.inf, 1, "epsilon must be positive and finite"),
            (0, 1e-3, 1, "n must be an integer >= 1"),
            (10, 1e-3, 0, "d must be an integer >= 1"),
            (10, None, 1, "epsilon must be positive and finite"),
            (10, "5e-4", 1, "epsilon must be positive and finite"),
        ],
        ids=["negative-eps", "zero-eps", "nan-eps", "inf-eps", "zero-n", "zero-d",
             "none-eps", "str-eps"],
    )
    def test_normalized_prefactor_rejects(self, n, eps, d, message):
        with pytest.raises(ValueError, match=message):
            normalized_prefactor(n, eps, d)

    def test_zero_diag(self):
        a = build_affinity(self.ds.points, 1e-3)
        assert not np.diag(a.dense()).any()

    def test_higher_dim_prefactor(self):
        want = (4.0 * np.pi * 0.05) ** -1.5 / 30.0
        assert np.isclose(normalized_prefactor(30, 0.05, 3), want, rtol=1e-14)

    def test_identical_points(self):
        pts = np.zeros((3, 2))
        a = build_affinity(pts, 1e-2)
        assert np.array_equal(a.dense(), np.ones((3, 3)) - np.eye(3))

    def test_validation(self):
        with pytest.raises(ValueError):
            build_affinity(self.ds.points[:1], 1e-3)
        with pytest.raises(ValueError):
            build_affinity(self.ds.points, -1e-3)
        # an epsilon that is not a number fails by name, not in numpy
        for eps in ("5e-4", None, True):
            with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
                build_affinity(self.ds.points, eps)
        # columnless points are named, not left to numpy's argmax
        with pytest.raises(ValueError, match=r"with n >= 2 and m >= 1$"):
            build_affinity(np.zeros((5, 0)), 1.0)

    def test_bitwise_out_of_place_formula(self):
        # float32 holds this kernel, so A is the float32 rounding of pdist's
        a = build_affinity(self.ds.points, 1e-3)
        assert a.data.dtype == np.float32
        assert np.array_equal(a.dense(), stored(pdist_kernel(self.ds.points, 1e-3)))

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
            a.data[0] = 1.0


class TestInvariant:
    """Affinity owns the square, non-empty, finite, symmetric, non-negative
    kernel: it checks outside data once, at construction, on its own
    copy; build_affinity's matrix holds the invariant by construction and
    is not checked."""

    @staticmethod
    def kernel(seed):
        """A symmetric positive 600 x 600 matrix: three 256-row tiles."""
        a = np.random.default_rng(seed).uniform(0.1, 2.0, size=(600, 600))
        return (a + a.T) / 2.0

    def test_one_asymmetric_entry(self):
        a = self.kernel(8)
        a[599, 3] = np.nextafter(a[599, 3], 3.0)
        with pytest.raises(ValueError, match="matrix must be symmetric"):
            Affinity(a, 1.0)

    def test_nan_pair(self):
        a = self.kernel(9)
        a[10, 400] = a[400, 10] = np.nan
        with pytest.raises(ValueError, match="matrix must be finite"):
            Affinity(a, 1.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_pair(self, value):
        # unnamed, a symmetric infinite pair would fail inside SK, as a
        # non-finite residual at iteration 1
        with pytest.raises(ValueError, match="matrix must be finite"):
            approx_sym_sk(np.array([[0.0, value], [value, 0.0]]))
        a = self.kernel(15).astype(np.float32)
        a[300, 580] = a[580, 300] = value
        with pytest.raises(ValueError, match="matrix must be finite"):
            Affinity(a, 1.0)

    def test_negative_pair(self):
        # past the first 256-row tile, so the sign check must reach it
        a = self.kernel(10)
        a[300, 580] = a[580, 300] = -1e-3
        with pytest.raises(ValueError, match="matrix must be non-negative"):
            Affinity(a, 1.0)

    def test_asymmetry_reported_before_sign(self):
        # a negative pair in an early tile, the asymmetry in a later one
        a = self.kernel(11)
        a[5, 300] = a[300, 5] = -1e-3
        a[599, 400] = -1.0
        with pytest.raises(ValueError, match="matrix must be symmetric"):
            Affinity(a, 1.0)

    def test_nonsquare(self):
        with pytest.raises(ValueError, match="matrix must be square"):
            Affinity(np.ones((2, 3)), 1.0)

    def test_empty(self):
        # named here, not by numpy's reduction over no entries
        with pytest.raises(ValueError, match="^matrix must be non-empty$"):
            Affinity(np.zeros((0, 0)), 1.0)
        for scale in (approx_sym_sk, dm_scale):
            with pytest.raises(ValueError, match="^matrix must be non-empty$"):
                scale(np.zeros((0, 0)))

    @pytest.mark.parametrize("eps", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_epsilon_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            Affinity(np.ones((2, 2)), eps)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            build_affinity(np.eye(3), eps)

    def test_owns_its_matrix(self):
        a = self.kernel(12)
        aff = Affinity(a, 1.0)
        kept = aff.dense()
        a[0, 1] = a[1, 0] = -1.0
        assert np.array_equal(aff.dense(), kept)
        assert a.flags.writeable and not aff.data.flags.writeable

    def test_outside_dtype(self):
        # a float32 kernel stays float32; anything else becomes float64
        a = self.kernel(14)
        assert Affinity(a.astype(np.float32), 1.0).data.dtype == np.float32
        assert Affinity(a, 1.0).data.dtype == np.float64
        assert Affinity(np.ones((2, 2), dtype=int), 1.0).data.dtype == np.float64

    def test_checked_once_per_outside_kernel(self, monkeypatch):
        calls = []
        check = sinklap.kernel._checked_kernel
        monkeypatch.setattr(
            sinklap.kernel, "_checked_kernel", lambda a: calls.append(1) or check(a)
        )
        noise = NoiseModel(NoiseKind.SIMPLE, m=8)
        for kind in LaplacianKind:
            pointwise_experiment(80, DensitySpec.SINUSOIDAL_1D, 2e-3, kind,
                                 noise_model=noise, seed=1)
        epsilon_sweep(60, DensitySpec.SINUSOIDAL_1D, [1e-3, 2e-3], 2,
                      LaplacianKind.BISTOCH_UN, threads=2)
        embedding_experiment(60, noise, 2e-3, replicas=2, threads=2)
        assert calls == []
        dm_scale(build_affinity(np.eye(3), 1.0))
        assert calls == []
        approx_sym_sk(self.kernel(13))
        assert len(calls) == 1
        dm_scale(self.kernel(13))
        assert len(calls) == 2


class TestRowSupport:
    """An array is one cloud with pdist's bits, whatever its rows' zeros;
    a dataset is split on its outlier flags (``assert_matches_split``)."""

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
        assert assert_matches_split(ds, 5e-4) > 0

    @pytest.mark.parametrize("kind", [NoiseKind.HETEROSKEDASTIC, NoiseKind.IID])
    def test_noisy_array_is_pdist(self, kind):
        # the same noise passed as an (n, m) array declares no outliers,
        # so every pair is one m-column cdist, bitwise pdist's
        ds = noisy_dataset(300, DensitySpec.UNIFORM_CIRCLE, NoiseModel(kind, m=200), 11)
        assert ds.outlier_flags.sum() > 0
        assert_matches_pdist(ds.points, 5e-4)


class TestStorage:
    """A = diag(w) B diag(w) is stored with a float32 B exactly when
    float32 holds every w_i and every entry of B as a normal number;
    otherwise the block loop restarts into the float64 A, w = 1."""

    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    def test_clean_is_float32(self, eps):
        # the ends of the clean sweep's bandwidth grid
        pts = sample_dataset(400, DensitySpec.SINUSOIDAL_1D, 3).points
        assert build_affinity(pts, eps).data.dtype == np.float32
        assert_matches_pdist(pts, eps)

    def test_simple_noise_is_float32(self):
        noise = NoiseModel(NoiseKind.SIMPLE, m=2000)
        ds = noisy_dataset(400, DensitySpec.SINUSOIDAL_1D, noise, 3)
        assert build_affinity(ds, 5e-4).data.dtype == np.float32
        assert assert_matches_split(ds, 5e-4) > 0

    def test_heteroskedastic_is_float32(self):
        # the far outliers' factors w_i hold A's magnitude, down to about
        # exp(-129) here, and B is float32: half a float64 A's bytes
        noise = NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000)
        ds = noisy_dataset(2000, DensitySpec.UNIFORM_CIRCLE, noise, 3)
        a = build_affinity(ds, 5e-4)
        assert a.data.dtype == np.float32
        assert a.data.nbytes == 4 * _stored_size(2000)
        assert a.weights.min() < np.finfo(np.float32).tiny ** 0.5
        assert assert_matches_split(noisy_dataset(400, DensitySpec.UNIFORM_CIRCLE, noise, 3),
                                    5e-4) > 0

    def test_heteroskedastic_is_float64(self):
        # at sigma_out = 1 the far outliers' w_i fall below float32's
        # smallest normal, so A is the float64 kernel, w = 1, bit for bit
        # the dense build's
        noise = NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000, sigma_out=1.0)
        ds = noisy_dataset(400, DensitySpec.UNIFORM_CIRCLE, noise, 3)
        a = build_affinity(ds, 5e-4)
        assert a.data.dtype == np.float64
        assert np.array_equal(a.weights, np.ones(400))
        _, ref = dense_path_kernel(ds, 5e-4)
        assert ref.dtype == np.float64 and np.array_equal(a.dense(), ref)
        assert assert_matches_split(ds, 5e-4) > 0

    @pytest.mark.parametrize("step, dtype", [(-1e-6, np.float32), (1e-6, np.float64)])
    def test_boundary_pair(self, step, dtype):
        # d2 / (4 eps) = -ln(tiny) (1 + step): the one kernel entry sits
        # just above or just below float32's smallest normal
        x = np.sqrt(-np.log(np.finfo(np.float32).tiny) * (1.0 + step))
        pts = np.array([[1.0], [1.0 + x]])
        a = build_affinity(pts, 0.25).dense()
        assert a.dtype == dtype
        assert np.array_equal(a, stored(pdist_kernel(pts, 0.25)))

    def test_restart_from_last_block(self):
        # only the last row block reaches the far point, whose entries
        # (about 1e-108) float32 cannot hold: the restart rebuilds all of A
        pts = np.linspace(1.0, 1.1, 2 * _TILE + 1)[:, None]
        pts[-1] = 11.0
        a = build_affinity(pts, 0.1).dense()
        assert a.dtype == np.float64
        assert np.array_equal(a, pdist_kernel(pts, 0.1))

    @pytest.mark.parametrize("exponent, dtype", [(60.0, np.float64), (40.0, np.float32)])
    def test_coincident_outliers_overflow(self, exponent, dtype):
        # two outliers at one point, each with tail squares t, t / (4 eps)
        # = exponent: w = exp(-exponent) is a float32 normal, and B_01 =
        # exp(2 exponent) is above float32's largest value at 60 (e^120)
        # and below it at 40 (e^80), so only 60 restarts into float64
        eps = 0.01
        xi = np.array([[0.0, np.sqrt(4.0 * eps * exponent)]] * 2)
        ds = Dataset(t=np.zeros(2), clean_points=np.zeros((2, 1)),
                     outlier_flags=np.ones(2, bool), outlier_offsets=xi)
        a = build_affinity(ds, eps)
        assert a.data.dtype == dtype
        if dtype == np.float64:
            assert np.array_equal(a.weights, np.ones(2))
            assert np.array_equal(a.dense(), np.array([[0.0, 1.0], [1.0, 0.0]]))
        else:
            assert np.all(a.weights == np.exp(xi[0, 1] ** 2 / (-4.0 * eps)))
        assert assert_matches_split(ds, eps) == 4

    def test_own_pair_cannot_overflow(self):
        # one outlier with t / (4 eps) = 60 beside an inlier at its clean
        # row: w_0 = exp(-60) is a float32 normal and B_01 = 1, while its
        # own pair's exponent, 2 t / (4 eps) = 120, would put B_00 = e^120
        # above float32's largest value had the diagonal not been zeroed
        # before the exponential, so A stays float32 with a zero diagonal
        eps = 0.01
        xi = np.array([[0.0, np.sqrt(4.0 * eps * 60.0)]])
        ds = Dataset(t=np.zeros(2), clean_points=np.zeros((2, 1)),
                     outlier_flags=np.array([True, False]), outlier_offsets=xi)
        a = build_affinity(ds, eps)
        assert a.data.dtype == np.float32
        assert np.array_equal(a.weights, [np.exp(xi[0, 1] ** 2 / (-4.0 * eps)), 1.0])
        assert np.array_equal(stored_matrix(a), np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_float64_kernel_keeps_its_products(self, monkeypatch):
        # on a float64 kernel the packed product is a float64 product:
        # the iid embedding at epsilon = 3e-4, where float32 does not hold
        # every w_i and entry of B and the build restarts into float64,
        # matches a run whose products are a dense float64 ``mat @ x``.
        # The two sum in different orders, so each product moves within
        # n u relative (1.1e-13 at n = 1000, u = 2^-53), and the errors
        # follow.  Measured: alignment errors 1.7e-13 relative
        noise = NoiseModel(NoiseKind.IID, m=2000)
        for seed in (0, 1):
            ds = noisy_dataset(1000, DensitySpec.UNIFORM_CIRCLE, noise, seed)
            assert build_affinity(ds, 3e-4).data.dtype == np.float64

        def run():
            return embedding_experiment(1000, noise, 3e-4, replicas=2, threads=1)

        res = run()
        dense = {}

        def dense_product(packed, x):
            # keyed by id, with packed kept alive so that no id is reused
            if id(packed) not in dense:
                dense[id(packed)] = (packed, packed.dense())
            return dense[id(packed)][1] @ x

        for module in (sinklap.sinkhorn, sinklap.laplacian):
            monkeypatch.setattr(module, "_matvec", dense_product)
        ref = run()
        assert len(dense) == 2
        for got, want in zip(res.records, ref.records):
            assert (got.method, got.pair, got.replicas) == (want.method, want.pair,
                                                            want.replicas)
            assert got.mse_mean == pytest.approx(want.mse_mean, rel=1e-9, abs=0)
            assert got.mse_std == pytest.approx(want.mse_std, rel=1e-9, abs=0)
        for key in ref.mse:
            assert np.allclose(res.mse[key], ref.mse[key], rtol=1e-9, atol=0)
        for method in ("sk", "dm"):
            got, want = res.first_eigenpairs[method], ref.first_eigenpairs[method]
            assert np.allclose(got.values, want.values, rtol=0, atol=1e-12)
            assert np.allclose(got.vectors, want.vectors, rtol=0, atol=1e-9)


class TestPackedTriangle:
    """The lower block triangle's layout: block row s:e is A[s:e, :e],
    across block boundaries and on a last, partial block row."""

    @pytest.mark.parametrize("n", [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        mat = rng.uniform(size=(n, n))
        mat += mat.T
        packed = Affinity(mat, 1.0)
        q, r = divmod(n, _BLOCK)
        assert packed.data.shape == (_BLOCK**2 * q * (q + 1) // 2 + r * n,)
        assert [(s, e) for s, e, _ in packed.panels()] == [
            (s, min(s + _BLOCK, n)) for s in range(0, n, _BLOCK)
        ]
        assert np.array_equal(packed.dense(), mat)

    def test_copies(self):
        # a copy is a new triangle with its own BLAS arguments
        mat = np.arange(9.0).reshape(3, 3) + np.arange(9.0).reshape(3, 3).T
        aff = Affinity(mat, 1.0)
        for other in (pickle.loads(pickle.dumps(aff)), copy.deepcopy(aff)):
            assert np.array_equal(other.dense(), mat) and other.epsilon == 1.0
            assert not other.data.flags.writeable
            assert np.array_equal(_matvec(other, np.ones(3)), mat.sum(axis=1))

    def test_copies_keep_the_factors(self):
        # w travels with B: a copy of a factored kernel has the same
        # read-only factors and the same products, bit for bit
        noise = NoiseModel(NoiseKind.HETEROSKEDASTIC, m=200)
        aff = build_affinity(noisy_dataset(300, DensitySpec.UNIFORM_CIRCLE, noise, 1), 5e-4)
        assert aff.weights.min() < 1.0
        x = np.random.default_rng(0).uniform(0.5, 1.5, aff.n)
        for other in (pickle.loads(pickle.dumps(aff)), copy.deepcopy(aff)):
            assert np.array_equal(other.weights, aff.weights)
            assert not other.weights.flags.writeable
            assert np.array_equal(_matvec(other, x), _matvec(aff, x))

    @pytest.mark.parametrize("n", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_product(self, n):
        # float64 against numpy's product: n u relative of the row sums
        rng = np.random.default_rng(n)
        mat = rng.uniform(size=(n, n))
        mat += mat.T
        x = rng.uniform(size=n)
        got = _matvec(Affinity(mat, 1.0), x)
        assert np.allclose(got, mat @ x, rtol=n * np.finfo(float).eps, atol=0)


    def test_blas_signature_checked(self, monkeypatch):
        # a cython_blas routine whose C signature is not the ctypes
        # prototype's (say 64-bit ints) fails on import, not in BLAS
        name = b"void (char *, long *, long *, float *, float *, long *, float *, long *, "
        monkeypatch.setattr(sinklap.kernel, "_capsule_name", lambda capsule: name)
        with pytest.raises(ImportError, match=r"^scipy\.linalg\.cython_blas\.sgemv has"):
            sinklap.kernel._blas_gemv("s", ctypes.c_float)


def rows_dataset(seed, reach):
    """A dataset of 40 samples in R^3, every fifth clean row ending in a
    zero, observed in R^10: a third of the rows are outliers whose noise
    vector fills the first reach[i % 2] columns."""
    rng = np.random.default_rng(seed)
    clean = rng.normal(size=(40, 3))
    clean[::5, 2] = 0.0
    flags = np.arange(40) % 3 == 0
    xi = np.zeros((flags.sum(), 10))
    for i, row in enumerate(xi):
        row[: reach[i % 2]] = rng.normal(size=reach[i % 2])
    return Dataset(t=np.zeros(40), clean_points=clean, outlier_flags=flags,
                   outlier_offsets=xi)


class TestRowSplit:
    """A dataset's kernel is split on its outlier flags: inlier pairs
    keep pdist's bits, an inlier and an outlier the k-column cdist plus
    the tail, and two outliers are within the tail Gram form's bound
    (``assert_matches_split``)."""

    @settings(max_examples=60, deadline=None)
    @given(noisy_datasets(), st.sampled_from([1e-3, 0.3, 10.0]))
    def test_split_reference(self, ds, eps):
        assert_matches_split(ds, eps)

    @pytest.mark.parametrize("n", [300, 1001])
    @pytest.mark.parametrize(
        "kind, spec",
        [(None, DensitySpec.SINUSOIDAL_1D),
         (NoiseKind.SIMPLE, DensitySpec.SINUSOIDAL_1D),
         (NoiseKind.HETEROSKEDASTIC, DensitySpec.UNIFORM_CIRCLE),
         (NoiseKind.IID, DensitySpec.UNIFORM_CIRCLE)],
        ids=["clean", "simple", "heteroskedastic", "iid"],
    )
    def test_bitwise_dense(self, kind, spec, n):
        model = None if kind is None else NoiseModel(kind, m=2000)
        assert_matches_split(noisy_dataset(n, spec, model, 10), 5e-4)

    def test_no_outlier_drawn(self):
        ds = noisy_dataset(300, DensitySpec.SINUSOIDAL_1D,
                           NoiseModel(NoiseKind.SIMPLE, m=50, p_out=0.0), 10)
        assert ds.outlier_offsets.shape == (0, 50)
        assert assert_matches_split(ds, 5e-4) == 0

    def test_all_outliers_full_width(self):
        # every sample an outlier, as wide as R^40: no inlier pair, and
        # every entry takes the tail Gram form
        ds = noisy_dataset(16, DensitySpec.UNIFORM_CIRCLE, NoiseModel(NoiseKind.IID, m=40), 5)
        assert ds.outlier_flags.all() and np.all(ds.outlier_offsets[:, -1] != 0)
        assert assert_matches_split(ds, 1e-2) == 16 * 16

    @pytest.mark.parametrize(
        "make",
        [
            # zero noise: outliers at their clean rows, their tails zero
            lambda: noisy_dataset(300, DensitySpec.SINUSOIDAL_1D,
                                  NoiseModel(NoiseKind.SIMPLE, m=40, sigma_out=0.0,
                                             p_out=0.3), 10),
            # half the outliers wide, half as narrow as the clean rows
            lambda: rows_dataset(1, (10, 3)),
            # no outlier past the clean width: inliers wider than outliers
            lambda: rows_dataset(2, (3, 3)),
        ],
        ids=["zero-noise", "narrow-outliers", "wide-inliers"],
    )
    def test_wide_rows_not_the_outliers(self, make):
        # rows with nonzero columns past k need not be the outliers; the
        # split follows the flags
        assert assert_matches_split(make(), 0.5) > 0


class TestDensePath:
    """The packed triangle against the dense build it replaced
    (``dense_path_kernel``): the same w and entries of B, each stored
    once, and products within float rounding of a float64 dense
    product."""

    @staticmethod
    def dataset(kind, n=1001, sigma_out=0.1, p_out=0.1):
        if kind is None:
            return sample_dataset(n, DensitySpec.SINUSOIDAL_1D, 10)
        noise = NoiseModel(kind, m=2000, sigma_out=sigma_out, p_out=p_out)
        return noisy_dataset(n, DensitySpec.UNIFORM_CIRCLE, noise, 10)

    @pytest.mark.parametrize(
        "kind, p_out",
        [(None, 0.1), (NoiseKind.SIMPLE, 0.1), (NoiseKind.SIMPLE, 0.01)],
        ids=["clean", "simple", "sparse"],
    )
    def test_bitwise_lower_triangle(self, kind, p_out):
        # clean data and scattered outliers: w is the dense build's, each
        # stored block row is its B[s:e, :e] and A is (w w^T) * B, bit for
        # bit.  At p_out = 0.01 the tiles hold [4, 0, 2, 4, 1, 2, 1, 0]
        # outliers, so tile pairs with none, with outliers on one side and
        # on both sides all occur
        ds = self.dataset(kind, p_out=p_out)
        if p_out == 0.01:
            counts = np.add.reduceat(ds.outlier_flags, np.arange(0, ds.t.size, _TILE))
            assert counts.tolist() == [4, 0, 2, 4, 1, 2, 1, 0]
        a, (weights, ref) = build_affinity(ds, 5e-4), dense_path_kernel(ds, 5e-4)
        assert a.data.dtype == ref.dtype
        assert np.array_equal(a.weights, weights)
        for s, e, panel in a.panels():
            assert np.array_equal(panel, ref[s:e, :e])
        dense = ref if np.all(weights == 1.0) else np.outer(weights, weights) * ref
        assert np.array_equal(a.dense(), dense)

    @pytest.mark.parametrize("n", [2, 127, 129, 255, 257, 383, 385, 513, 1001])
    @pytest.mark.parametrize("case", ["array", "clean", "sparse", "restart"])
    def test_bitwise_across_sizes(self, case, n):
        # sizes on both sides of tile and block-row edges, so block columns
        # of one and of two tiles, partial last tiles and a partial last
        # block row all occur; "sparse" has chunks with and without
        # outliers, and "restart" is built again into float64
        if case == "array":
            pts = np.random.default_rng(n).normal(size=(n, 3))
            a = build_affinity(pts, 0.3)
            weights, ref = np.ones(n), stored(pdist_kernel(pts, 0.3))
        else:
            kind, sigma_out, p_out = {"clean": (None, 0.1, 0.1),
                                      "sparse": (NoiseKind.SIMPLE, 0.1, 0.01),
                                      "restart": (NoiseKind.HETEROSKEDASTIC, 1.0, 0.1)}[case]
            ds = self.dataset(kind, n, sigma_out, p_out)
            (weights, ref), a = dense_path_kernel(ds, 5e-4), build_affinity(ds, 5e-4)
        assert (a.data.dtype == np.float64) == (case == "restart")
        assert a.data.dtype == ref.dtype
        assert np.array_equal(a.weights, weights)
        for s, e, panel in a.panels():
            assert np.array_equal(panel, ref[s:e, :e])

    def test_one_distance_call_per_block_column(self, monkeypatch):
        # each 128-row tile row takes one cdist per stored block column up
        # to its diagonal tile: at n = 1000 the eight tile rows reach 1, 1,
        # 2, 2, 3, 3, 4 and 4 block columns, 20 calls in all
        shapes = []

        def counted(xa, xb, metric, **kwargs):
            shapes.append((xa.shape[0], xb.shape[0]))
            return cdist(xa, xb, metric, **kwargs)

        monkeypatch.setattr(sinklap.kernel, "cdist", counted)
        build_affinity(self.dataset(NoiseKind.SIMPLE, 1000), 5e-4)
        assert len(shapes) == 20
        assert shapes[:4] == [(_TILE, _TILE), (_TILE, _BLOCK), (_TILE, _BLOCK), (_TILE, _TILE)]
        assert shapes[-1] == (1000 - 7 * _TILE, _BLOCK - 24)

    @pytest.mark.parametrize("kind", [NoiseKind.HETEROSKEDASTIC, NoiseKind.IID])
    def test_outlier_entries_within_tolerance(self, kind):
        # a lower tile's tail product is a gemm with its operands swapped,
        # which may sum each g_ij in another order: with k tail columns
        # both are within k u |tail_i| |tail_j| <= k u (t_i + t_j) / 2 of
        # it, so B's exponent moves by at most 2 k u (t_i + t_j) / (4
        # epsilon) and the entry by expm1 of that, plus one ulp where B is
        # float32 (measured: bitwise).  w is the dense build's, bit for bit
        ds = self.dataset(kind, 700)
        a, (weights, ref) = build_affinity(ds, 5e-4), dense_path_kernel(ds, 5e-4)
        pts = ds.points
        assert a.data.dtype == ref.dtype
        assert np.array_equal(a.weights, weights)
        tail = np.einsum("ij,ij->i", pts, pts)
        u = np.finfo(float).eps / 2
        delta = 2 * pts.shape[1] * u * (tail[:, None] + tail)
        rel = np.expm1(delta / (4.0 * 5e-4)) + np.finfo(a.data.dtype).eps
        got, want = stored_matrix(a).astype(float), ref.astype(float)
        assert np.all(np.abs(got - want) <= rel * want + np.finfo(float).tiny)

    @pytest.mark.parametrize(
        "kind, sigma_out",
        [(None, 0.1), (NoiseKind.HETEROSKEDASTIC, 1.0), (NoiseKind.SIMPLE, 0.1),
         (NoiseKind.HETEROSKEDASTIC, 0.1), (NoiseKind.IID, 0.1)],
        ids=["float32", "float64", "simple", "heteroskedastic", "iid"],
    )
    def test_products(self, kind, sigma_out):
        # each entry of A x = w * (B (w * x)) in B's precision against
        # exact float64 arithmetic on A's entries: a sum of n non-negative
        # terms errs by at most (n - 1) u, each term by 2 u (w * x's
        # rounding and the product), so (n + 1) u relative in all: 6.0e-5
        # in float32 (u = 2^-24), where 6.9e-7 was measured.  The float64
        # reference errs the same way in its own u, 2^-53, which the bound
        # adds, and covers the roundings of w w^T B and of the product by w
        a = build_affinity(self.dataset(kind, sigma_out=sigma_out), 5e-4)
        assert a.data.dtype == (np.float64 if sigma_out == 1.0 else np.float32)
        x = np.random.default_rng(0).uniform(0.5, 1.5, a.n)
        want = a.dense().astype(float) @ x
        u = (np.finfo(a.data.dtype).eps + np.finfo(float).eps) / 2
        got = _matvec(a, x)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= (a.n + 1) * u * want)


class TestThreadCount:
    """Importing sinklap sets its BLAS to one thread, so kernels, products
    with A and the scaling built on them repeat bit for bit whatever
    OPENBLAS_NUM_THREADS says."""

    SCRIPT = """
import hashlib
import numpy as np
from sinklap import (Affinity, DensitySpec, NoiseKind, NoiseModel, approx_sym_sk,
                     build_affinity, noisy_dataset, sample_dataset)
from sinklap.kernel import _matvec

# one block row, a one-row last block, and 3 full block rows plus 233 rows
singles = [
    build_affinity(sample_dataset(n, DensitySpec.SINUSOIDAL_1D, 0).points, 5e-4)
    for n in (255, 257, 1001)
]
double = Affinity(singles[-1].dense().astype(float), singles[-1].epsilon)
# a float64 kernel of a dataset, whose outlier x outlier entries come
# from a BLAS product of the noise vectors
iid = build_affinity(noisy_dataset(1000, DensitySpec.UNIFORM_CIRCLE,
                                   NoiseModel(NoiseKind.IID, m=2000), 0), 3e-4)
for a in (*singles, double, iid):
    x = np.random.default_rng(0).uniform(0.5, 1.5, a.n)
    for v in (a.data, _matvec(a, x), approx_sym_sk(a).eta):
        print(a.n, a.data.dtype, hashlib.sha256(v.tobytes()).hexdigest())
"""

    # README's embed line on iid data, whose float64 kernel takes a BLAS
    # product of the noise vectors: each artifact's digest
    EMBED = """
import hashlib, sys
from pathlib import Path
from sinklap.cli import main

out = Path(sys.argv[1])
assert main(["embed", "--n", "1000", "--epsilon", "3e-4", "--noise", "iid", "--m", "2000",
             "--replicas", "2", "--out", str(out / "mse.csv"),
             "--eigen-out", str(out / "eig")]) == 0
for name in ("mse.csv", "eig_sk.csv", "eig_dm.csv"):
    print(name, hashlib.sha256((out / name).read_bytes()).hexdigest())
"""

    # each bundled OpenBLAS's thread count after the import
    COUNTS = """
import ctypes
from pathlib import Path
import numpy, scipy
import sinklap

for module, getter in ((numpy, "scipy_openblas_get_num_threads64_"),
                       (scipy, "scipy_openblas_get_num_threads")):
    libs = Path(module.__file__).parents[1] / f"{module.__name__}.libs"
    for path in sorted(libs.glob("*openblas*")):
        count = getattr(ctypes.CDLL(str(path)), getter, None)
        if count is not None:
            print(path.name, count())
"""

    @staticmethod
    def run(script, threads, *args):
        """script's output lines, run with args on the source tree under
        OPENBLAS_NUM_THREADS=threads."""
        src = str(Path(sinklap.kernel.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_products_and_scaling_repeat(self):
        digests = [self.run(self.SCRIPT, threads) for threads in ("1", "2")]
        kernels = [" ".join(line.split()[:2]) for line in digests[0][::3]]
        assert kernels == ["255 float32", "257 float32", "1001 float32", "1001 float64",
                           "1000 float64"]
        assert digests[0] == digests[1]

    def test_embed_artifacts_repeat(self, tmp_path):
        digests = []
        for threads in ("1", "2"):
            (tmp_path / threads).mkdir()
            digests.append(self.run(self.EMBED, threads, str(tmp_path / threads)))
        assert len(digests[0]) == 3
        assert digests[0] == digests[1]

    def test_import_sets_one_blas_thread(self):
        counts = [line.split() for line in self.run(self.COUNTS, "2")]
        if not counts:
            pytest.skip("no bundled OpenBLAS with a thread-count getter")
        # OpenBLAS caps the variable at the CPUs it sees, so a one-CPU
        # host reads 1 either way; the pin is what is checked
        assert [now for _, now in counts] == ["1"] * len(counts)


_MEMORY_CASES = [
    lambda: sample_dataset(1000, DensitySpec.SINUSOIDAL_1D, 5),
    lambda: noisy_dataset(
        1000,
        DensitySpec.UNIFORM_CIRCLE,
        NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000),
        5,
    ),
    # scattered outliers: most row tiles hold a few
    lambda: noisy_dataset(
        1000,
        DensitySpec.SINUSOIDAL_1D,
        NoiseModel(NoiseKind.SIMPLE, m=2000),
        5,
    ),
    # nearly every sample an outlier
    lambda: noisy_dataset(
        1000,
        DensitySpec.UNIFORM_CIRCLE,
        NoiseModel(NoiseKind.IID, m=2000),
        5,
    ),
]
_MEMORY_IDS = ["clean", "heteroskedastic", "simple", "iid"]


def traced_peak(call):
    """call()'s result and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """build_affinity allocates the stored triangle and chunk temporaries
    only: no n x n array, no (_BLOCK, n) panel, no copy of any tail and,
    from a dataset, no n x m cloud."""

    @staticmethod
    def bound(a):
        # the triangle in A's dtype, n^2 / 2 + n _BLOCK / 2 entries (a
        # float32 attempt is freed before a float64 restart), and 1 MiB
        # for the chunk temporaries
        n = a.n
        return a.data.itemsize * (n * n // 2 + _BLOCK // 2 * n) + 2**20

    @pytest.mark.parametrize("make", _MEMORY_CASES, ids=_MEMORY_IDS)
    def test_peak_is_one_matrix(self, make):
        pts = make().points
        a, peak = traced_peak(lambda: build_affinity(pts, 5e-4))
        bound = self.bound(a)
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"

    @pytest.mark.parametrize("make", _MEMORY_CASES, ids=_MEMORY_IDS)
    def test_dataset_peak_is_one_matrix(self, make):
        ds = make()
        a, peak = traced_peak(lambda: build_affinity(ds, 5e-4))
        bound = self.bound(a)
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"

    def test_outlier_work_is_not_tile_sized(self):
        # the outlier correction runs on each tile's outlier x outlier
        # entries alone, so scattered outliers, in every row tile here,
        # add less than one float64 tile to the clean build's temporaries
        # (measured: about 38 KiB, where whole-tile passes took 292 KiB)
        extra = []
        for make in (_MEMORY_CASES[0], _MEMORY_CASES[2]):
            ds = make()
            a, peak = traced_peak(lambda: build_affinity(ds, 5e-4))
            assert a.data.dtype == np.float32
            extra.append(peak - a.data.nbytes)
        assert extra[1] - extra[0] <= 8 * _TILE**2, f"{extra[1] - extra[0]} B above clean"

    def test_noisy_pipeline_keeps_outlier_rows(self):
        # noise, kernel, scaling and apply at n = 1000 in R^2000: the peak is
        # the stored float32 triangle, the outliers' noise vectors and 2 MiB, where
        # the n x m cloud alone is 16 MB
        n, m, seed = 1000, 2000, 5
        model = NoiseModel(NoiseKind.SIMPLE, m=m)
        outliers = noisy_dataset(n, DensitySpec.SINUSOIDAL_1D, model, seed).outlier_flags
        _, peak = traced_peak(lambda: pointwise_experiment(
            n, DensitySpec.SINUSOIDAL_1D, 5e-4, LaplacianKind.BISTOCH_UN,
            noise_model=model, seed=seed))
        bound = 4 * _stored_size(n) + 8 * m * int(outliers.sum()) + 2 * 2**20
        assert peak <= bound, f"peak {peak / 2**20:.1f} MiB > {bound / 2**20:.1f} MiB"


class TestDegree:
    """dm_scale, the degree scale vector: 1/sqrt of the kernel's row sums."""

    def test_matches_row_sums(self):
        # the row sums are the product A 1 through _matvec, in A's
        # precision: bitwise that product, and within a stated tolerance of
        # float64-accumulated sums (float32 A: 1e-6 relative, about
        # sqrt(n) u32; float64 A: 1e-14)
        ds = sample_dataset(40, DensitySpec.UNIFORM_CIRCLE, 8)
        single = build_affinity(ds.points, 1e-3)
        double = Affinity(matrix=single.dense().astype(float), epsilon=1e-3)
        assert single.data.dtype == np.float32
        for a, rtol in ((single, 1e-6), (double, 1e-14)):
            s = dm_scale(a)
            assert np.array_equal(s, 1.0 / np.sqrt(_matvec(a, np.ones(a.n))))
            assert np.array_equal(dm_scale(a.dense()), s)
            ref = 1.0 / np.sqrt(a.dense().sum(axis=1, dtype=float))
            assert np.max(np.abs(s - ref) / ref) <= rtol

    def test_identical_points_zero_diag(self):
        a = Affinity(matrix=np.ones((3, 3)) - np.eye(3), epsilon=1.0)
        assert np.array_equal(dm_scale(a), np.full(3, 1.0 / np.sqrt(2.0)))
