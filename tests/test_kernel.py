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
    DensitySpec,
    LaplacianKind,
    NoiseKind,
    NoiseModel,
    approx_sym_sk,
    build_affinity,
    dm_scale,
    embedding_experiment,
    epsilon_sweep,
    gaussian_kernel,
    kernel_moments,
    noisy_dataset,
    normalized_prefactor,
    pointwise_experiment,
    sample_dataset,
)
from sinklap.kernel import _BLOCK, _TILE, _matvec


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
    """build_affinity against ``pdist_kernel``.  Rows narrower than the
    widest are narrow, w is their largest width and the widest rows are
    wide; one-width clouds have no wide row.

    The matrix is float32 exactly when the reference's off-diagonal
    entries are float32 normals (``stored``).  Narrow-narrow entries are
    bitwise equal to the stored reference.  Narrow-wide entries are
    bitwise equal to the stored tail-norm formula, a w-column ``cdist``
    plus the wide row's squares past w.  Summing that
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
    ulp.  A float32 matrix rounds that entry once more, by at most
    u32 = 2^-24 of it.  Subnormal kernels get an absolute floor.  The
    matrix is also bitwise symmetric, non-negative and at most 1, as d2
    is clamped at 0; the first two are why ``Affinity`` need not check
    it.  Returns the number of entries with a wide row.
    """
    a = build_affinity(pts, eps).dense()
    assert np.array_equal(a, a.T) and a.min() >= 0.0 and a.max() <= 1.0
    ref = pdist_kernel(pts, eps)
    assert a.dtype == stored(ref).dtype
    m = pts.shape[1]
    u = np.finfo(float).eps / 2
    # the float32 rounding of a float32 matrix; none in a float64 one
    u_store = np.finfo(np.float32).eps / 2 if a.dtype == np.float32 else 0.0
    tiny = np.finfo(float).tiny
    d2 = squareform(pdist(pts, "sqeuclidean"))
    nonzero = pts != 0
    width = np.where(nonzero.any(axis=1), m - np.argmax(nonzero[:, ::-1], axis=1), 0)
    wide = (width == width.max()) & (width > width.min())
    narrow, wide_rows = np.flatnonzero(~wide), np.flatnonzero(wide)
    w = int(width[narrow].max())

    assert np.array_equal(a[np.ix_(narrow, narrow)], stored(ref)[np.ix_(narrow, narrow)])

    cross = np.ix_(narrow, wide_rows)
    tail = np.einsum("ij,ij->i", pts[wide_rows, w:], pts[wide_rows, w:])
    tail_d2 = cdist(pts[narrow, :w], pts[wide_rows, :w], "sqeuclidean") + tail
    assert np.array_equal(a[cross], np.exp(-tail_d2 / (4.0 * eps)).astype(a.dtype))
    bound = ref[cross] * (2 * (m + 1) * u * d2[cross] / (4.0 * eps) + 4 * u)
    bound += u_store * (ref[cross] + bound)
    assert np.all(np.abs(a[cross] - ref[cross]) <= bound + tiny)

    both = np.ix_(wide_rows, wide_rows)
    sq = np.einsum("ij,ij->i", pts[wide_rows], pts[wide_rows])
    delta = 2 * (m + 1) * u * (sq[:, None] + sq) + 2 * (m + 4) * u * d2[both]
    bound = ref[both] * (np.expm1(delta / (4.0 * eps)) + 4 * u)
    bound += u_store * (ref[both] + bound)
    assert np.all(np.abs(a[both] - ref[both]) <= bound + tiny)
    return a.size - narrow.size**2


def dense_path_kernel(pts, eps):
    """The kernel as the dense n x n build made it, the reference for the
    packed triangle: upper tiles written with their mirrors, the tails'
    Gram product symmetrized on diagonal tiles, the same storage rule."""
    n, m = pts.shape
    width = np.where(pts.any(axis=1), m - np.argmax(pts[:, ::-1] != 0, axis=1), 0)
    w = int(np.unique(width)[-2:][0])
    wide = width > w
    tail = np.einsum("ij,ij->i", pts[:, w:], pts[:, w:])
    mat = np.empty((n, n))
    for a in range(0, n, _TILE):
        rows = slice(a, a + _TILE)
        wide_rows = np.flatnonzero(wide[rows])
        tail_rows = pts[rows][wide_rows, w:]
        for b in range(a, n, _TILE):
            cols = slice(b, b + _TILE)
            wide_cols = np.flatnonzero(wide[cols])
            block = cdist(pts[rows, :w], pts[cols, :w], "sqeuclidean")
            block += tail[rows, None] + tail[cols]
            gram = tail_rows @ (tail_rows if a == b else pts[cols][wide_cols, w:]).T
            block[np.ix_(wide_rows, wide_cols)] -= gram + gram.T if a == b else 2.0 * gram
            mat[rows, cols] = np.exp(-np.maximum(block, 0.0) / (4.0 * eps))
            mat[cols, rows] = mat[rows, cols].T
    np.fill_diagonal(mat, 0.0)
    return stored(mat)


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
        assert a.packed.data.shape == (60 * 60,)
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
        ],
        ids=["negative-eps", "zero-eps", "nan-eps", "inf-eps", "zero-n", "zero-d"],
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
        # columnless points are named, not left to numpy's argmax
        with pytest.raises(ValueError, match=r"with n >= 2 and m >= 1$"):
            build_affinity(np.zeros((5, 0)), 1.0)

    def test_bitwise_out_of_place_formula(self):
        # float32 holds this kernel, so A is the float32 rounding of pdist's
        a = build_affinity(self.ds.points, 1e-3)
        assert a.packed.data.dtype == np.float32
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
            a.packed.data[0] = 1.0


class TestInvariant:
    """Affinity owns the square, finite, symmetric, non-negative kernel: it
    checks outside data once, at construction, on its own copy;
    build_affinity's matrix holds the invariant by construction and is not
    checked."""

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
        assert a.flags.writeable and not aff.packed.data.flags.writeable

    def test_outside_dtype(self):
        # a float32 kernel stays float32; anything else becomes float64
        a = self.kernel(14)
        assert Affinity(a.astype(np.float32), 1.0).packed.data.dtype == np.float32
        assert Affinity(a, 1.0).packed.data.dtype == np.float64
        assert Affinity(np.ones((2, 2), dtype=int), 1.0).packed.data.dtype == np.float64

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


class TestStorage:
    """A is float32 exactly when float32 holds every entry as a normal
    number; otherwise the block loop restarts into the float64 A."""

    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    def test_clean_is_float32(self, eps):
        # the ends of the clean sweep's bandwidth grid
        pts = sample_dataset(400, DensitySpec.SINUSOIDAL_1D, 3).points
        assert build_affinity(pts, eps).packed.data.dtype == np.float32
        assert_matches_pdist(pts, eps)

    def test_simple_noise_is_float32(self):
        noise = NoiseModel(NoiseKind.SIMPLE, m=2000)
        pts = noisy_dataset(400, DensitySpec.SINUSOIDAL_1D, noise, 3).points
        assert build_affinity(pts, 5e-4).packed.data.dtype == np.float32
        assert assert_matches_pdist(pts, 5e-4) > 0

    def test_heteroskedastic_is_float64(self):
        noise = NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000)
        pts = noisy_dataset(400, DensitySpec.UNIFORM_CIRCLE, noise, 3).points
        assert build_affinity(pts, 5e-4).packed.data.dtype == np.float64
        assert assert_matches_pdist(pts, 5e-4) > 0

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

    def test_float64_kernel_keeps_its_products(self, monkeypatch):
        # on a float64 kernel the packed product is a float64 product:
        # the heteroskedastic embedding matches a run whose products are a
        # dense float64 ``mat @ x``.  The two sum in different orders, so
        # each product moves within n u relative (1.1e-13 at n = 1000,
        # u = 2^-53), and the errors follow.  Measured: alignment errors
        # 5.4e-12 relative, eigenvalues 2.2e-16 and eigenvectors 1.2e-12
        # absolute
        noise = NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000)
        for seed in (0, 1):
            pts = noisy_dataset(1000, DensitySpec.UNIFORM_CIRCLE, noise, seed).points
            assert build_affinity(pts, 5e-4).packed.data.dtype == np.float64

        def run():
            return embedding_experiment(1000, noise, 5e-4, replicas=2, threads=1)

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
        packed = Affinity(mat, 1.0).packed
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
            assert not other.packed.data.flags.writeable
            assert np.array_equal(_matvec(other.packed, np.ones(3)), mat.sum(axis=1))

    @pytest.mark.parametrize("n", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_product(self, n):
        # float64 against numpy's product: n u relative of the row sums
        rng = np.random.default_rng(n)
        mat = rng.uniform(size=(n, n))
        mat += mat.T
        x = rng.uniform(size=n)
        got = _matvec(Affinity(mat, 1.0).packed, x)
        assert np.allclose(got, mat @ x, rtol=n * np.finfo(float).eps, atol=0)


    def test_blas_signature_checked(self, monkeypatch):
        # a cython_blas routine whose C signature is not the ctypes
        # prototype's (say 64-bit ints) fails on import, not in BLAS
        name = b"void (char *, long *, long *, float *, float *, long *, float *, long *, "
        monkeypatch.setattr(sinklap.kernel, "_capsule_name", lambda capsule: name)
        with pytest.raises(ImportError, match=r"^scipy\.linalg\.cython_blas\.sgemv has"):
            sinklap.kernel._blas_gemv("s", ctypes.c_float)


class TestDensePath:
    """The packed triangle against the dense build it replaced
    (``dense_path_kernel``): the same entries, each stored once, and
    products within float rounding of a float64 dense product."""

    @staticmethod
    def points(kind, n=1001):
        if kind is None:
            return sample_dataset(n, DensitySpec.SINUSOIDAL_1D, 10).points
        return noisy_dataset(n, DensitySpec.UNIFORM_CIRCLE, NoiseModel(kind, m=2000),
                             10).points

    @pytest.mark.parametrize("kind", [None, NoiseKind.SIMPLE], ids=["clean", "simple"])
    def test_bitwise_lower_triangle(self, kind):
        # one-width data and scattered outliers: each stored block row is
        # the dense build's A[s:e, :e], bit for bit
        pts = self.points(kind)
        a, ref = build_affinity(pts, 5e-4), dense_path_kernel(pts, 5e-4)
        assert a.packed.data.dtype == ref.dtype
        for s, e, panel in a.packed.panels():
            assert np.array_equal(panel, ref[s:e, :e])
        assert np.array_equal(a.dense(), ref)

    @pytest.mark.parametrize("kind", [NoiseKind.HETEROSKEDASTIC, NoiseKind.IID])
    def test_outlier_entries_within_tolerance(self, kind):
        # a lower tile's tail product is a gemm with its operands swapped,
        # which may sum each g_ij in another order: with k tail columns
        # both are within k u |tail_i| |tail_j| <= k u (t_i + t_j) / 2 of
        # it, so d2 moves by at most 2 k u (t_i + t_j) and the entry by
        # expm1 of that over 4 epsilon, plus one ulp where A is float32
        # (measured: bitwise)
        pts = self.points(kind, 700)
        a, ref = build_affinity(pts, 5e-4), dense_path_kernel(pts, 5e-4)
        assert a.packed.data.dtype == ref.dtype
        tail = np.einsum("ij,ij->i", pts, pts)
        u = np.finfo(float).eps / 2
        delta = 2 * pts.shape[1] * u * (tail[:, None] + tail)
        rel = np.expm1(delta / (4.0 * 5e-4)) + np.finfo(a.packed.data.dtype).eps
        got, want = a.dense().astype(float), ref.astype(float)
        assert np.all(np.abs(got - want) <= rel * want + np.finfo(float).tiny)

    @pytest.mark.parametrize("kind", [None, NoiseKind.HETEROSKEDASTIC],
                             ids=["float32", "float64"])
    def test_products(self, kind):
        # each entry of A x in A's precision against exact float64
        # arithmetic on the same entries: a sum of n non-negative terms
        # errs by at most (n - 1) u, each term by 2 u (x's rounding and
        # the product), so (n + 1) u relative in all: 6.0e-5 in float32
        # (u = 2^-24), where 6.9e-7 was measured.  The float64 reference
        # errs the same way in its own u, 2^-53, which the bound adds
        pts = self.points(kind)
        a = build_affinity(pts, 5e-4)
        x = np.random.default_rng(0).uniform(0.5, 1.5, a.n)
        want = a.dense().astype(float) @ x
        u = (np.finfo(a.packed.data.dtype).eps + np.finfo(float).eps) / 2
        got = _matvec(a.packed, x)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - want) <= (a.n + 1) * u * want)


class TestThreadCount:
    """Products with A, and the scaling built on them, repeat bit for bit
    under 1 and 2 BLAS threads."""

    SCRIPT = """
import hashlib
import numpy as np
from sinklap import Affinity, DensitySpec, approx_sym_sk, build_affinity, sample_dataset
from sinklap.kernel import _matvec

# one block row, a one-row last block, and 3 full block rows plus 233 rows
singles = [
    build_affinity(sample_dataset(n, DensitySpec.SINUSOIDAL_1D, 0).points, 5e-4)
    for n in (255, 257, 1001)
]
double = Affinity(singles[-1].dense().astype(float), singles[-1].epsilon)
for a in (*singles, double):
    x = np.random.default_rng(0).uniform(0.5, 1.5, a.n)
    for v in (_matvec(a.packed, x), approx_sym_sk(a).eta):
        print(a.n, a.packed.data.dtype, hashlib.sha256(v.tobytes()).hexdigest())
"""

    def test_products_and_scaling_repeat(self):
        src = str(Path(sinklap.kernel.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.splitlines())
        kernels = [" ".join(line.split()[:2]) for line in digests[0][::2]]
        assert kernels == ["255 float32", "257 float32", "1001 float32", "1001 float64"]
        assert digests[0] == digests[1]


class TestMemory:
    """build_affinity allocates the stored triangle and tile temporaries
    only: no n x n array and no (_BLOCK, n) panel."""

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
        tracemalloc.start()
        try:
            a = build_affinity(pts, 5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the triangle in A's dtype, n^2 / 2 + n _BLOCK / 2 entries (a
        # float32 attempt is freed before a float64 restart), the tails'
        # copies and the tile temporaries
        size = a.packed.data.itemsize * (n * n // 2 + _BLOCK // 2 * n)
        bound = size + 8 * 2 * _TILE * (m + _TILE) + 2**20
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
        assert single.packed.data.dtype == np.float32
        for a, rtol in ((single, 1e-6), (double, 1e-14)):
            s = dm_scale(a)
            assert np.array_equal(s, 1.0 / np.sqrt(_matvec(a.packed, np.ones(a.n))))
            assert np.array_equal(dm_scale(a.dense()), s)
            ref = 1.0 / np.sqrt(a.dense().sum(axis=1, dtype=float))
            assert np.max(np.abs(s - ref) / ref) <= rtol

    def test_identical_points_zero_diag(self):
        a = Affinity(matrix=np.ones((3, 3)) - np.eye(3), epsilon=1.0)
        assert np.array_equal(dm_scale(a), np.full(3, 1.0 / np.sqrt(2.0)))
