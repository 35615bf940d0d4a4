"""Affinity construction and kernel moment checks."""

import os
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
from sinklap.kernel import _BLOCK, _matvec


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
    a = build_affinity(pts, eps).matrix
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
        # columnless points are named, not left to numpy's argmax
        with pytest.raises(ValueError, match=r"with n >= 2 and m >= 1$"):
            build_affinity(np.zeros((5, 0)), 1.0)

    def test_bitwise_out_of_place_formula(self):
        # float32 holds this kernel, so A is the float32 rounding of pdist's
        a = build_affinity(self.ds.points, 1e-3)
        assert a.matrix.dtype == np.float32
        assert np.array_equal(a.matrix, stored(pdist_kernel(self.ds.points, 1e-3)))

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
        kept = aff.matrix.copy()
        a[0, 1] = a[1, 0] = -1.0
        assert np.array_equal(aff.matrix, kept)
        assert a.flags.writeable and not aff.matrix.flags.writeable

    def test_outside_dtype(self):
        # a float32 kernel stays float32; anything else becomes float64
        a = self.kernel(14)
        assert Affinity(a.astype(np.float32), 1.0).matrix.dtype == np.float32
        assert Affinity(a, 1.0).matrix.dtype == np.float64
        assert Affinity(np.ones((2, 2), dtype=int), 1.0).matrix.dtype == np.float64

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
        assert build_affinity(pts, eps).matrix.dtype == np.float32
        assert_matches_pdist(pts, eps)

    def test_simple_noise_is_float32(self):
        noise = NoiseModel(NoiseKind.SIMPLE, m=2000)
        pts = noisy_dataset(400, DensitySpec.SINUSOIDAL_1D, noise, 3).points
        assert build_affinity(pts, 5e-4).matrix.dtype == np.float32
        assert assert_matches_pdist(pts, 5e-4) > 0

    def test_heteroskedastic_is_float64(self):
        noise = NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000)
        pts = noisy_dataset(400, DensitySpec.UNIFORM_CIRCLE, noise, 3).points
        assert build_affinity(pts, 5e-4).matrix.dtype == np.float64
        assert assert_matches_pdist(pts, 5e-4) > 0

    @pytest.mark.parametrize("step, dtype", [(-1e-6, np.float32), (1e-6, np.float64)])
    def test_boundary_pair(self, step, dtype):
        # d2 / (4 eps) = -ln(tiny) (1 + step): the one kernel entry sits
        # just above or just below float32's smallest normal
        x = np.sqrt(-np.log(np.finfo(np.float32).tiny) * (1.0 + step))
        pts = np.array([[1.0], [1.0 + x]])
        a = build_affinity(pts, 0.25).matrix
        assert a.dtype == dtype
        assert np.array_equal(a, stored(pdist_kernel(pts, 0.25)))

    def test_restart_from_last_block(self):
        # only the last row block reaches the far point, whose entries
        # (about 1e-108) float32 cannot hold: the restart rebuilds all of A
        pts = np.linspace(1.0, 1.1, 2 * _BLOCK + 1)[:, None]
        pts[-1] = 11.0
        a = build_affinity(pts, 0.1).matrix
        assert a.dtype == np.float64
        assert np.array_equal(a, pdist_kernel(pts, 0.1))

    def test_float64_kernel_keeps_its_products(self, monkeypatch):
        # on a float64 kernel the matvec helper is a plain float64 product,
        # so the heteroskedastic embedding repeats bit for bit with
        # ``mat @ x`` in its place
        noise = NoiseModel(NoiseKind.HETEROSKEDASTIC, m=2000)
        for seed in (0, 1):
            pts = noisy_dataset(1000, DensitySpec.UNIFORM_CIRCLE, noise, seed).points
            assert build_affinity(pts, 5e-4).matrix.dtype == np.float64

        def run():
            return embedding_experiment(1000, noise, 5e-4, replicas=2, threads=1)

        res = run()
        for module in (sinklap.sinkhorn, sinklap.laplacian):
            monkeypatch.setattr(module, "_matvec", lambda mat, x: mat @ x)
        ref = run()
        assert res.records == ref.records
        for key in ref.mse:
            assert np.array_equal(res.mse[key], ref.mse[key])
        for method in ("sk", "dm"):
            got, want = res.first_eigenpairs[method], ref.first_eigenpairs[method]
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.vectors, want.vectors)


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
    """dm_scale, the degree scale vector: 1/sqrt of the kernel's row sums."""

    def test_matches_row_sums(self):
        # the row sums are the product A 1 through _matvec, in A's
        # precision: bitwise that product, and within a stated tolerance of
        # float64-accumulated sums (float32 A: 1e-6 relative, about
        # sqrt(n) u32; float64 A: 1e-14)
        ds = sample_dataset(40, DensitySpec.UNIFORM_CIRCLE, 8)
        single = build_affinity(ds.points, 1e-3)
        double = Affinity(matrix=single.matrix.astype(float), epsilon=1e-3)
        assert single.matrix.dtype == np.float32
        for a, rtol in ((single, 1e-6), (double, 1e-14)):
            s = dm_scale(a)
            assert np.array_equal(s, 1.0 / np.sqrt(_matvec(a.matrix, np.ones(a.n))))
            assert np.array_equal(dm_scale(a.matrix), s)
            ref = 1.0 / np.sqrt(a.matrix.sum(axis=1, dtype=float))
            assert np.max(np.abs(s - ref) / ref) <= rtol

    def test_identical_points_zero_diag(self):
        a = Affinity(matrix=np.ones((3, 3)) - np.eye(3), epsilon=1.0)
        assert np.array_equal(dm_scale(a), np.full(3, 1.0 / np.sqrt(2.0)))
