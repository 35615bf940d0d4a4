"""Laplacian operators, scaling families, and the eigensolver."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackNoConvergence

import sinklap.laplacian
from sinklap import (
    Affinity,
    DegenerateInputError,
    DensitySpec,
    LaplacianForm,
    LaplacianKind,
    NumericalFailureError,
    SkConfig,
    align_pair,
    apply_rescaled,
    approx_sym_sk,
    build_affinity,
    dm_scale,
    laplacian_from_affinity,
    sample_dataset,
    scaling_residual,
    smallest_eigenpairs,
)


def circle_affinity(n=200, eps=2e-3, seed=3):
    ds = sample_dataset(n, DensitySpec.UNIFORM_CIRCLE, seed)
    return ds, build_affinity(ds.points, eps)


def kernel(mat, epsilon=1.0):
    return Affinity(matrix=mat, epsilon=epsilon)


def random_kernel(rng, n, epsilon=1.0):
    a = rng.uniform(0.1, 1.0, size=(n, n))
    return kernel((a + a.T) / 2.0, epsilon)


# A circle kernel at these bandwidths is float32, so every product with A
# rounds in float32: a length-n dot product of non-negative terms errs by
# about sqrt(n) u32 relative (8.4e-7 at n = 200, u32 = 2^-24), where the
# float64 products erred near 1e-15.  The dense references below are
# exact float64 arithmetic on the same float32 entries.
F32_TOL = 1e-6


def dense_laplacian(lap):
    """L column by column; exact when epsilon = 1."""
    n = lap.kernel.n
    return np.column_stack(
        [-lap.epsilon * apply_rescaled(lap, e) for e in np.eye(n)]
    )


def dense_reference(a, s, form):
    """The materialized path: K = A * outer(s, s), then D - K or I - K / deg."""
    k = a.matrix * np.multiply.outer(s, s)
    deg = k.sum(axis=1)
    if form is LaplacianForm.UNNORMALIZED:
        return k, np.diag(deg) - k
    return k, np.eye(a.n) - k / deg[:, None]


def dense_eigenpairs(k, count):
    """Random-walk eigenpairs through eigh of I - K * outer(root, root)."""
    root = 1.0 / np.sqrt(k.sum(axis=1))
    vals, phi = eigh(np.eye(k.shape[0]) - k * np.multiply.outer(root, root),
                     subset_by_index=[0, count - 1])
    psi = phi * root[:, None]
    return vals, psi / np.linalg.norm(psi, axis=0)


class TestForms:
    def test_unnormalized_permutation(self):
        lap = laplacian_from_affinity(kernel(np.array([[0.0, 1.0], [1.0, 0.0]])),
                                      LaplacianForm.UNNORMALIZED, np.ones(2))
        assert np.array_equal(dense_laplacian(lap),
                              np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_constant_annihilation(self):
        rng = np.random.default_rng(0)
        a = random_kernel(rng, 8)
        ones = np.ones(8)
        for form in LaplacianForm:
            for scale in (np.ones(8), rng.uniform(0.5, 2.0, size=8)):
                lap = laplacian_from_affinity(a, form, scale)
                assert np.abs(apply_rescaled(lap, ones)).max() < 1e-12

    def test_unnormalized_symmetric(self):
        rng = np.random.default_rng(1)
        a = random_kernel(rng, 6)
        lap = laplacian_from_affinity(a, LaplacianForm.UNNORMALIZED,
                                      rng.uniform(0.5, 2.0, size=6))
        mat = dense_laplacian(lap)
        assert np.allclose(mat, mat.T, rtol=1e-15, atol=1e-15)

    def test_random_walk_degenerate(self):
        a = kernel(np.zeros((3, 3)))
        with pytest.raises(DegenerateInputError):
            laplacian_from_affinity(a, LaplacianForm.RANDOM_WALK, np.ones(3))

    def test_apply_rescaled(self):
        rng = np.random.default_rng(2)
        a = random_kernel(rng, 5, epsilon=2e-3)
        s = rng.uniform(0.5, 2.0, size=5)
        f = rng.normal(size=5)
        for form in LaplacianForm:
            lap = laplacian_from_affinity(a, form, s)
            assert lap.epsilon == 2e-3
            want = -(dense_reference(a, s, form)[1] @ f) / 2e-3
            assert np.allclose(apply_rescaled(lap, f), want, rtol=1e-13, atol=0)
        with pytest.raises(ValueError):
            apply_rescaled(lap, np.ones((5, 5)))


class TestScaledAffinities:
    def setup_method(self):
        self.ds, self.aff = circle_affinity()

    def test_bistochastic_rows(self):
        res = approx_sym_sk(self.aff, SkConfig(eps_sk=1e-6, max_iter=100))
        lap = laplacian_from_affinity(self.aff, LaplacianForm.UNNORMALIZED, res.eta)
        assert np.abs(lap.degrees - 1.0).max() < 1e-6
        assert lap.kernel is self.aff

    def test_bistochastic_validates_eta(self):
        for eta in (np.ones(3), np.zeros(self.aff.n),
                    np.full(self.aff.n, np.inf), np.full(self.aff.n, np.nan)):
            with pytest.raises(ValueError):
                laplacian_from_affinity(self.aff, LaplacianForm.UNNORMALIZED, eta)
        with pytest.raises(ValueError):
            laplacian_from_affinity(self.aff, "random_walk", np.ones(self.aff.n))

    def test_kernel_must_be_affinity(self):
        with pytest.raises(TypeError, match="must be an Affinity, not ndarray"):
            laplacian_from_affinity(self.aff.matrix, LaplacianForm.UNNORMALIZED,
                                    np.ones(self.aff.n))

    def test_dm_hand_value(self):
        a = Affinity(matrix=np.array([[0.0, 2.0, 1.0],
                                      [2.0, 0.0, 1.0],
                                      [1.0, 1.0, 0.0]]),
                     epsilon=1.0)
        s = dm_scale(a)
        assert np.array_equal(s, 1.0 / np.sqrt([3.0, 3.0, 2.0]))
        # K_01 = 2 / sqrt(3 * 3), K_02 = 1 / sqrt(3 * 2)
        lap = laplacian_from_affinity(a, LaplacianForm.UNNORMALIZED, s)
        mat = dense_laplacian(lap)
        assert np.isclose(-mat[0, 1], 2.0 / 3.0, rtol=1e-15)
        assert np.isclose(-mat[0, 2], 1.0 / np.sqrt(6.0), rtol=1e-15)

    def test_dm_degenerate(self):
        a = Affinity(matrix=np.zeros((2, 2)), epsilon=1.0)
        with pytest.raises(DegenerateInputError):
            dm_scale(a)

    def test_kind_derivation(self):
        table = [
            (LaplacianKind.BISTOCH_UN, True, LaplacianForm.UNNORMALIZED),
            (LaplacianKind.BISTOCH_RW, True, LaplacianForm.RANDOM_WALK),
            (LaplacianKind.DM_UN, False, LaplacianForm.UNNORMALIZED),
            (LaplacianKind.DM_RW, False, LaplacianForm.RANDOM_WALK),
        ]
        for kind, bistochastic, form in table:
            assert kind.bistochastic is bistochastic
            assert kind.form is form

    def test_kind_partitions(self):
        pairs = {(kind.bistochastic, kind.form) for kind in LaplacianKind}
        assert pairs == {(b, f) for b in (True, False) for f in LaplacianForm}


class TestDenseEquivalence:
    """The operator against the materialized K and L, for all four kinds."""

    def setup_method(self):
        self.ds, self.aff = circle_affinity()
        self.eta = approx_sym_sk(self.aff).eta

    def scale(self, kind):
        if kind.bistochastic:
            return self.eta
        s = dm_scale(self.aff)
        assert np.array_equal(s, 1.0 / np.sqrt(self.aff.matrix.sum(axis=1, dtype=float)))
        return s

    @pytest.mark.parametrize("kind", list(LaplacianKind))
    def test_apply(self, kind):
        s = self.scale(kind)
        lap = laplacian_from_affinity(self.aff, kind.form, s)
        f = np.cos(2.0 * np.pi * self.ds.t) + 0.5 * np.sin(6.0 * np.pi * self.ds.t)
        want = -(dense_reference(self.aff, s, kind.form)[1] @ f) / self.aff.epsilon
        got = apply_rescaled(lap, f)
        # D f - K f cancels about fourfold here; measured 2.6e-7
        assert np.linalg.norm(got - want) <= 10 * F32_TOL * np.linalg.norm(want)

    def assert_eigenpairs_match(self, s):
        lap = laplacian_from_affinity(self.aff, LaplacianForm.RANDOM_WALK, s)
        eig = smallest_eigenpairs(lap, 5)
        k = dense_reference(self.aff, s, LaplacianForm.RANDOM_WALK)[0]
        vals, vecs = dense_eigenpairs(k, 5)
        # Weyl: the eigenvalues move by at most the operator's error; 1e-8
        # measured
        assert np.abs(eig.values - vals).max() < F32_TOL
        for lo, h in ((1, 1), (3, 2)):
            ref = np.stack([np.sin(2.0 * np.pi * h * self.ds.t),
                            np.cos(2.0 * np.pi * h * self.ds.t)], axis=-1)
            got = align_pair(eig.vectors[:, lo:lo + 2], ref).mse
            want = align_pair(vecs[:, lo:lo + 2], ref).mse
            # the alignment error of a pair, relative: 1.1e-6 measured
            assert abs(got - want) <= 10 * F32_TOL * want

    @pytest.mark.parametrize("kind", [k for k in LaplacianKind
                                      if k.form is LaplacianForm.RANDOM_WALK])
    def test_eigenpairs(self, kind):
        self.assert_eigenpairs_match(self.scale(kind))

    def test_eigenpairs_tight_scaling(self):
        # degrees are 1 to ~1e-6, as close as float32 products test them
        # (residuals stall near 1e-7), so the constant Lanczos start is
        # almost exactly the trivial eigenvector: the hard case for a fixed
        # start
        res = approx_sym_sk(self.aff, SkConfig(eps_sk=F32_TOL, c_sk=0.0))
        assert res.converged
        self.assert_eigenpairs_match(res.eta)


class TestEigensolve:
    def setup_method(self):
        self.ds, self.aff = circle_affinity()
        res = approx_sym_sk(self.aff, SkConfig(c_sk=0.0))
        self.eta = res.eta
        self.lap = laplacian_from_affinity(self.aff, LaplacianForm.RANDOM_WALK, res.eta)

    def test_requires_random_walk_and_source(self):
        un = laplacian_from_affinity(self.aff, LaplacianForm.UNNORMALIZED, self.eta)
        with pytest.raises(ValueError):
            smallest_eigenpairs(un, 3)
        with pytest.raises(ValueError):
            smallest_eigenpairs(self.lap, 0)
        with pytest.raises(ValueError, match=r"\[1, n - 1\]"):
            smallest_eigenpairs(self.lap, self.aff.n)
        with pytest.raises(ValueError):
            smallest_eigenpairs(self.lap, self.aff.n + 1)

    def test_invariant_start_deterministic(self):
        # a complete graph has two distinct eigenvalues, so every Krylov
        # space turns invariant and Lanczos draws a restart vector, which
        # must come from a fixed seed
        a = kernel(np.ones((50, 50)) - np.eye(50))
        lap = laplacian_from_affinity(a, LaplacianForm.RANDOM_WALK, np.ones(50))
        first, second = smallest_eigenpairs(lap, 3), smallest_eigenpairs(lap, 3)
        assert np.array_equal(first.vectors, second.vectors)

    def test_nonconvergence_named(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(sinklap.laplacian, "eigsh", fail)
        with pytest.raises(NumericalFailureError, match="eigensolver did not converge"):
            smallest_eigenpairs(self.lap, 3)

    def test_circle_spectrum(self):
        eig = smallest_eigenpairs(self.lap, 5)
        assert np.all(np.diff(eig.values) >= 0)
        # the trivial eigenvalue to float32 product accuracy; 1.0e-8 measured
        assert abs(eig.values[0]) < F32_TOL
        # first harmonic pair approximates the analytic 4 pi^2 at coarse n
        rescaled = eig.values[1:3] / 2e-3
        assert np.all(np.abs(rescaled / (4.0 * np.pi**2) - 1.0) < 0.35)

    def test_eigen_equation(self):
        eig = smallest_eigenpairs(self.lap, 4)
        for value, vec in zip(eig.values, eig.vectors.T):
            lv = -self.lap.epsilon * apply_rescaled(self.lap, vec)
            # 1.3e-8 measured
            assert np.abs(lv - value * vec).max() < F32_TOL

    def test_vector_conventions(self):
        eig = smallest_eigenpairs(self.lap, 4)
        assert np.allclose(np.linalg.norm(eig.vectors, axis=0), 1.0, rtol=1e-12)
        for j in range(4):
            col = eig.vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0
        # the trivial mode of a connected graph is constant
        c0 = eig.vectors[:, 0]
        assert c0.max() / c0.min() - 1.0 < 1e-6

    def test_peak_memory_matrix_free(self):
        # a quarter of one n x n array: only O(n k) vectors may be allocated
        _, aff = circle_affinity(n=1000, eps=5e-4, seed=0)
        lap = laplacian_from_affinity(aff, LaplacianForm.RANDOM_WALK, dm_scale(aff))
        tracemalloc.start()
        try:
            smallest_eigenpairs(lap, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestFloat32Memory:
    """On a float32 kernel no step multiplies through a float64 copy of A:
    numpy would make one, n x n, for float32 A @ float64 x, so every
    product casts its vector to float32 instead."""

    def setup_method(self):
        _, self.aff = circle_affinity(n=1000, eps=5e-4, seed=0)
        assert self.aff.matrix.dtype == np.float32
        self.eta = approx_sym_sk(self.aff).eta
        self.lap = {
            form: laplacian_from_affinity(self.aff, form, self.eta)
            for form in LaplacianForm
        }

    @pytest.mark.parametrize(
        "step",
        [
            lambda t: approx_sym_sk(t.aff),
            lambda t: approx_sym_sk(t.aff.matrix),
            lambda t: dm_scale(t.aff),
            lambda t: dm_scale(t.aff.matrix),
            lambda t: scaling_residual(t.aff, t.eta),
            lambda t: laplacian_from_affinity(t.aff, LaplacianForm.RANDOM_WALK, t.eta),
            lambda t: apply_rescaled(t.lap[LaplacianForm.UNNORMALIZED], t.eta),
            lambda t: smallest_eigenpairs(t.lap[LaplacianForm.RANDOM_WALK], 5),
        ],
        ids=[
            "approx_sym_sk", "approx_sym_sk-ndarray", "dm_scale", "dm_scale-ndarray",
            "scaling_residual", "laplacian_from_affinity", "apply_rescaled",
            "smallest_eigenpairs",
        ],
    )
    def test_no_float64_kernel_copy(self, step):
        # a quarter of one n x n float64 array, half of the float32 A
        tracemalloc.start()
        try:
            step(self)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
