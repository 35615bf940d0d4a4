"""Scaling solver checks against a brute-force fixed-point oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinklap import (
    Affinity,
    DegenerateInputError,
    DensitySpec,
    NumericalFailureError,
    SkConfig,
    approx_sym_sk,
    build_affinity,
    dm_scale,
    normalized_prefactor,
    population_reference,
    sample_dataset,
    scaling_residual,
)
from sinklap.kernel import _matvec

PERM2 = np.array([[0.0, 1.0], [1.0, 0.0]])


def random_spd_affinity(rng, n):
    """Random symmetric entrywise-positive matrix, well away from zero."""
    a = rng.uniform(0.1, 2.0, size=(n, n))
    return (a + a.T) / 2.0


def oracle_eta(a, tol=1e-15, max_iter=20000):
    """Damped classical symmetric iteration eta <- sqrt(eta / (A eta)).

    Independent of the accelerated solver; linear but safe convergence
    for entrywise-positive matrices.
    """
    eta = np.ones(a.shape[0])
    for _ in range(max_iter):
        res = np.max(np.abs(eta * (a @ eta) - 1.0))
        if res <= tol:
            return eta
        eta = np.sqrt(eta / (a @ eta))
    raise AssertionError(f"oracle failed to converge, residual {res:.3e}")


class TestFixture:
    def test_permutation_is_fixed_point(self):
        res = approx_sym_sk(PERM2)
        assert res.iterations == 1
        assert res.converged
        assert res.projection_hits == 0
        assert np.array_equal(res.residual_history, np.array([0.0]))
        assert np.array_equal(res.eta, np.ones(2))

    def test_rowsum_start_first_residual(self):
        rng = np.random.default_rng(3)
        a = random_spd_affinity(rng, 6)
        res = approx_sym_sk(a, SkConfig(c_sk=0.0, eps_sk=1e-10, max_iter=80))
        eta0 = 1.0 / np.sqrt(a.sum(axis=1))
        want = np.max(np.abs(eta0 * (a @ eta0) - 1.0))
        assert res.residual_history[0] == want

    def test_residual_helper(self):
        rng = np.random.default_rng(4)
        a = random_spd_affinity(rng, 5)
        eta = rng.uniform(0.5, 1.5, size=5)
        assert np.array_equal(scaling_residual(a, eta), eta * (a @ eta) - 1.0)
        # every scaling reads an ndarray as its Affinity with bandwidth 1,
        # in the array's own precision, bit for bit
        for m in (a, a.astype(np.float32)):
            kernel = Affinity(m, 1.0)
            got, want = approx_sym_sk(m), approx_sym_sk(kernel)
            assert got.converged and want.converged
            for x, y in ((got.eta, want.eta),
                         (got.residual_history, want.residual_history),
                         (got.product, want.product),
                         (dm_scale(m), dm_scale(kernel)),
                         (scaling_residual(m, eta), scaling_residual(kernel, eta))):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


class TestOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        cfg = SkConfig(c_sk=0.0, eps_sk=1e-12, max_iter=300)
        for _ in range(20):
            a = random_spd_affinity(rng, 5)
            ref = oracle_eta(a)
            res = approx_sym_sk(a, cfg)
            assert res.converged
            rel = np.max(np.abs(res.eta - ref) / ref)
            assert rel < 1e-8


class TestProperties:
    def test_fixed_point_of_accelerated_update(self):
        # one accelerated step at the solved point must not move it
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = random_spd_affinity(rng, 4)
            eta = oracle_eta(a)
            u = 1.0 / (a @ eta)
            v = 1.0 / (a @ u)
            eta2 = np.sqrt(u * v)
            assert np.max(np.abs(eta2 - eta) / eta) < 1e-14

    def test_scale_equivariance(self):
        # identical iteration count forced via an unreachable tolerance
        rng = np.random.default_rng(5)
        cfg = SkConfig(c_sk=0.0, eps_sk=1e-300, max_iter=12)
        for _ in range(100):
            a = random_spd_affinity(rng, 5)
            c = rng.uniform(0.25, 4.0)
            e1 = approx_sym_sk(c * a, cfg).eta
            e2 = approx_sym_sk(a, cfg).eta / np.sqrt(c)
            assert np.max(np.abs(e1 - e2) / e2) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1), st.booleans())
    def test_permutation_equivariance(self, n, seed, project):
        rng = np.random.default_rng(seed)
        a = random_spd_affinity(rng, n) * 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
        a = np.sqrt(a * a.T)
        perm = rng.permutation(n)
        cfg = SkConfig(c_sk=0.5 if project else 0.0, eps_sk=1e-300, max_iter=12)
        e1 = approx_sym_sk(a[np.ix_(perm, perm)], cfg).eta
        e2 = approx_sym_sk(a, cfg).eta[perm]
        assert np.max(np.abs(e1 - e2) / e2) < 1e-12

    def test_history_decreases_on_kernel(self):
        ds = sample_dataset(200, DensitySpec.SINUSOIDAL_1D, 6)
        a = build_affinity(ds.points, 1e-3)
        res = approx_sym_sk(a)
        assert res.converged
        assert res.iterations <= 10
        assert np.all(np.diff(res.residual_history) < 0)

    def test_converged_matches_last_residual(self):
        ds = sample_dataset(100, DensitySpec.SINUSOIDAL_1D, 7)
        a = build_affinity(ds.points, 1e-3)
        good = approx_sym_sk(a, SkConfig(eps_sk=1e-6, max_iter=50))
        assert good.converged == (good.residual_history[-1] < 1e-6)
        # the residual's product comes with a converged eta, bitwise
        assert np.array_equal(good.product, _matvec(a, good.eta))
        starved = approx_sym_sk(a, SkConfig(eps_sk=1e-300, max_iter=4))
        assert not starved.converged and starved.product is None
        assert starved.iterations == 4
        assert starved.residual_history.shape == (4,)


class TestProjection:
    def test_clamp_counts_and_floor(self):
        a = np.array([[1.0, 1.0, 50.0], [1.0, 1.0, 1.0], [50.0, 1.0, 200.0]])
        res = approx_sym_sk(a, SkConfig(c_sk=0.2, eps_sk=1e-8, max_iter=30))
        assert res.projection_hits >= 2
        assert np.all(res.eta >= 0.2)

    def test_disabled_projection(self):
        a = np.array([[1.0, 1.0, 50.0], [1.0, 1.0, 1.0], [50.0, 1.0, 200.0]])
        res = approx_sym_sk(a, SkConfig(c_sk=0.0, eps_sk=1e-10, max_iter=100))
        assert res.projection_hits == 0
        assert res.converged


class TestValidation:
    def test_zero_row_degenerate(self):
        with pytest.raises(DegenerateInputError):
            approx_sym_sk(np.array([[0.0, 0.0], [0.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            approx_sym_sk(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_one_asymmetric_entry_rejected(self):
        a = random_spd_affinity(np.random.default_rng(8), 600)
        a[599, 3] = np.nextafter(a[599, 3], 3.0)
        with pytest.raises(ValueError, match="symmetric"):
            approx_sym_sk(a)

    def test_nan_entry_rejected(self):
        a = random_spd_affinity(np.random.default_rng(9), 600)
        a[10, 400] = a[400, 10] = np.nan
        with pytest.raises(ValueError, match="finite"):
            approx_sym_sk(a)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            approx_sym_sk(np.array([[1.0, -1.0], [-1.0, 1.0]]))

    def test_negative_pair_rejected(self):
        # past the first 256-row tile, so the sign check must reach it
        a = random_spd_affinity(np.random.default_rng(10), 600)
        a[300, 580] = a[580, 300] = -1e-3
        with pytest.raises(ValueError, match="non-negative"):
            approx_sym_sk(a)

    def test_asymmetry_reported_before_sign(self):
        # a negative pair in an early tile, the asymmetry in a later one
        a = random_spd_affinity(np.random.default_rng(11), 600)
        a[5, 300] = a[300, 5] = -1e-3
        a[599, 400] = -1.0
        with pytest.raises(ValueError, match="symmetric"):
            approx_sym_sk(a)

    def test_dm_scale_reads_the_kernel_check(self):
        a = random_spd_affinity(np.random.default_rng(12), 5)
        a[4, 0] += 0.5
        with pytest.raises(ValueError, match="matrix must be symmetric"):
            dm_scale(a)
        with pytest.raises(ValueError, match="matrix must be non-negative"):
            dm_scale(np.array([[1.0, -1.0], [-1.0, 3.0]]))
        with pytest.raises(DegenerateInputError, match="zero row"):
            dm_scale(np.zeros((2, 2)))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            approx_sym_sk(np.ones((2, 3)))

    def test_residual_vector_length_checked(self):
        # the packed product reads x through a pointer: a short vector
        # must fail by name before BLAS reads past its end
        a = random_spd_affinity(np.random.default_rng(6), 5)
        for eta in (np.ones(3), np.ones(6), np.ones((5, 1))):
            with pytest.raises(ValueError, match=r"^vector must have shape \(5,\)$"):
                scaling_residual(a, eta)

    def test_residual_eta_checked(self):
        # a NaN, negative or zero eta gave a residual of NaN, -2 or -1
        a = random_spd_affinity(np.random.default_rng(6), 2)
        for eta in ([np.nan, 1.0], [-1.0, 1.0], [0.0, 1.0], [np.inf, 1.0], "1"):
            with pytest.raises(ValueError, match="^eta must be positive and finite$"):
                scaling_residual(a, eta)
        # a list of positive numbers is read as its array
        assert np.array_equal(scaling_residual(a, [0.5, 2.0]),
                              scaling_residual(a, np.array([0.5, 2.0])))

    def test_numerical_failure_flags_iteration(self):
        a = np.full((2, 2), 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailureError) as err:
                approx_sym_sk(a, SkConfig(c_sk=0.0))
        assert err.value.iteration == 1

    def test_config_validation(self):
        for bad in (
            dict(c_sk=-0.1),
            dict(c_sk=np.nan),
            dict(c_sk=np.inf),
            dict(eps_sk=0.0),
            dict(eps_sk=np.nan),
            dict(eps_sk=np.inf),
            dict(max_iter=0),
        ):
            with pytest.raises(ValueError):
                SkConfig(**bad)
        for bad in (2.5, 2.0):
            with pytest.raises(ValueError, match="max_iter must be an integer"):
                SkConfig(max_iter=bad)
        # a value that is not a number fails the rule by name, not in numpy
        for bad in ("0.1", None, True):
            with pytest.raises(ValueError, match="^c_sk must be finite and >= 0$"):
                SkConfig(c_sk=bad)
            with pytest.raises(ValueError, match="^eps_sk must be positive and finite$"):
                SkConfig(eps_sk=bad)


class TestConventions:
    def test_solutions_related_by_prefactor(self):
        # the normalized kernel kappa A needs no kernel of its own: its
        # scaling is the unscaled one over sqrt(kappa)
        ds = sample_dataset(50, DensitySpec.SINUSOIDAL_1D, 8)
        a = build_affinity(ds.points, 1e-3)
        kappa = normalized_prefactor(50, 1e-3, 1)
        # A is float32: kappa A rounds every entry again (2^-24 relative)
        # and each product rounds in float32, whose residuals stall near
        # 1e-7, so both solve to 1e-6 and agree to that (1.7e-7 measured)
        assert a.data.dtype == np.float32
        cfg = SkConfig(c_sk=0.0, eps_sk=1e-6, max_iter=200)
        ru = approx_sym_sk(a, cfg)
        rn = approx_sym_sk(kappa * a.dense(), cfg)
        assert ru.converged and rn.converged and ru.iterations == rn.iterations
        converted = ru.eta / np.sqrt(kappa)
        assert np.max(np.abs(converted - rn.eta) / rn.eta) < 1e-6


class TestPopulationLimit:
    def test_eta_tracks_inverse_root_density(self):
        ds = sample_dataset(1000, DensitySpec.SINUSOIDAL_1D, 7)
        a = build_affinity(ds.points, 1e-3)
        res = approx_sym_sk(a, SkConfig(eps_sk=1e-6, max_iter=200))
        eta_n = res.eta / np.sqrt(normalized_prefactor(a.n, a.epsilon, 1))
        ref = population_reference(ds, DensitySpec.SINUSOIDAL_1D)
        rel = np.abs(eta_n - ref) / ref
        assert np.median(rel) < 0.05
        assert rel.max() < 0.5
        assert eta_n.min() > 0.5
