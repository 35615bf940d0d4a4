"""Experiment drivers: error metrics, slope fits, alignment, sweeps."""

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform

import sinklap.experiments
from sinklap import (
    Affinity,
    DensitySpec,
    LaplacianKind,
    NoiseKind,
    NoiseModel,
    SkConfig,
    align_pair,
    embedding_experiment,
    epsilon_sweep,
    normalized_prefactor,
    pointwise_experiment,
    rel_errors,
    slope_fit,
    sweep_slopes,
)
from sinklap.cli import main
from sinklap.experiments import NOISE_SEED_OFFSET, SweepRecord


def rot(theta, refl=1.0):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s * refl], [s, c * refl]])


class TestMetrics:
    def test_rel_errors_values(self):
        r2, rinf = rel_errors([2.0, 0.0], [1.0, 0.0])
        assert r2 == 1.0 and rinf == 1.0
        r2, rinf = rel_errors([1.0, 1.0], [1.0, 1.0])
        assert r2 == 0.0 and rinf == 0.0
        with pytest.raises(ValueError):
            rel_errors([1.0], [0.0])

    def test_slope_fit(self):
        x = np.linspace(-3.0, -1.0, 7)
        y = 3.0 * x + 1.0
        assert abs(slope_fit(x, y, (0, 7)) - 3.0) < 1e-12
        y2 = y.copy()
        y2[:3] = 0.0
        assert abs(slope_fit(x, y2, (3, 7)) - 3.0) < 1e-12
        with pytest.raises(ValueError):
            slope_fit(x, y, (0, 1))
        with pytest.raises(ValueError):
            slope_fit(np.zeros(4), y[:4], (0, 4))

    def test_sweep_slopes(self):
        eps = np.geomspace(1e-4, 1e-2, 8)

        def records(errinf):
            return [
                SweepRecord(epsilon=e, relerr2_mean=e**-0.75, relerr2_std=0.0,
                            relerrinf_mean=ei, relerrinf_std=0.0,
                            mean_sk_iters=0.0, replicas=1, sk_unconverged=0)
                for e, ei in zip(eps, errinf)
            ]

        # sup-norm error flat, then linear in eps from its argmin at record 3
        turn = records(np.where(np.arange(8) < 3, 1.0, eps))
        (b1, small), (b2, large) = sweep_slopes(turn, 3)
        assert (b1, b2) == ("small_eps", "large_eps")
        assert abs(small + 0.75) < 1e-12 and abs(large - 1.0) < 1e-12
        # argmin at the last record: the fit covers the last 3 records
        falling = records(np.where(np.arange(8) < 5, eps**-2.0, eps**-0.5))
        assert abs(sweep_slopes(falling, 3)[1][1] + 0.5) < 1e-12
        for points in (1, 9):
            with pytest.raises(ValueError, match=r"points must lie in \[2, "):
                sweep_slopes(turn, points)

    def test_noise_seed_offset(self):
        assert NOISE_SEED_OFFSET == 2**32


class TestAlignPair:
    def test_recovers_rotation_and_scale(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(20, 2))
        q = rot(0.7)
        r = 2.5 * v @ q
        res = align_pair(v, r)
        assert res.mse < 1e-12
        assert abs(res.scale - 2.5) < 1e-8
        assert np.allclose(res.rotation, q, atol=1e-8)

    def test_recovers_reflection(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(15, 2))
        q = rot(1.3, refl=-1.0)
        res = align_pair(v, 0.8 * v @ q)
        assert res.mse < 1e-12
        assert abs(np.linalg.det(res.rotation) + 1.0) < 1e-10

    def test_invariant_to_frame_rotation(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(30, 2))
        r = rng.normal(size=(30, 2))
        a = align_pair(v, r)
        b = align_pair(v @ rot(0.4), r)
        assert np.isclose(a.mse, b.mse, rtol=1e-10)

    def test_rank_deficient_fallback(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(12, 2))
        r = np.zeros((12, 2))
        r[:, 0] = v[:, 0]
        res = align_pair(v, r)

        def mse_at(scale, q):
            return float(np.sum((scale * (v @ q) - r) ** 2)) / v.size

        assert np.isfinite(res.mse) and res.mse >= 0.0
        assert res.scale >= 0.0
        assert np.allclose(res.rotation @ res.rotation.T, np.eye(2), atol=1e-12)
        assert np.isclose(res.mse, mse_at(res.scale, res.rotation), rtol=1e-12, atol=0)
        # tr(Q^T M) peaks at theta = atan2(m10 - m01, m00 + m11) over
        # rotations and at atan2(m01 + m10, m00 - m11) over reflections
        m = v.T @ r
        probes = [(theta, refl) for theta in (0.0, 0.3, 1.0, 2.5, 4.0)
                  for refl in (1.0, -1.0)]
        probes += [(np.arctan2(m[1, 0] - m[0, 1], m[0, 0] + m[1, 1]), 1.0),
                   (np.arctan2(m[0, 1] + m[1, 0], m[0, 0] - m[1, 1]), -1.0)]
        for theta, refl in probes:
            q = rot(theta, refl)
            scale = max(float(np.sum((v @ q) * r)) / float(np.sum(v * v)), 0.0)
            assert res.mse <= mse_at(scale, q) * (1.0 + 1e-12)

    def test_zero_cross_term(self):
        # V^T R = 0: the best fit is s = 0, leaving all of ||R||^2
        v = np.zeros((4, 2))
        v[0, 0] = v[1, 1] = 1.0
        r = np.zeros((4, 2))
        r[2, 0], r[3, 1] = 1.0, 2.0
        res = align_pair(v, r)
        assert res.scale == 0.0
        assert res.mse == 5.0 / 8.0
        assert np.allclose(res.rotation @ res.rotation.T, np.eye(2), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            align_pair(np.ones((4, 3)), np.ones((4, 3)))
        with pytest.raises(ValueError):
            align_pair(np.ones((4, 2)), np.ones((5, 2)))
        with pytest.raises(ValueError):
            align_pair(np.zeros((4, 2)), np.ones((4, 2)))


class TestPointwise:
    def test_dm_branch(self):
        res = pointwise_experiment(
            100, DensitySpec.UNIFORM_CIRCLE, 2e-3, LaplacianKind.DM_RW
        )
        assert res.sk_iters == 0
        assert res.projection_hits == 0
        assert res.min_inlier_eta is None
        assert res.sk_converged and res.sk_residual is None
        assert 0.0 < res.relerr2 < 10.0
        assert res.relerr2 <= res.relerrinf

    def test_sk_branch(self):
        res = pointwise_experiment(
            100, DensitySpec.SINUSOIDAL_1D, 2e-3, LaplacianKind.BISTOCH_RW
        )
        assert res.sk_iters >= 1
        assert res.min_inlier_eta is not None and res.min_inlier_eta > 0.0
        assert res.sk_converged and 0.0 <= res.sk_residual < SkConfig().eps_sk

    def test_sk_outcome_when_budget_runs_out(self):
        res = pointwise_experiment(
            100, DensitySpec.SINUSOIDAL_1D, 2e-3, LaplacianKind.BISTOCH_UN,
            sk_config=SkConfig(eps_sk=1e-300, max_iter=2),
        )
        assert res.sk_iters == 2
        assert not res.sk_converged
        assert res.sk_residual > 0.0

    def test_noisy_min_eta_over_inliers(self):
        model = NoiseModel(NoiseKind.SIMPLE, 8, 0.1, 0.2)
        res = pointwise_experiment(
            120, DensitySpec.UNIFORM_CIRCLE, 2e-3, LaplacianKind.BISTOCH_RW,
            noise_model=model,
        )
        assert res.min_inlier_eta is not None and res.min_inlier_eta > 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            pointwise_experiment(50, DensitySpec.UNIFORM_CIRCLE, 1e-3, "sk")


class TestPdistEquivalence:
    """The pipeline on build_affinity's kernel against the pipeline on the
    full-width pdist kernel, whose entries with a wide row differ in the
    last bits (see ``sinklap.kernel``).  The reference is stored as
    build_affinity stores its kernel, in float32 when float32 holds every
    entry as a normal number, so both pipelines multiply in one precision
    and the tolerance stays that of the distances."""

    @staticmethod
    def pdist_affinity(points, epsilon):
        mat = np.exp(-squareform(pdist(points, "sqeuclidean")) / (4.0 * epsilon))
        if mat.min() >= np.finfo(np.float32).tiny:
            mat = mat.astype(np.float32)
        np.fill_diagonal(mat, 0.0)
        return Affinity(mat, epsilon)

    @pytest.mark.parametrize("noise", [NoiseKind.SIMPLE, NoiseKind.HETEROSKEDASTIC])
    @pytest.mark.parametrize("kind", [LaplacianKind.BISTOCH_UN, LaplacianKind.DM_UN])
    def test_pointwise_matches_pdist_pipeline(self, monkeypatch, noise, kind):
        n, eps = 600, 1e-3
        cfg = SkConfig(c_sk=0.1 * np.sqrt(normalized_prefactor(n, eps, 1)))

        def run():
            return pointwise_experiment(
                n, DensitySpec.SINUSOIDAL_1D, eps, kind, sk_config=cfg,
                noise_model=NoiseModel(noise, m=500), seed=7,
            )

        res = run()
        monkeypatch.setattr(sinklap.experiments, "build_affinity", self.pdist_affinity)
        ref = run()
        assert (res.sk_iters, res.projection_hits) == (ref.sk_iters, ref.projection_hits)
        assert res.relerr2 == pytest.approx(ref.relerr2, rel=1e-9, abs=0)
        assert res.relerrinf == pytest.approx(ref.relerrinf, rel=1e-9, abs=0)


class TestSweep:
    def test_thread_count_invariance(self):
        args = (80, DensitySpec.UNIFORM_CIRCLE, [1e-3, 2e-3], 3,
                LaplacianKind.BISTOCH_RW)
        a = epsilon_sweep(*args, threads=1)
        b = epsilon_sweep(*args, threads=2)
        assert a == b

    def test_record_fields(self):
        recs = epsilon_sweep(
            60, DensitySpec.UNIFORM_CIRCLE, [2e-3], 2, LaplacianKind.BISTOCH_RW
        )
        assert len(recs) == 1
        rec = recs[0]
        assert rec.epsilon == 2e-3 and rec.replicas == 2
        assert rec.relerr2_std >= 0.0 and rec.mean_sk_iters >= 1.0
        assert rec.sk_unconverged == 0

    def test_unconverged_replicas_counted(self):
        args = (60, DensitySpec.UNIFORM_CIRCLE, [2e-3], 3)
        starved = SkConfig(max_iter=1, eps_sk=1e-12)
        (rec,) = epsilon_sweep(*args, LaplacianKind.BISTOCH_RW, sk_config=starved)
        assert rec.sk_unconverged == 3
        (rec,) = epsilon_sweep(*args, LaplacianKind.DM_RW, sk_config=starved)
        assert rec.sk_unconverged == 0

    def test_samples_once_per_replica(self, sample_calls):
        epsilon_sweep(60, DensitySpec.UNIFORM_CIRCLE, [1e-3, 2e-3, 4e-3], 2,
                      LaplacianKind.BISTOCH_RW, base_seed=7)
        assert sorted(sample_calls) == [7, 8]

    @pytest.mark.parametrize("kind", [LaplacianKind.BISTOCH_UN, LaplacianKind.DM_RW])
    def test_matches_pointwise_runs(self, kind):
        model = NoiseModel(NoiseKind.HETEROSKEDASTIC, 16)
        grid, replicas, base_seed = [2e-3, 4e-3], 3, 5
        recs = epsilon_sweep(120, DensitySpec.SINUSOIDAL_1D, grid, replicas, kind,
                             noise_model=model, base_seed=base_seed, threads=2)
        want = []
        for eps in grid:
            runs = [
                pointwise_experiment(120, DensitySpec.SINUSOIDAL_1D, eps, kind,
                                     noise_model=model, seed=base_seed + r)
                for r in range(replicas)
            ]
            err2 = np.array([res.relerr2 for res in runs])
            errinf = np.array([res.relerrinf for res in runs])
            iters = np.array([res.sk_iters for res in runs], dtype=float)
            want.append(SweepRecord(
                epsilon=eps,
                relerr2_mean=float(err2.mean()),
                relerr2_std=float(err2.std()),
                relerrinf_mean=float(errinf.mean()),
                relerrinf_std=float(errinf.std()),
                mean_sk_iters=float(iters.mean()),
                replicas=replicas,
                sk_unconverged=sum(not res.sk_converged for res in runs),
            ))
        assert recs == want

    def test_validation(self, sample_calls):
        good = [1e-3, 2e-3]
        with pytest.raises(ValueError):
            epsilon_sweep(50, DensitySpec.UNIFORM_CIRCLE, [], 1,
                          LaplacianKind.BISTOCH_RW)
        with pytest.raises(ValueError):
            epsilon_sweep(50, DensitySpec.UNIFORM_CIRCLE, [-1e-3, 1e-3], 1,
                          LaplacianKind.BISTOCH_RW)
        for bad in ([np.nan, 1e-3], [1e-3, np.inf]):
            with pytest.raises(ValueError, match="positive and finite"):
                epsilon_sweep(50, DensitySpec.UNIFORM_CIRCLE, bad, 1,
                              LaplacianKind.BISTOCH_RW)
        with pytest.raises(ValueError):
            epsilon_sweep(50, DensitySpec.UNIFORM_CIRCLE, good[::-1], 1,
                          LaplacianKind.BISTOCH_RW)
        with pytest.raises(ValueError):
            epsilon_sweep(50, DensitySpec.UNIFORM_CIRCLE, good, 0,
                          LaplacianKind.BISTOCH_RW)
        with pytest.raises(ValueError, match="unknown laplacian kind"):
            epsilon_sweep(50, DensitySpec.UNIFORM_CIRCLE, good, 1, "sk")
        assert sample_calls == []

    def test_threads_must_be_positive(self):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            epsilon_sweep(50, DensitySpec.UNIFORM_CIRCLE, [1e-3], 1,
                          LaplacianKind.BISTOCH_RW, threads=0)


@pytest.mark.parametrize(
    "run, least",
    [
        (lambda: pointwise_experiment(1, DensitySpec.UNIFORM_CIRCLE, 1e-3,
                                      LaplacianKind.BISTOCH_RW), 2),
        (lambda: epsilon_sweep(1, DensitySpec.UNIFORM_CIRCLE, [1e-3], 2,
                               LaplacianKind.BISTOCH_RW, threads=1), 2),
        (lambda: embedding_experiment(5, NoiseModel(NoiseKind.SIMPLE, 8), 1e-3,
                                      replicas=1), 6),
    ],
    ids=["pointwise", "sweep", "embedding"],
)
def test_small_n_rejected_before_sampling(sample_calls, run, least):
    with pytest.raises(ValueError, match=f"^n must be >= {least}$"):
        run()
    assert sample_calls == []


class TestEmbedding:
    def test_structure(self):
        model = NoiseModel(NoiseKind.SIMPLE, 8, 0.05, 0.1)
        res = embedding_experiment(80, model, 2e-3, replicas=2)
        assert {(r.method, r.pair) for r in res.records} == {
            ("sk", 1), ("sk", 2), ("dm", 1), ("dm", 2)
        }
        for rec in res.records:
            assert rec.replicas == 2 and rec.mse_mean >= 0.0
        assert set(res.mse) == {("sk", 1), ("sk", 2), ("dm", 1), ("dm", 2)}
        assert all(arr.shape == (2,) for arr in res.mse.values())
        assert set(res.first_eigenpairs) == {"sk", "dm"}
        eig = res.first_eigenpairs["sk"]
        assert eig.values.shape == (5,) and eig.vectors.shape == (80, 5)
        assert res.sk_unconverged == 0

    def test_unconverged_replicas_counted(self):
        model = NoiseModel(NoiseKind.SIMPLE, 8, 0.05, 0.1)
        res = embedding_experiment(60, model, 2e-3, replicas=2,
                                   sk_config=SkConfig(max_iter=1, eps_sk=1e-12))
        assert res.sk_unconverged == 2

    @staticmethod
    def assert_thread_invariant(n, model):
        a = embedding_experiment(n, model, 2e-3, replicas=2, threads=1)
        b = embedding_experiment(n, model, 2e-3, replicas=2, threads=2)
        assert a.records == b.records
        for method in ("sk", "dm"):
            ea, eb = a.first_eigenpairs[method], b.first_eigenpairs[method]
            assert np.array_equal(ea.values, eb.values)
            assert np.array_equal(ea.vectors, eb.vectors)

    def test_deterministic(self):
        self.assert_thread_invariant(60, NoiseModel(NoiseKind.IID, 8, 0.05))

    def test_deterministic_gram_path(self):
        # m = 600 and an odd n: the tail Gram products of build_affinity
        # are large enough for the BLAS to thread, and row blocks are
        # uneven
        self.assert_thread_invariant(301, NoiseModel(NoiseKind.HETEROSKEDASTIC, 600))

    def test_validation(self):
        with pytest.raises(ValueError):
            embedding_experiment(50, None, 1e-3, replicas=0)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            embedding_experiment(50, None, 1e-3, threads=0)


class TestApproximateScaling:
    """With no projection and a start already within eps_sk, SK stops at
    its start 1/sqrt(A 1), which is dm_scale: the bistochastic pipeline
    then is the degree pipeline bit for bit."""

    config = SkConfig(c_sk=0.0, eps_sk=0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pointwise_equals_dm(self, seed):
        sk, dm = (
            pointwise_experiment(300, DensitySpec.SINUSOIDAL_1D, 1e-3, kind,
                                 sk_config=self.config, seed=seed)
            for kind in (LaplacianKind.BISTOCH_UN, LaplacianKind.DM_UN)
        )
        assert sk.sk_iters == 1 and sk.projection_hits == 0 and sk.sk_converged
        assert (sk.relerr2, sk.relerrinf) == (dm.relerr2, dm.relerrinf)

    def test_eps_sk_curve(self):
        # the paper's claim: early-terminated SK keeps the exact scaling's
        # accuracy, and every tolerance beats the degree pipeline on noisy data
        n, eps = 1000, 5e-4
        model = NoiseModel(NoiseKind.SIMPLE, 2000)
        c_sk = 0.1 * np.sqrt(normalized_prefactor(n, eps, 1))

        def mean_relerr2(kind, config=None):
            runs = [
                pointwise_experiment(n, DensitySpec.SINUSOIDAL_1D, eps, kind,
                                     sk_config=config, noise_model=model, seed=seed)
                for seed in range(4)
            ]
            assert all(res.projection_hits == 0 for res in runs)
            return np.mean([res.relerr2 for res in runs])

        dm = mean_relerr2(LaplacianKind.DM_UN)
        curve = [
            mean_relerr2(LaplacianKind.BISTOCH_UN, SkConfig(c_sk=c_sk, eps_sk=tol))
            for tol in (0.5, 1e-3, 1e-6)
        ]
        assert max(curve) - min(curve) <= 0.01
        assert max(curve) <= 0.85 * dm

    def test_embedding_equals_dm(self):
        res = embedding_experiment(300, None, 2e-3, sk_config=self.config,
                                   replicas=2)
        assert res.sk_unconverged == 0
        for pair in (1, 2):
            assert np.array_equal(res.mse[("sk", pair)], res.mse[("dm", pair)])


class TestOutlierTerm:
    def test_excess_against_ambient_dimension(self):
        # the paper's noisy error is the clean rate plus a term that follows
        # the noise vectors' inner products, which shrink as m grows: the
        # scaled pipeline's excess over clean data fades with m, while the
        # degree pipeline's does not, since its outlier attenuation
        # exp(-|xi|^2 / 4 eps) does not depend on m
        n, eps, seeds = 1000, 5e-4, range(4)
        config = SkConfig(c_sk=0.1 * np.sqrt(normalized_prefactor(n, eps, 1)))

        def mean_relerr2(kind, model):
            runs = [
                pointwise_experiment(n, DensitySpec.SINUSOIDAL_1D, eps, kind,
                                     sk_config=config, noise_model=model, seed=seed)
                for seed in seeds
            ]
            assert all(res.projection_hits == 0 for res in runs)
            return np.mean([res.relerr2 for res in runs])

        def excess(kind):
            """Mean RelErr2 over clean, at m = 250 and m = 4000."""
            clean = mean_relerr2(kind, None)
            return [mean_relerr2(kind, NoiseModel(NoiseKind.SIMPLE, m)) - clean
                    for m in (250, 4000)]

        sk, dm = excess(LaplacianKind.BISTOCH_UN), excess(LaplacianKind.DM_UN)
        assert sk[1] <= 0.25 * sk[0]
        assert dm[1] >= 0.5 * dm[0]


class TestCsvWriters:
    """The sweep and embed records as the CLI writes them through csvio."""

    def test_sweep_roundtrip(self, tmp_path):
        path = tmp_path / "sweep.csv"
        args = ["sweep", "--n", "50", "--density", "uniform_circle",
                "--eps-grid", "1e-3:2e-3:2log", "--replicas", "1",
                "--lap", "bistoch_rw", "--threads", "1", "--out", str(path)]
        assert main(args) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].count(",") == 6
        first = path.read_bytes()
        assert main(args) == 0
        assert path.read_bytes() == first

    def test_embedding_roundtrip(self, tmp_path):
        path = tmp_path / "embed.csv"
        assert main(["embed", "--n", "50", "--epsilon", "2e-3", "--replicas", "1",
                     "--m", "8", "--sigma-out", "0.05", "--p-out", "0.1",
                     "--threads", "1", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[0].count(",") == 4
        assert lines[1].startswith("sk,1,")
