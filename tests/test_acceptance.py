"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a one-line PASS/FAIL summary with the measured
numbers before asserting, so failures are self-explanatory.

Two checks fail at this sample size and are left failing rather than
loosened (see README, Known failing checks): the clean-sweep minimum
mean RelErr2 lands near 0.18 at n=3000, above its 0.1 gate, and the
noisy-replica RelErr2 clears 0.2 in only about a third of replicas.
Both trace to the same finite-sample error floor, which decays like
n**(-2/9) and sits near 0.17 at n=3000.
"""

import time

import numpy as np
import pytest

from sinklap import (
    Dataset,
    DensitySpec,
    LaplacianForm,
    LaplacianKind,
    NoiseKind,
    NoiseModel,
    SkConfig,
    add_noise,
    approx_sym_sk,
    build_affinity,
    cross_term_stats,
    embed_ambient,
    embedding_experiment,
    epsilon_sweep,
    kernel_moments,
    laplacian_from_affinity,
    normalized_prefactor,
    pointwise_experiment,
    sample_dataset,
    slope_fit,
    smallest_eigenpairs,
)
from sinklap.cli import main
from sinklap.experiments import NOISE_SEED_OFFSET

FOUR_PI_SQ = 4.0 * np.pi**2


def random_positive_symmetric(rng, n):
    a = rng.uniform(0.1, 2.0, size=(n, n))
    return (a + a.T) / 2.0


def oracle_eta(a, tol=1e-15, max_iter=20000):
    eta = np.ones(a.shape[0])
    for _ in range(max_iter):
        res = np.max(np.abs(eta * (a @ eta) - 1.0))
        if res <= tol:
            return eta
        eta = np.sqrt(eta / (a @ eta))
    raise AssertionError(f"oracle failed to converge, residual {res:.3e}")


def noisy_dataset(n, spec, model, seed):
    ds = sample_dataset(n, spec, seed)
    embedded = Dataset(
        t=ds.t, clean_points=embed_ambient(ds.clean_points, model.m), seed=ds.seed
    )
    return add_noise(embedded, model, seed + NOISE_SEED_OFFSET)


def report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def clean_sweep():
    # n=3000, 20 replicas, 10 log-spaced bandwidths: the workhorse sweep
    eps_grid = np.geomspace(1e-4, 1e-2, 10)
    records = epsilon_sweep(
        3000,
        DensitySpec.SINUSOIDAL_1D,
        eps_grid,
        20,
        LaplacianKind.BISTOCH_UN,
        base_seed=0,
    )
    return np.log(eps_grid), records


@pytest.fixture(scope="module")
def noisy_runs():
    model = NoiseModel(NoiseKind.SIMPLE, m=2000, sigma_out=0.1, p_out=0.1)
    # lower-bound 0.1 stated in the normalized convention; the solver
    # works on the unscaled kernel, so convert via the prefactor
    c_sk = 0.1 * np.sqrt(normalized_prefactor(3000, 5e-4, 1))
    cfg = SkConfig(c_sk=c_sk)
    return [
        pointwise_experiment(
            3000,
            DensitySpec.SINUSOIDAL_1D,
            5e-4,
            LaplacianKind.BISTOCH_UN,
            sk_config=cfg,
            noise_model=model,
            seed=100 + rep,
        )
        for rep in range(20)
    ]


@pytest.fixture(scope="module")
def embedding_runs():
    runs = {}
    for kind in (NoiseKind.HETEROSKEDASTIC, NoiseKind.IID):
        model = NoiseModel(kind, m=2000, sigma_out=0.1, p_out=0.1)
        runs[kind] = embedding_experiment(1000, model, 5e-4, replicas=20, base_seed=0)
    return runs


def test_criterion_1_kernel_moments():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        m0, m2 = kernel_moments(d)
        worst = max(worst, abs(m0 - 1.0), abs(m2 - 2.0))
    wall = time.perf_counter() - start
    ok = worst < 1e-6 and wall < 1.0
    report("1", ok, f"max moment deviation {worst:.2e}, wall {wall:.3f}s")
    assert worst < 1e-6
    assert wall < 1.0


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(42)
    cfg = SkConfig(c_sk=0.0, eps_sk=1e-12, max_iter=500)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        n = 4 if trial % 2 == 0 else 8
        a = random_positive_symmetric(rng, n)
        got = approx_sym_sk(a, cfg).eta
        want = oracle_eta(a)
        worst = max(worst, float(np.max(np.abs(got - want) / want)))
    wall = time.perf_counter() - start
    ok = worst < 1e-8 and wall < 10.0
    report("2", ok, f"200 matrices, worst relative gap {worst:.2e}, wall {wall:.2f}s")
    assert worst < 1e-8
    assert wall < 10.0


def test_criterion_3_fixed_point_and_equivariance():
    rng = np.random.default_rng(7)
    worst_fp = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 10))
        a = random_positive_symmetric(rng, n)
        eta = oracle_eta(a)
        u = 1.0 / (a @ eta)
        v = 1.0 / (a @ u)
        step = np.sqrt(u * v)
        worst_fp = max(worst_fp, float(np.max(np.abs(step - eta) / eta)))
    cfg = SkConfig(c_sk=0.0, eps_sk=1e-300, max_iter=12)
    worst_eq = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 10))
        a = random_positive_symmetric(rng, n)
        c = float(rng.uniform(0.25, 4.0))
        base = approx_sym_sk(a, cfg).eta
        scaled = approx_sym_sk(c * a, cfg).eta
        worst_eq = max(
            worst_eq, float(np.max(np.abs(scaled - base / np.sqrt(c)) / np.abs(base)))
        )
    ok = worst_fp < 1e-14 and worst_eq < 1e-12
    report("3", ok, f"fixed-point gap {worst_fp:.2e}, equivariance gap {worst_eq:.2e}")
    assert worst_fp < 1e-14
    assert worst_eq < 1e-12


def test_criterion_4a_sweep_u_shape(clean_sweep):
    _, records = clean_sweep
    r2 = np.array([rec.relerr2_mean for rec in records])
    k = int(np.argmin(r2))
    u_shaped = (
        0 < k < len(r2) - 1
        and bool(np.all(np.diff(r2[: k + 1]) < 0))
        and r2[k + 1] > r2[k]
        and r2[k + 2] > r2[k + 1]
    )
    ok = u_shaped and r2[k] < 0.1
    report(
        "4a",
        ok,
        f"u-shaped {u_shaped}, min mean relerr2 {r2[k]:.4f} at point {k}, gate 0.1",
    )
    assert u_shaped
    assert r2[k] < 0.1, (
        f"minimum mean RelErr2 over the sweep is {r2[k]:.4f}, above the 0.1 gate; "
        f"the finite-sample error floor scales like n**(-2/9) and sits near 0.17 "
        f"at n=3000, so the gate is not reachable at this size (see README)"
    )


def test_criterion_4b_small_bandwidth_slope(clean_sweep):
    log_eps, records = clean_sweep
    slope = slope_fit(
        log_eps, np.log([rec.relerr2_mean for rec in records]), (0, 3)
    )
    ok = -0.95 <= slope <= -0.55
    report("4b", ok, f"small-bandwidth relerr2 slope {slope:.4f}, gate [-0.95, -0.55]")
    assert -0.95 <= slope <= -0.55


def test_criterion_4c_large_bandwidth_slope(clean_sweep):
    log_eps, records = clean_sweep
    ri = np.array([rec.relerrinf_mean for rec in records])
    k0 = int(np.argmin(ri))
    slope = slope_fit(log_eps, np.log(ri), (k0, k0 + 3))
    ok = 0.7 <= slope <= 1.3
    report("4c", ok, f"large-bandwidth relerrinf slope {slope:.4f}, gate [0.7, 1.3]")
    assert 0.7 <= slope <= 1.3


def test_criterion_4d_scaling_iterations(clean_sweep):
    _, records = clean_sweep
    worst = max(rec.mean_sk_iters for rec in records)
    ok = worst <= 10.0
    report("4d", ok, f"max mean scaling iterations {worst:.2f}, gate 10")
    assert worst <= 10.0


def test_criterion_5_noise_robustness(noisy_runs):
    good = sum(res.relerr2 < 0.2 for res in noisy_runs)
    hits = max(res.projection_hits for res in noisy_runs)
    min_eta = min(res.min_inlier_eta for res in noisy_runs)
    ok = good >= 16 and hits == 0 and min_eta > 0.5
    report(
        "5",
        ok,
        f"relerr2<0.2 in {good}/20 replicas (gate 16), max projection hits {hits}, "
        f"min inlier eta {min_eta:.3f}",
    )
    assert hits == 0
    assert min_eta > 0.5
    assert good >= 16, (
        f"RelErr2 < 0.2 in only {good}/20 replicas; the clean-data error floor "
        f"near 0.17 at n=3000 leaves no headroom under the outlier perturbation, "
        f"so most replicas land just above 0.2 (see README)"
    )


def test_criterion_6_embedding_ranking(embedding_runs):
    het = embedding_runs[NoiseKind.HETEROSKEDASTIC]
    sk1 = float(np.mean(het.mse[("sk", 1)]))
    dm1 = float(np.mean(het.mse[("dm", 1)]))
    paired_ok = True
    fractions = []
    for kind, result in embedding_runs.items():
        for pair in (1, 2):
            wins = np.mean(result.mse[("sk", pair)] < result.mse[("dm", pair)])
            fractions.append(f"{kind.value} pair{pair} {wins:.2f}")
            paired_ok = paired_ok and wins >= 0.9
    ok = sk1 < 0.02 and dm1 > 0.05 and paired_ok
    report(
        "6",
        ok,
        f"het pair-1 mse: scaled {sk1:.4f} (gate <0.02) vs degree {dm1:.4f} "
        f"(gate >0.05); win fractions {', '.join(fractions)}",
    )
    assert sk1 < 0.02
    assert dm1 > 0.05
    assert paired_ok


def test_criterion_7_circle_spectrum():
    ds = sample_dataset(1000, DensitySpec.UNIFORM_CIRCLE, seed=0)
    eps = 5e-4
    aff = build_affinity(ds.points, eps)
    scaling = approx_sym_sk(aff, SkConfig(c_sk=0.0))
    lap = laplacian_from_affinity(aff, LaplacianForm.RANDOM_WALK, scaling.eta)
    eig = smallest_eigenpairs(lap, 3)
    rescaled = eig.values[1:3] / eps
    devs = np.abs(rescaled / FOUR_PI_SQ - 1.0)
    ok = bool(np.all(devs < 0.1))
    report(
        "7",
        ok,
        f"nonzero eigenvalues/eps {rescaled[0]:.2f}, {rescaled[1]:.2f} vs "
        f"{FOUR_PI_SQ:.2f}, deviations {devs[0]:.1%}, {devs[1]:.1%}, gate 10%",
    )
    assert np.all(devs < 0.1)


def test_criterion_8_cross_term_decay():
    meds = {}
    for m in (2000, 4000):
        model = NoiseModel(NoiseKind.SIMPLE, m=m, sigma_out=0.1, p_out=0.1)
        vals = [
            cross_term_stats(
                noisy_dataset(300, DensitySpec.SINUSOIDAL_1D, model, seed)
            )[0]
            for seed in range(20)
        ]
        meds[m] = float(np.median(vals))
    factor = meds[2000] / meds[4000]
    ok = 1.2 <= factor <= 1.7
    report(
        "8",
        ok,
        f"median cross-term bound {meds[2000]:.5f} (m=2000) / {meds[4000]:.5f} "
        f"(m=4000) = {factor:.3f}, gate [1.2, 1.7]",
    )
    assert 1.2 <= factor <= 1.7


def test_criterion_9_cli_determinism(tmp_path):
    pairs = []
    gen = ["generate", "--n", "80", "--density", "sinusoidal1d", "--seed", "3",
           "--noise", "simple", "--m", "8"]
    sweep = ["sweep", "--n", "60", "--density", "uniform_circle",
             "--eps-grid", "1e-3:2e-3:2log", "--replicas", "2",
             "--lap", "bistoch_rw"]
    embed = ["embed", "--n", "60", "--epsilon", "2e-3", "--replicas", "2",
             "--m", "8"]
    diag = ["skdiag", "--n", "60", "--density", "uniform_circle",
            "--epsilon", "2e-3"]
    for tag, args in (("gen", gen), ("sweep", sweep), ("embed", embed),
                      ("diag", diag)):
        a = tmp_path / f"{tag}_a.csv"
        b = tmp_path / f"{tag}_b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        pairs.append((tag, a.read_bytes() == b.read_bytes()))
    ok = all(same for _, same in pairs)
    report("9", ok, ", ".join(f"{tag} identical={same}" for tag, same in pairs))
    assert ok
