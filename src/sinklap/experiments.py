"""Reproducible desk-scale experiment drivers.

Three experiments built from the library pieces:

* pointwise convergence: apply -(1/epsilon) L to the bundled test
  function on a sampled manifold and compare against the closed-form
  weighted Laplacian, in relative 2- and sup-norm;
* bandwidth sweeps: the same over an epsilon grid with replicated
  sampling, plus log-log slope fits on chosen grid branches;
* spectral embedding: lowest non-trivial eigenvector pairs of the
  random-walk Laplacians vs. the circle harmonics, scored after an
  optimal orthogonal alignment.

A ``LaplacianKind`` is an experiment's choice of scaling family times
Laplacian form; the numerical core takes a form and a vector, not it.

The replicated drivers run one job per replica on one thread pool.
Replica r draws its dataset once, with dataset seed base_seed + r and
noise seed base_seed + r + NOISE_SEED_OFFSET (disjoint streams for any
desk-scale seed range); a sweep replica walks the whole grid on that
one dataset, so sweep curves see the same datasets.  Every driver
checks every argument, before any draw.

Layer functions are called through this module's globals, which the
benchmark wraps to time each layer: a call that bypasses them reads 0.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import svd

from .errors import finite, instance_of, integer_at_least, member, positive_finite, scalar
from .kernel import build_affinity, normalized_prefactor
from .laplacian import (
    LaplacianForm,
    apply_rescaled,
    laplacian_from_affinity,
    smallest_eigenpairs,
)
from .manifold import DensitySpec, delta_p_f, sample_dataset, test_function
from .noise import NoiseModel, add_noise
from .sinkhorn import SkConfig, approx_sym_sk, dm_scale

NOISE_SEED_OFFSET = 2**32
# eigenpairs per embedding Laplacian: the trivial one and two harmonic pairs
EMBEDDING_EIGENPAIRS = 5


class LaplacianKind(Enum):
    """Scaling family x Laplacian form, read off the value."""

    BISTOCH_UN = "bistoch_un"
    BISTOCH_RW = "bistoch_rw"
    DM_UN = "dm_un"
    DM_RW = "dm_rw"

    @property
    def bistochastic(self):
        """True for the Sinkhorn-Knopp family, False for the dm family."""
        return self.value.startswith("bistoch_")

    @property
    def form(self):
        if self.value.endswith("_rw"):
            return LaplacianForm.RANDOM_WALK
        return LaplacianForm.UNNORMALIZED


@dataclass
class PointwiseResult:
    """Relative errors of one pipeline run plus scaling diagnostics.

    min_inlier_eta is the smallest entry of the normalized kernel's
    scaling eta / sqrt(kappa) over non-outlier samples (all samples when
    the data is clean); the other fields are the scaling's counts, flag
    and last tested residual.  The defaults are the dm pipeline's
    values: it runs no scaling, and its sk_iters is 0.
    """

    relerr2: float
    relerrinf: float
    sk_iters: int
    projection_hits: int = 0
    min_inlier_eta: float | None = None
    sk_converged: bool = True
    sk_residual: float | None = None


@dataclass
class SweepRecord:
    """sk_unconverged counts the replicas whose scaling ran out of max_iter."""

    epsilon: float
    relerr2_mean: float
    relerr2_std: float
    relerrinf_mean: float
    relerrinf_std: float
    mean_sk_iters: float
    replicas: int
    sk_unconverged: int


@dataclass
class AlignmentResult:
    """Optimal scaled-orthogonal alignment of a 2-column frame.

    mse is the per-entry squared error of s V Q against the reference
    after minimizing over scale s and orthogonal Q (rotations and
    reflections).
    """

    mse: float
    scale: float
    rotation: np.ndarray


@dataclass
class EmbeddingRecord:
    method: str
    pair: int
    mse_mean: float
    mse_std: float
    replicas: int


@dataclass
class EmbeddingResult:
    """Summary records plus per-replica mse arrays keyed by (method, pair).

    first_eigenpairs holds replica 0's EigenPairs per method, for
    inspection and serialization; sk_unconverged counts the replicas
    whose scaling ran out of max_iter.
    """

    records: list
    mse: dict
    first_eigenpairs: dict
    sk_unconverged: int


def _replicate(job, replicas, threads):
    """[job(r) for r in range(replicas)], run on one pool of replica threads.

    threads=None means one thread per CPU.
    """
    integer_at_least("replicas", replicas, 1)
    if threads is None:
        threads = os.cpu_count() or 1
    integer_at_least("threads", threads, 1)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(job, range(replicas)))


def rel_errors(est, ref):
    """Relative 2-norm and sup-norm errors of est against a finite,
    nonzero ref of the same shape."""
    est = np.asarray(est, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if est.shape != ref.shape:
        raise ValueError("est and ref must have the same shape")
    finite("ref", ref)
    ref2 = np.linalg.norm(ref)
    refinf = np.max(np.abs(ref))
    if ref2 == 0 or refinf == 0:
        raise ValueError("reference must be nonzero")
    return (
        float(np.linalg.norm(est - ref) / ref2),
        float(np.max(np.abs(est - ref)) / refinf),
    )


def noisy_dataset(n, spec, noise_model, seed):
    """Sample a dataset and, given a noise model, add noise in R^m.

    The noise stream uses seed + NOISE_SEED_OFFSET; without a noise
    model the clean dataset is returned.  The clean points keep their
    native width; only the outliers' noise vectors are m wide.  seed,
    spec and a given noise model are checked before the first draw.
    """
    integer_at_least("seed", seed, 0)
    member(DensitySpec, spec, "density")
    if noise_model is not None:
        instance_of("noise model", noise_model, NoiseModel)
    ds = sample_dataset(n, spec, seed)
    if noise_model is None:
        return ds
    return add_noise(ds, noise_model, seed + NOISE_SEED_OFFSET)


def pointwise_experiment(
    n, spec, epsilon, kind, sk_config=None, noise_model=None, seed=0
):
    """One pipeline run: sample, scale, apply, compare to the closed form.

    The unscaled zero-diagonal kernel feeds either the symmetric
    scaling (BISTOCH_* kinds, using sk_config) or the degree
    normalization (DM_* kinds); the reference is the closed-form
    weighted Laplacian evaluated at the clean intrinsic coordinates,
    also when the observed points are noisy.  A given sk_config is an
    ``SkConfig`` for every kind.
    """
    integer_at_least("n", n, 2)
    scalar("epsilon", epsilon)
    positive_finite("epsilon", epsilon)
    member(LaplacianKind, kind, "laplacian kind")
    if sk_config is not None:
        instance_of("config", sk_config, SkConfig)
    ds = noisy_dataset(n, spec, noise_model, seed)
    return _pointwise_on(ds, epsilon, kind, sk_config, test_function(ds.t),
                         delta_p_f(ds.t, spec))


def _pointwise_on(ds, epsilon, kind, sk_config, f, lap_f):
    """The pipeline of ``pointwise_experiment`` on a sampled dataset:
    the test function f at its clean coordinates, and lap_f, f's
    closed-form weighted Laplacian there, as the reference."""
    aff = build_affinity(ds, epsilon)
    scaling = approx_sym_sk(aff, sk_config) if kind.bistochastic else None
    scale, product = ((dm_scale(aff), None) if scaling is None
                      else (scaling.eta, scaling.product))
    lap = laplacian_from_affinity(aff, kind.form, scale, product)
    relerr2, relerrinf = rel_errors(apply_rescaled(lap, f), lap_f)
    if scaling is None:
        return PointwiseResult(relerr2=relerr2, relerrinf=relerrinf, sk_iters=0)
    eta_norm = scaling.eta / np.sqrt(normalized_prefactor(ds.n, aff.epsilon, 1))
    eta_norm = eta_norm[~ds.outlier_flags]
    return PointwiseResult(
        relerr2=relerr2,
        relerrinf=relerrinf,
        sk_iters=scaling.iterations,
        projection_hits=scaling.projection_hits,
        min_inlier_eta=float(np.min(eta_norm)),
        sk_converged=scaling.converged,
        sk_residual=float(scaling.residual_history[-1]),
    )


def epsilon_sweep(
    n,
    spec,
    epsilons,
    replicas,
    kind,
    sk_config=None,
    noise_model=None,
    base_seed=0,
    threads=None,
):
    """Replicated pointwise runs over a bandwidth grid.

    epsilons is an iterable (a list, an array or an iterator) of single
    numbers, positive, finite and non-decreasing, each checked as given.
    Replica r draws its dataset once, with seed base_seed + r (as
    ``pointwise_experiment`` would), evaluates the test function and its
    reference on it once, and walks the whole grid on it, so per-epsilon
    aggregates are over the same family of datasets.  Means
    and standard deviations are population-style (ddof=0);
    mean_sk_iters and sk_unconverged are 0 for the dm kinds.
    """
    integer_at_least("n", n, 2)
    integer_at_least("seed", base_seed, 0)
    try:
        epsilons = list(epsilons)
    except TypeError:
        raise ValueError(
            f"epsilons must be an iterable of numbers, not {type(epsilons).__name__}"
        ) from None
    if len(epsilons) == 0:
        raise ValueError("epsilons must be non-empty")
    for eps in epsilons:
        scalar("each epsilon", eps)
        positive_finite("epsilons", eps)
    epsilons = [float(e) for e in epsilons]
    if any(b < a for a, b in zip(epsilons, epsilons[1:])):
        raise ValueError("epsilons must be non-decreasing")
    member(LaplacianKind, kind, "laplacian kind")
    if sk_config is not None:
        instance_of("config", sk_config, SkConfig)

    def job(r):
        ds = noisy_dataset(n, spec, noise_model, base_seed + r)
        f, lap_f = test_function(ds.t), delta_p_f(ds.t, spec)
        return [_pointwise_on(ds, eps, kind, sk_config, f, lap_f) for eps in epsilons]

    per_replica = _replicate(job, replicas, threads)
    records = []
    for eps, results in zip(epsilons, zip(*per_replica)):
        err2 = np.array([res.relerr2 for res in results])
        errinf = np.array([res.relerrinf for res in results])
        iters = np.array([res.sk_iters for res in results], dtype=float)
        records.append(
            SweepRecord(
                epsilon=eps,
                relerr2_mean=float(err2.mean()),
                relerr2_std=float(err2.std()),
                relerrinf_mean=float(errinf.mean()),
                relerrinf_std=float(errinf.std()),
                mean_sk_iters=float(iters.mean()),
                replicas=replicas,
                sk_unconverged=sum(not res.sk_converged for res in results),
            )
        )
    return records


def slope_fit(log_eps, log_err, index_range):
    """Least-squares slope of log_err vs log_eps over a half-open index range."""
    start, stop = index_range
    x = np.asarray(log_eps, dtype=float)[start:stop]
    y = np.asarray(log_err, dtype=float)[start:stop]
    if x.size < 2:
        raise ValueError("index_range must cover at least 2 points")
    if np.ptp(x) == 0:
        raise ValueError("log_eps is constant on the range")
    return float(np.polyfit(x, y, 1)[0])


def sweep_slopes(records, points):
    """Log-log slopes [("small_eps", s1), ("large_eps", s2)] of a sweep.

    Each fits ``points`` records, an integer in [2, len(records)]: log
    mean RelErr2 from the first, log mean sup-norm error from its argmin,
    where the U turns (past the bias branch it saturates and bends back
    down), but from len(records) - points at most.
    """
    integer_at_least("points", points, 2)
    if points > len(records):
        raise ValueError("points must lie in [2, len(records)]")
    log_eps = np.log([r.epsilon for r in records])
    errinf = [r.relerrinf_mean for r in records]
    start = min(int(np.argmin(errinf)), len(records) - points)
    relerr2 = np.log([r.relerr2_mean for r in records])
    return [
        ("small_eps", slope_fit(log_eps, relerr2, (0, points))),
        ("large_eps", slope_fit(log_eps, np.log(errinf), (start, start + points))),
    ]


def align_pair(v, r):
    """Align a 2-column frame onto a reference over scale and O(2).

    Minimizes ||s V Q - R||_F^2 over s >= 0 and orthogonal Q (including
    reflections).  With M = V^T R = U S W^T the minimizer is Q = U W^T,
    s = (s1 + s2) / ||V||_F^2.  The maximum of tr(Q^T M) over O(2) is
    s1 + s2 and U W^T attains it for any SVD of M, so a rank-deficient
    M (whose SVD is not unique) needs no special case; M = 0 gives
    s = 0.

    Returns an AlignmentResult whose mse is the minimum divided by the
    number of entries (2n).
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape != r.shape:
        raise ValueError("v and r must both be (n, 2)")
    vnorm2 = float(np.sum(v * v))
    if vnorm2 == 0:
        raise ValueError("frame must be nonzero")
    m = v.T @ r
    u, sig, wt = svd(m)
    q = u @ wt
    scale = float(sig.sum()) / vnorm2
    err = max(float(np.sum(r * r)) - float(sig.sum()) ** 2 / vnorm2, 0.0)
    return AlignmentResult(mse=err / v.size, scale=scale, rotation=q)


def _embed_one(n, noise_model, epsilon, sk_config, seed):
    ds = noisy_dataset(n, DensitySpec.UNIFORM_CIRCLE, noise_model, seed)
    aff = build_affinity(ds, epsilon)
    scaling = approx_sym_sk(aff, sk_config)
    mse = {}
    eigs = {}
    for method, scale, product in (("sk", scaling.eta, scaling.product),
                                   ("dm", dm_scale(aff), None)):
        lap = laplacian_from_affinity(aff, LaplacianForm.RANDOM_WALK, scale, product)
        eig = smallest_eigenpairs(lap, EMBEDDING_EIGENPAIRS)
        eigs[method] = eig
        for pair, (lo, k) in ((1, (1, 1)), (2, (3, 2))):
            phase = 2.0 * np.pi * k * ds.t
            ref = np.stack([np.sin(phase), np.cos(phase)], axis=-1)
            mse[(method, pair)] = align_pair(eig.vectors[:, lo : lo + 2], ref).mse
    return mse, eigs, scaling.converged


def embedding_experiment(
    n, noise_model, epsilon, sk_config=None, replicas=1, base_seed=0, threads=None
):
    """Spectral embedding quality of both pipelines on the noisy circle.

    For each replica, the two lowest non-trivial eigenvector pairs of
    the random-walk Laplacian (bistochastic and dm pipelines) are
    aligned against the first and second circle harmonics
    {sin 2 pi k t, cos 2 pi k t}, k = 1, 2, evaluated at the clean
    intrinsic coordinates.  Returns per-(method, pair) mse summaries
    plus the per-replica arrays.
    """
    integer_at_least("n", n, EMBEDDING_EIGENPAIRS + 1)
    integer_at_least("seed", base_seed, 0)
    scalar("epsilon", epsilon)
    positive_finite("epsilon", epsilon)
    if sk_config is not None:
        instance_of("config", sk_config, SkConfig)
    per_rep = _replicate(
        lambda r: _embed_one(n, noise_model, epsilon, sk_config, base_seed + r),
        replicas,
        threads,
    )
    mse = {}
    records = []
    for method in ("sk", "dm"):
        for pair in (1, 2):
            arr = np.array([rep[0][(method, pair)] for rep in per_rep])
            mse[(method, pair)] = arr
            records.append(
                EmbeddingRecord(
                    method=method,
                    pair=pair,
                    mse_mean=float(arr.mean()),
                    mse_std=float(arr.std()),
                    replicas=replicas,
                )
            )
    return EmbeddingResult(
        records=records,
        mse=mse,
        first_eigenpairs=per_rep[0][1],
        sk_unconverged=sum(not rep[2] for rep in per_rep),
    )
