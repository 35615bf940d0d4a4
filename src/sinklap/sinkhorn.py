"""Accelerated symmetric Sinkhorn-Knopp matrix scaling.

Finds a positive diagonal scaling eta such that D_eta A D_eta is
(approximately) doubly stochastic for a symmetric non-negative A.  One
accelerated iteration alternates the two classical Sinkhorn
half-updates

    u = 1 / (A eta),    v = 1 / (A u),

and takes their entrywise geometric mean eta = sqrt(u * v), which
converges markedly faster than plain alternation on kernel matrices.
The iteration is wrapped with

* the degree-based start eta_i = 1 / sqrt((A 1)_i),
* an optional lower-bound projection eta = max(eta, c_sk) applied after
  the start and after every update, guarding against rows dominated by
  numerically vanishing affinities (far outliers), and
* early termination when the row-sum residual
  ||D_eta A D_eta 1 - 1||_inf drops below eps_sk.

The residual is always evaluated before an update, so the reported
history contains only tested residuals and a fixed point terminates
after a single iteration.

Scaling is equivariant under a global matrix rescale: eta(c A) =
eta(A) / sqrt(c), and so is the degree-based start.  The scaling of
the normalized kernel kappa A is therefore eta(A) / sqrt(kappa), and a
projection bound b stated for kappa A is b sqrt(kappa) for A, with
kappa = ``normalized_prefactor(n, epsilon, 1)``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalFailureError
from .kernel import Affinity
from .laplacian import dm_scale
from .manifold import density


@dataclass
class SkConfig:
    """Scaling solver knobs.

    c_sk is the projection's lower bound in the units of the matrix the
    solver is given (a bound b in normalized-kernel units is
    b * sqrt(kappa) for the unscaled kernel); c_sk = 0 disables the
    projection.  eps_sk is the residual tolerance and max_iter the
    iteration budget.
    """

    c_sk: float = 0.01
    eps_sk: float = 1e-3
    max_iter: int = 50

    def __post_init__(self):
        if self.c_sk < 0:
            raise ValueError("c_sk must be >= 0")
        if self.eps_sk <= 0:
            raise ValueError("eps_sk must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass
class ScalingResult:
    """Outcome of ``approx_sym_sk``.

    eta : final scaling vector (positive).
    iterations : number of loop entries performed (>= 1).
    residual_history : tested inf-norm residuals, one per iteration.
    projection_hits : total entries clamped by the lower bound,
        including the clamp applied to the initial guess.
    converged : True iff the last tested residual was below eps_sk;
        False means the budget ran out and the final eta is untested.
    """

    eta: np.ndarray
    iterations: int
    residual_history: np.ndarray = field(repr=False)
    projection_hits: int = 0
    converged: bool = False


def _as_matrix(a):
    return a.matrix if isinstance(a, Affinity) else np.asarray(a, dtype=float)


def scaling_residual(a, eta):
    """Row-sum residual vector D_eta A D_eta 1 - 1."""
    mat = _as_matrix(a)
    eta = np.asarray(eta, dtype=float)
    return eta * (mat @ eta) - 1.0


def _check_symmetric_nonnegative(mat):
    """Raise unless mat equals mat.T (NaN never does) and has no negative entry.

    Compares the upper cache-sized tiles with the transposed lower ones;
    once symmetry holds the upper tiles hold every entry, so they alone
    are checked for sign, and an asymmetric matrix reports asymmetry.
    """
    n, block = mat.shape[0], 256
    negative = False
    for i in range(0, n, block):
        for j in range(i, n, block):
            upper = mat[i : i + block, j : j + block]
            if not np.array_equal(upper, mat[j : j + block, i : i + block].T):
                raise ValueError("matrix must be symmetric")
            negative = negative or upper.min() < 0
    if negative:
        raise ValueError("matrix must be non-negative")


def _checked_reciprocal(x, what, k):
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NumericalFailureError(
            f"{what} became non-positive or non-finite at iteration {k}", iteration=k
        )
    return 1.0 / x


def approx_sym_sk(a, config=None):
    """Scale a symmetric non-negative matrix towards doubly stochastic.

    Parameters
    ----------
    a : Affinity or ndarray
        Square, symmetric, entrywise non-negative, no zero rows.
    config : SkConfig, optional
        Solver knobs; defaults to ``SkConfig()``.

    Returns
    -------
    ScalingResult

    Raises
    ------
    DegenerateInputError
        If the matrix has a zero row.
    NumericalFailureError
        If an update produces non-positive or non-finite values.
    """
    mat = _as_matrix(a)
    cfg = config if config is not None else SkConfig()
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    _check_symmetric_nonnegative(mat)

    eta = dm_scale(mat)

    hits = 0
    if cfg.c_sk > 0:
        low = eta < cfg.c_sk
        hits += int(np.count_nonzero(low))
        eta = np.maximum(eta, cfg.c_sk)

    history = []
    converged = False
    iterations = 0
    for k in range(1, cfg.max_iter + 1):
        iterations = k
        a_eta = mat @ eta
        res = float(np.max(np.abs(eta * a_eta - 1.0)))
        history.append(res)
        if not np.isfinite(res):
            raise NumericalFailureError(
                f"residual became non-finite at iteration {k}", iteration=k
            )
        if res < cfg.eps_sk:
            converged = True
            break
        u = _checked_reciprocal(a_eta, "A eta", k)
        v = _checked_reciprocal(mat @ u, "A u", k)
        eta = np.sqrt(u * v)
        if cfg.c_sk > 0:
            low = eta < cfg.c_sk
            hits += int(np.count_nonzero(low))
            eta = np.maximum(eta, cfg.c_sk)

    return ScalingResult(
        eta=eta,
        iterations=iterations,
        residual_history=np.asarray(history),
        projection_hits=hits,
        converged=converged,
    )


def population_reference(ds, spec):
    """Large-sample limit of the normalized kernel's scaling: p(t)^(-1/2)."""
    return density(ds.t, spec) ** -0.5

