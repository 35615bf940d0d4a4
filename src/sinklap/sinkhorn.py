"""The two scale vectors of a kernel A: Sinkhorn-Knopp and degrees.

A Laplacian (``sinklap.laplacian``) is A under a diagonal scaling s,
made here: ``dm_scale`` gives (A 1)^-1/2 and ``approx_sym_sk`` a
positive eta with D_eta A D_eta (approximately) doubly stochastic.
Both read a matrix A, never a dataset, through ``kernel.kernel_matrix``,
which checks an ndarray on each call and an ``Affinity`` never again.
One accelerated SK iteration alternates the two classical half-updates

    u = 1 / (A eta),    v = 1 / (A u),

and takes their entrywise geometric mean eta = sqrt(u * v), which
converges markedly faster than plain alternation on kernel matrices.
The iteration is wrapped with

* the degree-based start eta = (A 1)^-1/2, the ``dm_scale`` vector,
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

from .errors import DegenerateInputError, NumericalFailureError
from .kernel import _matvec, kernel_matrix


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
        if not 0 <= self.c_sk < np.inf:
            raise ValueError("c_sk must be finite and >= 0")
        if not 0 < self.eps_sk < np.inf:
            raise ValueError("eps_sk must be positive and finite")
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


def _inverse_root_degrees(mat):
    """(A 1)^-1/2 of a kernel matrix A; raises on a zero row."""
    deg = mat.sum(axis=1, dtype=float)
    if np.any(deg <= 0):
        raise DegenerateInputError("affinity matrix has a zero row")
    return 1.0 / np.sqrt(deg)


def dm_scale(a):
    """Scale vector (A 1)^-1/2 of the degree-normalized affinity."""
    return _inverse_root_degrees(kernel_matrix(a))


def scaling_residual(a, eta):
    """Row-sum residual vector D_eta A D_eta 1 - 1."""
    eta = np.asarray(eta, dtype=float)
    return eta * _matvec(kernel_matrix(a), eta) - 1.0


def _checked_reciprocal(x, what, k):
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NumericalFailureError(
            f"{what} became non-positive or non-finite at iteration {k}", iteration=k
        )
    return 1.0 / x


def _project(eta, c_sk):
    """eta clamped below at c_sk, and the number of entries clamped."""
    return np.maximum(eta, c_sk), int(np.count_nonzero(eta < c_sk))


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
    ValueError
        If an ndarray ``a`` is not square, symmetric and non-negative
        (``kernel.kernel_matrix``); an Affinity was checked when built.
    DegenerateInputError
        If the matrix has a zero row.
    NumericalFailureError
        If an update produces non-positive or non-finite values.
    """
    mat = kernel_matrix(a)
    cfg = config if config is not None else SkConfig()
    eta, hits = _project(_inverse_root_degrees(mat), cfg.c_sk)
    history = []
    for k in range(1, cfg.max_iter + 1):
        a_eta = _matvec(mat, eta)
        res = float(np.max(np.abs(eta * a_eta - 1.0)))
        history.append(res)
        if not np.isfinite(res):
            raise NumericalFailureError(
                f"residual became non-finite at iteration {k}", iteration=k
            )
        if res < cfg.eps_sk:
            break
        u = _checked_reciprocal(a_eta, "A eta", k)
        v = _checked_reciprocal(_matvec(mat, u), "A u", k)
        eta, clamped = _project(np.sqrt(u * v), cfg.c_sk)
        hits += clamped

    return ScalingResult(
        eta=eta,
        iterations=len(history),
        residual_history=np.asarray(history),
        projection_hits=hits,
        converged=history[-1] < cfg.eps_sk,
    )
