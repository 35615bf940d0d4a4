"""The two scale vectors of a kernel A: Sinkhorn-Knopp and degrees.

A Laplacian (``sinklap.laplacian``) is A under a diagonal scaling s,
made here: ``dm_scale`` gives (A 1)^-1/2 and ``approx_sym_sk`` a
positive eta with D_eta A D_eta (approximately) doubly stochastic.
Both read a matrix A, never a dataset: an ``Affinity`` as it is, and
an ndarray as ``Affinity(a, 1.0)``, checked on each call (no scaling
reads the bandwidth).
One accelerated SK iteration alternates the two classical half-updates

    u = 1 / (A eta),    v = 1 / (A u),

and takes their entrywise geometric mean eta = sqrt(u * v), which
converges markedly faster than plain alternation on kernel matrices.
The mean is taken from mantissas and exponents, with u * v never
formed: it is bitwise sqrt(u * v) wherever u * v is a normal double,
and finite and positive for every positive finite u and v, so the
update cannot overflow.
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

from .errors import (
    DegenerateInputError,
    NumericalFailureError,
    finite_nonnegative,
    instance_of,
    integer_at_least,
    positive_finite,
    scalar,
)
from .kernel import _matvec, packed_kernel


@dataclass(frozen=True)
class SkConfig:
    """Scaling solver knobs, immutable and checked once, when made.

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
        scalar("c_sk", self.c_sk)
        finite_nonnegative("c_sk", self.c_sk)
        scalar("eps_sk", self.eps_sk)
        positive_finite("eps_sk", self.eps_sk)
        integer_at_least("max_iter", self.max_iter, 1)


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
    product : A eta for the final eta, the product its residual was
        tested with, when converged (for ``laplacian_from_affinity``'s
        degrees); None otherwise.
    """

    eta: np.ndarray
    iterations: int
    residual_history: np.ndarray = field(repr=False)
    projection_hits: int = 0
    converged: bool = False
    product: np.ndarray | None = field(default=None, repr=False)


def dm_scale(a):
    """Scale vector (A 1)^-1/2 of the degree-normalized affinity; raises
    on a zero row."""
    a = packed_kernel(a)
    deg = _matvec(a, np.ones(a.n))
    if np.any(deg <= 0):
        raise DegenerateInputError("affinity matrix has a zero row")
    return 1.0 / np.sqrt(deg)


def scaling_residual(a, eta):
    """Row-sum residual vector D_eta A D_eta 1 - 1, for a positive
    finite eta."""
    positive_finite("eta", eta)
    eta = np.asarray(eta, dtype=float)
    return eta * _matvec(packed_kernel(a), eta) - 1.0


def _checked_reciprocal(x, what, k):
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise NumericalFailureError(
            f"{what} became non-positive or non-finite at iteration {k}", iteration=k
        )
    return 1.0 / x


def _geometric_mean(u, v):
    """sqrt(u * v) entrywise for positive u and v, u * v never formed:
    the root of the mantissas' product times 2^(e mod 2), scaled by
    2^(e // 2), e the sum of the exponents; a power of two scales
    exactly."""
    (mu, eu), (mv, ev) = np.frexp(u), np.frexp(v)
    return np.ldexp(np.sqrt(np.ldexp(mu * mv, (eu + ev) % 2)), (eu + ev) // 2)


def _project(eta, c_sk):
    """eta clamped below at c_sk, and the number of entries clamped."""
    return np.maximum(eta, c_sk), int(np.count_nonzero(eta < c_sk))


def approx_sym_sk(a, config=SkConfig()):
    """Scale a symmetric non-negative matrix towards doubly stochastic.

    Parameters
    ----------
    a : Affinity or ndarray
        Square, symmetric, entrywise non-negative, no zero rows.  An
        ndarray is read as ``Affinity(a, 1.0)``, checked on each call.
    config : SkConfig
        Solver knobs, ``SkConfig()`` if not given.  Any other object,
        None included, raises a TypeError.

    Returns
    -------
    ScalingResult

    Raises
    ------
    ValueError
        If an ndarray ``a`` is not square, finite, symmetric and
        non-negative; an Affinity was checked when built.
    DegenerateInputError
        If the matrix has a zero row.
    NumericalFailureError
        If a product, A eta or A u, is non-positive or non-finite at
        iteration k (the error carries k).  This is the one failure
        rule: the mean cannot overflow, so a non-finite residual comes
        only with a non-finite A eta, named on the same iteration, and
        a residual whose eta * A eta alone overflows float64 is
        recorded as inf, not raised.
    """
    instance_of("config", config, SkConfig)
    a = packed_kernel(a)
    eta, hits = _project(dm_scale(a), config.c_sk)
    history = []
    for k in range(1, config.max_iter + 1):
        a_eta = _matvec(a, eta)
        res = float(np.max(np.abs(eta * a_eta - 1.0)))
        history.append(res)
        if res < config.eps_sk:
            break
        u = _checked_reciprocal(a_eta, "A eta", k)
        v = _checked_reciprocal(_matvec(a, u), "A u", k)
        eta, clamped = _project(_geometric_mean(u, v), config.c_sk)
        hits += clamped

    converged = history[-1] < config.eps_sk
    return ScalingResult(
        eta=eta,
        iterations=len(history),
        residual_history=np.asarray(history),
        projection_hits=hits,
        converged=converged,
        product=a_eta if converged else None,
    )
