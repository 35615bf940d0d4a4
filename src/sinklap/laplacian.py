"""Graph Laplacians of a Gaussian kernel under a diagonal scaling.

Every Laplacian here is a kernel A (an ``Affinity``), a form and a
given positive scale vector s, which ``sinklap.sinkhorn`` makes: the
scaled affinity is K = diag(s) A diag(s), with degrees
deg = s * (A s).  The form is an unnormalized Laplacian D(K) - K or
a random-walk Laplacian I - D(K)^-1 K.  Applying -(1/epsilon) times
the operator to a function sampled on the points approximates a
weighted Laplace-Beltrami operator as the bandwidth shrinks.

Neither K nor L is ever formed, so A is the only n x n array: applying
L costs one matvec with A, and the random-walk eigenproblem is solved
by Lanczos on the same matvec.  Each matvec runs in A's precision,
float32 or float64 (see ``sinklap.kernel``); vectors stay float64.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import DegenerateInputError, NumericalFailureError
from .kernel import Affinity, _matvec


class LaplacianForm(Enum):
    UNNORMALIZED = "unnormalized"
    RANDOM_WALK = "random_walk"


@dataclass
class LaplacianOp:
    """The Laplacian of diag(scale) kernel diag(scale) in one form.

    degrees = scale * (kernel scale) are the scaled affinity's row sums,
    computed once at construction; the bandwidth is the kernel's.
    """

    kernel: Affinity
    scale: np.ndarray
    form: LaplacianForm
    degrees: np.ndarray

    @property
    def epsilon(self):
        return self.kernel.epsilon


@dataclass
class EigenPairs:
    """Ascending eigenvalues (k,) and column eigenvectors (n, k)."""

    values: np.ndarray
    vectors: np.ndarray


def laplacian_from_affinity(a, form, scale):
    """The Laplacian of the scaled affinity diag(s) A diag(s).

    Parameters
    ----------
    a : Affinity
        The kernel A; its epsilon is the bandwidth ``apply_rescaled``
        divides by.
    form : LaplacianForm
        UNNORMALIZED gives D(K) - K; RANDOM_WALK gives I - D(K)^-1 K
        and requires strictly positive degrees.
    scale : ndarray, shape (n,)
        Positive finite scale vector s, from ``sinklap.sinkhorn``
        (ones give the Laplacian of A itself).

    Returns
    -------
    LaplacianOp
    """
    if not isinstance(a, Affinity):
        raise TypeError(f"kernel must be an Affinity, not {type(a).__name__}")
    if not isinstance(form, LaplacianForm):
        raise ValueError(f"unknown form: {form!r}")
    s = np.asarray(scale, dtype=float)
    if s.shape != (a.n,):
        raise ValueError("scale must have shape (n,)")
    if np.any(s <= 0) or not np.all(np.isfinite(s)):
        raise ValueError("scale must be positive and finite")
    deg = s * _matvec(a.matrix, s)
    if form is LaplacianForm.RANDOM_WALK and np.any(deg <= 0):
        raise DegenerateInputError("random-walk form needs positive degrees")
    return LaplacianOp(kernel=a, scale=s, form=form, degrees=deg)


def apply_rescaled(l, f):
    """Apply -(1/epsilon) L to a sampled function, shape (n,)."""
    f = np.asarray(f, dtype=float)
    if f.shape != l.scale.shape:
        raise ValueError("f must have shape (n,)")
    kf = l.scale * _matvec(l.kernel.matrix, l.scale * f)
    if l.form is LaplacianForm.UNNORMALIZED:
        lf = l.degrees * f - kf
    else:
        lf = f - kf / l.degrees
    return -lf / l.epsilon


def smallest_eigenpairs(l, k):
    """Lowest k eigenpairs of a random-walk Laplacian, 1 <= k <= n - 1.

    With K the scaled affinity and D its degrees, the symmetric
    I - D^-1/2 K D^-1/2 : x -> x - r * (A (r * x)), r = s / sqrt(deg),
    has the eigenvalues of I - D^-1 K, and psi = D^-1/2 phi maps its
    eigenvectors back.  Implicitly restarted Lanczos (ARPACK) solves it
    through that matvec from the start 1 / sqrt(n), with restart vectors
    from a fixed seed, so the result does not depend on the run; it
    raises NumericalFailureError if Lanczos does not converge.
    Eigenvalues come back ascending (the first is ~0 for connected
    graphs); vectors have unit 2-norm with the largest-magnitude entry
    made positive.
    """
    if l.form is not LaplacianForm.RANDOM_WALK:
        raise ValueError("eigensolve is defined for the random-walk form")
    n = l.kernel.n
    if not 1 <= k <= n - 1:
        raise ValueError("k must lie in [1, n - 1]")
    root = 1.0 / np.sqrt(l.degrees)
    r = l.scale * root
    a = l.kernel.matrix
    op = LinearOperator(
        (n, n), matvec=lambda x: x - r * _matvec(a, r * x), dtype=float
    )
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        vals, phi = eigsh(op, k, which="SA", v0=v0, tol=0, rng=0)
    except ArpackNoConvergence as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    psi = phi * root[:, None]
    psi /= np.linalg.norm(psi, axis=0)
    for j in range(psi.shape[1]):
        if psi[np.argmax(np.abs(psi[:, j])), j] < 0:
            psi[:, j] = -psi[:, j]
    return EigenPairs(values=vals, vectors=psi)
