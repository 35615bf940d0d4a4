"""Graph Laplacians of a Gaussian kernel under a diagonal scaling.

Every Laplacian here is one kernel A (an ``Affinity``) and a positive
scale vector s: the scaled affinity is K = diag(s) A diag(s), with
degrees deg = s * (A s).  Two scaling families supply s:

* bistochastic: s = eta from the symmetric Sinkhorn-Knopp scaling,
* dm: s = (A 1)^-1/2 (``dm_scale``), the classical alpha = 1/2
  density-corrected kernel built from plain degrees.

Each then yields an unnormalized Laplacian D(K) - K or a random-walk
Laplacian I - D(K)^-1 K.  Applying -(1/epsilon) times the operator to a
function sampled on the points approximates a weighted
Laplace-Beltrami operator as the bandwidth shrinks.

Neither K nor L is ever formed, so A is the only n x n array: applying
L costs one matvec with A, and the random-walk eigenproblem is solved
by Lanczos on the same matvec.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import DegenerateInputError, NumericalFailureError
from .kernel import Affinity, degree


class LaplacianForm(Enum):
    UNNORMALIZED = "unnormalized"
    RANDOM_WALK = "random_walk"


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


def dm_scale(a):
    """Scale vector (A 1)^-1/2 of the degree-normalized affinity."""
    deg = degree(a)
    if np.any(deg <= 0):
        raise DegenerateInputError("affinity matrix has a zero row")
    return 1.0 / np.sqrt(deg)


def laplacian_from_affinity(a, form, scale=None):
    """The Laplacian of the scaled affinity diag(s) A diag(s).

    Parameters
    ----------
    a : Affinity
        The kernel A; its epsilon is the bandwidth ``apply_rescaled``
        divides by.
    form : LaplacianForm
        UNNORMALIZED gives D(K) - K; RANDOM_WALK gives I - D(K)^-1 K
        and requires strictly positive degrees.
    scale : ndarray, shape (n,), optional
        Positive finite scale vector s; None means s = 1 (the Laplacian
        of A itself).

    Returns
    -------
    LaplacianOp
    """
    if not isinstance(form, LaplacianForm):
        raise ValueError(f"unknown form: {form!r}")
    if scale is None:
        s = np.ones(a.n)
    else:
        s = np.asarray(scale, dtype=float)
        if s.shape != (a.n,):
            raise ValueError("scale must have shape (n,)")
        if np.any(s <= 0) or not np.all(np.isfinite(s)):
            raise ValueError("scale must be positive and finite")
    deg = s * (a.matrix @ s)
    if form is LaplacianForm.RANDOM_WALK and np.any(deg <= 0):
        raise DegenerateInputError("random-walk form needs positive degrees")
    return LaplacianOp(kernel=a, scale=s, form=form, degrees=deg)


def apply_rescaled(l, f):
    """Apply -(1/epsilon) L to a sampled function, shape (n,)."""
    f = np.asarray(f, dtype=float)
    if f.shape != l.scale.shape:
        raise ValueError("f must have shape (n,)")
    kf = l.scale * (l.kernel.matrix @ (l.scale * f))
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
    op = LinearOperator((n, n), matvec=lambda x: x - r * (a @ (r * x)), dtype=float)
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
