"""Graph Laplacians of a Gaussian kernel under a diagonal scaling.

Every Laplacian here is a kernel A (an ``Affinity``), a form and a
given positive scale vector s, which ``sinklap.sinkhorn`` makes: the
scaled affinity is K = diag(s) A diag(s), with degrees
deg = s * (A s).  The form is an unnormalized Laplacian D(K) - K or
a random-walk Laplacian I - D(K)^-1 K.  Applying -(1/epsilon) times
the operator to a function sampled on the points approximates a
weighted Laplace-Beltrami operator as the bandwidth shrinks.

Neither K nor L is ever formed, so A's stored triangle is the only
array of order n^2: every step is a product with diag(r) A diag(r) for
a scale r.  Applying L costs one such product, with r = s, and the
random-walk eigenproblem is the top of M = diag(r) A diag(r) with
r = s / sqrt(deg), found by Lanczos on the same product.  Each product
runs in A's stored precision, float32 or float64 (see
``sinklap.kernel``), which also sets the eigensolve's stopping
tolerance; vectors stay float64.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from .errors import (
    DegenerateInputError,
    NumericalFailureError,
    finite_nonnegative,
    instance_of,
    integer_at_least,
    member,
    positive_finite,
)
from .kernel import Affinity, _matvec, _roundoff


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


def laplacian_from_affinity(a, form, scale, product=None):
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
    product : ndarray, shape (n,), optional
        A s, where the caller has it (``ScalingResult.product``), so the
        degrees s * (A s) take no product of their own; finite and
        non-negative, as A s is.

    Returns
    -------
    LaplacianOp
    """
    instance_of("kernel", a, Affinity)
    member(LaplacianForm, form, "form")
    s = np.asarray(scale, dtype=float)
    if s.shape != (a.n,):
        raise ValueError("scale must have shape (n,)")
    positive_finite("scale", s)
    if product is None:
        product = _matvec(a, s)
    elif np.shape(product) != (a.n,):
        raise ValueError("product must have shape (n,)")
    else:
        finite_nonnegative("product", product)
    deg = s * product
    if form is LaplacianForm.RANDOM_WALK and np.any(deg <= 0):
        raise DegenerateInputError("random-walk form needs positive degrees")
    return LaplacianOp(kernel=a, scale=s, form=form, degrees=deg)


def apply_rescaled(l, f):
    """Apply -(1/epsilon) L to a sampled function, shape (n,)."""
    instance_of("laplacian", l, LaplacianOp)
    f = np.asarray(f, dtype=float)
    if f.shape != l.scale.shape:
        raise ValueError("f must have shape (n,)")
    kf = l.scale * _matvec(l.kernel, l.scale * f)
    if l.form is LaplacianForm.UNNORMALIZED:
        lf = l.degrees * f - kf
    else:
        lf = f - kf / l.degrees
    return -lf / l.epsilon


def smallest_eigenpairs(l, k):
    """Lowest k eigenpairs of a random-walk Laplacian, 1 <= k <= n - 1.

    With K the scaled affinity and D its degrees, the symmetric
    M = D^-1/2 K D^-1/2 : x -> r * (A (r * x)), r = s / sqrt(deg), is
    diag(r) A diag(r), the pipeline's one product form; its top
    eigenvalues mu give the lowest lambda = 1 - mu of I - D^-1 K, and
    psi = D^-1/2 phi maps its eigenvectors back.  Implicitly restarted
    Lanczos (ARPACK) finds them through that matvec from the start
    1 / sqrt(n), with restart vectors from a fixed seed, so the result
    does not depend on the run, and stops at the unit roundoff of A's
    stored precision (``sinklap.kernel``), the accuracy its products
    carry; it raises NumericalFailureError if Lanczos does not converge.
    Eigenvalues come back ascending (the first is ~0 for connected
    graphs); vectors have unit 2-norm with the largest-magnitude entry
    made positive.
    """
    instance_of("laplacian", l, LaplacianOp)
    if l.form is not LaplacianForm.RANDOM_WALK:
        raise ValueError("eigensolve is defined for the random-walk form")
    n = l.kernel.n
    integer_at_least("k", k, 1)
    if k > n - 1:
        raise ValueError("k must be an integer in [1, n - 1]")
    root = 1.0 / np.sqrt(l.degrees)
    r = l.scale * root
    a = l.kernel
    op = LinearOperator((n, n), matvec=lambda x: r * _matvec(a, r * x), dtype=float)
    v0 = np.full(n, 1.0 / np.sqrt(n))
    try:
        mu, phi = eigsh(op, k, which="LA", v0=v0, tol=_roundoff(a), rng=0)
    except ArpackNoConvergence as exc:
        raise NumericalFailureError(f"eigensolver did not converge: {exc}") from exc
    psi = phi[:, ::-1] * root[:, None]
    psi /= np.linalg.norm(psi, axis=0)
    # one sign per column, read at its largest-magnitude entry; the
    # product with +-1 is exact
    top = psi[np.argmax(np.abs(psi), axis=0), np.arange(k)]
    psi *= np.where(top < 0, -1.0, 1.0)
    return EigenPairs(values=1.0 - mu[::-1], vectors=psi)
