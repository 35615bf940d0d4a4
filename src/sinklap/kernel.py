"""Gaussian kernel affinity matrices.

The kernel is g(xi) = (4 pi)^(-d/2) exp(-xi/4) applied to squared
distances scaled by the bandwidth: entries are functions of
||x_i - x_j||^2 / epsilon.  Two entry conventions are supported:

* ``UNSCALED``   : G_ij = exp(-||x_i - x_j||^2 / (4 epsilon)),
* ``NORMALIZED`` : W_ij = n^-1 epsilon^(-d/2) g(||x_i - x_j||^2 / epsilon),

which differ by the constant kappa = n^-1 (4 pi epsilon)^(-d/2).  All
downstream scalings are either exactly invariant to that constant or
equivariant with a known conversion, so the cheap unscaled convention
is the default in pipelines while the normalized one makes population
quantities (degrees ~ density) directly readable.

The affinity is the only n x n matrix of the pipeline: scalings and
Laplacians (``sinklap.laplacian``) keep it as the kernel A plus a scale
vector s and reach diag(s) A diag(s) through matvecs with A.

Distances are computed once per unordered pair and mirrored, so the
matrix is bitwise symmetric; no Gram-matrix expansion is used anywhere.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import quad
from scipy.spatial.distance import pdist, squareform
from scipy.special import gamma


class Convention(Enum):
    """Entry scale convention of an affinity matrix."""

    NORMALIZED = "normalized"
    UNSCALED = "unscaled"


@dataclass
class Affinity:
    """A dense kernel matrix with its assembly metadata.

    The matrix is marked read-only.
    """

    matrix: np.ndarray
    epsilon: float
    intrinsic_dim: int
    zero_diag: bool
    convention: Convention

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("affinity matrix must be square")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.intrinsic_dim < 1:
            raise ValueError("intrinsic_dim must be >= 1")
        self.matrix.setflags(write=False)

    @property
    def n(self):
        return self.matrix.shape[0]


def gaussian_kernel(xi, d):
    """g(xi) = (4 pi)^(-d/2) exp(-xi/4) for xi >= 0."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be non-negative")
    return (4.0 * np.pi) ** (-d / 2.0) * np.exp(-xi / 4.0)


def normalized_prefactor(n, epsilon, d):
    """kappa = n^-1 (4 pi epsilon)^(-d/2), the normalized/unscaled entry ratio."""
    return (4.0 * np.pi * epsilon) ** (-d / 2.0) / n


def build_affinity(points, epsilon, intrinsic_dim, zero_diag, convention):
    """Assemble the dense Gaussian affinity matrix of a point cloud.

    Parameters
    ----------
    points : ndarray, shape (n, m)
        Finite ambient coordinates, n >= 2.
    epsilon : float
        Kernel bandwidth, > 0.
    intrinsic_dim : int
        Manifold dimension d entering the normalized prefactor.
    zero_diag : bool
        If True the diagonal is zeroed; otherwise it carries the
        distance-zero kernel value (1 for UNSCALED, kappa for
        NORMALIZED).
    convention : Convention
        Entry scale convention.

    Returns
    -------
    Affinity
        Bitwise-symmetric non-negative matrix with metadata.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("points must be (n, m) with n >= 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    # exp(-d2 / (4 epsilon)) in place: one n x n array instead of two,
    # with the same bits as the out-of-place expression
    mat = squareform(pdist(pts, "sqeuclidean"), checks=False)
    np.negative(mat, out=mat)
    np.divide(mat, 4.0 * epsilon, out=mat)
    np.exp(mat, out=mat)
    if convention is Convention.NORMALIZED:
        mat *= normalized_prefactor(pts.shape[0], epsilon, intrinsic_dim)
    if zero_diag:
        np.fill_diagonal(mat, 0.0)
    return Affinity(
        matrix=mat,
        epsilon=float(epsilon),
        intrinsic_dim=int(intrinsic_dim),
        zero_diag=bool(zero_diag),
        convention=convention,
    )


def degree(a):
    """Row sums of an affinity (accepts Affinity or ndarray)."""
    mat = a.matrix if isinstance(a, Affinity) else np.asarray(a, dtype=float)
    return mat.sum(axis=1)


def kernel_moments(d):
    """Zeroth and second moments (m0, m2) of the kernel profile.

    m0 = integral of g(||u||^2) over R^d and m2 = (1/d) integral of
    ||u||^2 g(||u||^2), computed by radial quadrature.  Both equal
    (1, 2) for every d by the Gaussian's normalization.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    surf = 2.0 * np.pi ** (d / 2.0) / gamma(d / 2.0)
    rmax = np.sqrt(200.0)

    def radial(r, power):
        return gaussian_kernel(r * r, d) * r ** (d - 1 + power)

    m0 = surf * quad(radial, 0.0, rmax, args=(0,), epsabs=1e-13, epsrel=1e-13)[0]
    m2 = (
        surf
        / d
        * quad(radial, 0.0, rmax, args=(2,), epsabs=1e-13, epsrel=1e-13)[0]
    )
    return m0, m2
