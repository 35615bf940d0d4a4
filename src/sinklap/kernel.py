"""Gaussian kernel affinity matrices.

The kernel is g(xi) = (4 pi)^(-d/2) exp(-xi/4) applied to squared
distances scaled by the bandwidth.  The pipeline's one kernel is the
unscaled, zero-diagonal

    A_ij = exp(-||x_i - x_j||^2 / (4 epsilon)),  A_ii = 0.

The population-normalized kernel n^-1 epsilon^(-d/2) g(...) is kappa A
off the diagonal, with kappa = n^-1 (4 pi epsilon)^(-d/2) from
``normalized_prefactor``.  Sinkhorn-Knopp scaling is equivariant to
that constant, eta(kappa A) = eta(A) / sqrt(kappa), so normalized
quantities are one division away and need no second kernel.

The affinity is the only n x n matrix of the pipeline, built by one
loop over upper pairs of contiguous row blocks, each turned into kernel
values in place and written with its mirror.  Scalings and Laplacians
(``sinklap.laplacian``) keep it as the kernel A plus a scale vector s
and reach diag(s) A diag(s) through matvecs with A.

A row's width is 1 + the index of its last nonzero column.  Rows
narrower than the widest are narrow, w is their largest width, and the
widest rows are wide (none on one-width, clean data).  Every squared
distance is

    ||x_i - x_j||^2 = c_ij + (t_i + t_j) - 2 g_ij,  clamped at 0,

with c_ij scipy's "sqeuclidean" ``cdist`` over the first w columns, t_i
the squares of row i past column w and g_ij the dot product of the two
tails, one BLAS product over a block's wide rows.  Inliers span a few
columns and outlier noise fills R^m, so g holds the noise inner products
that the paper's outlier term bounds (``noise.cross_term_stats``).
Inlier coordinates stay in ``cdist``: on-manifold distances are the
small ones, where a Gram form cancels.

Narrow rows have t = g = 0 exactly and columns past both rows' width add
exact zeros, so narrow-narrow entries, and all of one-width data, keep
the bits of a full-width ``pdist``.  Narrow-wide d^2 reorders a sum of
non-negative terms, within about 2 (m - 1) u relative of ``pdist``'s (u
the unit roundoff; 4.4e-13 at m = 2000).  Wide rows a, b are within
about 2 (m + 1) u (||a||^2 + ||b||^2) + 2 (m + 3) u d^2 of it; the
first term matters only for near-coincident outliers.  (x_k - y_k)^2
equals (y_k - x_k)^2 bitwise, t_i + t_j is one sum and g is symmetrized
on diagonal blocks, so the matrix is bitwise symmetric.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.spatial.distance import cdist
from scipy.special import gamma


# rows per block in ``build_affinity``, which bounds its temporaries
_BLOCK = 128


@dataclass
class Affinity:
    """A dense kernel matrix with its bandwidth.

    The matrix is marked read-only.
    """

    matrix: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("affinity matrix must be square")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
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
    """kappa = n^-1 (4 pi epsilon)^(-d/2), the normalized/unscaled kernel ratio."""
    return (4.0 * np.pi * epsilon) ** (-d / 2.0) / n


def build_affinity(points, epsilon):
    """Assemble the zero-diagonal Gaussian kernel of a point cloud.

    Each upper pair of contiguous row blocks is a w-column ``cdist``,
    plus t_i + t_j on a block with a wide row, minus 2 g_ij between its
    wide rows; it is turned into kernel values and written with its mirror.

    Parameters
    ----------
    points : ndarray, shape (n, m)
        Finite ambient coordinates, n >= 2.
    epsilon : float
        Kernel bandwidth, > 0.

    Returns
    -------
    Affinity
        Bitwise-symmetric non-negative matrix exp(-d2 / (4 epsilon))
        with a zero diagonal.  Entries between narrow rows, and all
        entries of one-width data, are bitwise equal to the kernel of
        full-width ``pdist`` distances.  Entries with a wide row take d2
        from the tail norms and the tail Gram product, within the
        bounds of the module docstring.
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("points must be (n, m) with n >= 2")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n, m = pts.shape
    width = np.where(pts.any(axis=1), m - np.argmax(pts[:, ::-1] != 0, axis=1), 0)
    # the narrow width: the second-largest row width, or the only one
    w = int(np.unique(width)[-2:][0])
    wide = width > w
    # n doubles from a view, no n x m copy; exact zeros on narrow rows
    tail = np.einsum("ij,ij->i", pts[:, w:], pts[:, w:])
    blocks = [(rows, np.flatnonzero(wide[rows]))
              for rows in (slice(a, a + _BLOCK) for a in range(0, n, _BLOCK))]
    mat = np.empty((n, n))
    for i, (rows, wide_rows) in enumerate(blocks):
        tail_rows = pts[rows][wide_rows, w:]
        for cols, wide_cols in blocks[i:]:
            block = cdist(pts[rows, :w], pts[cols, :w], "sqeuclidean")
            if wide_rows.size or wide_cols.size:
                # one sum, so t_i + t_j and t_j + t_i share their bits
                block += tail[rows, None] + tail[cols]
            if wide_rows.size and wide_cols.size:
                # 2 g, with g made bitwise symmetric on diagonal blocks
                diagonal = cols is rows
                gram = tail_rows @ (
                    tail_rows if diagonal else pts[cols][wide_cols, w:]
                ).T
                gram = gram + gram.T if diagonal else 2.0 * gram
                block[np.ix_(wide_rows, wide_cols)] -= gram
                np.maximum(block, 0.0, out=block)
            # exp(-d2 / (4 epsilon)) in place, bitwise equal to the
            # out-of-place expression
            np.negative(block, out=block)
            np.divide(block, 4.0 * epsilon, out=block)
            np.exp(block, out=block)
            mat[rows, cols] = block
            mat[cols, rows] = block.T
    np.fill_diagonal(mat, 0.0)
    return Affinity(matrix=mat, epsilon=float(epsilon))


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
