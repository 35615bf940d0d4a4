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
loop over upper pairs of row blocks: each pair is one ``cdist`` turned
into kernel values in place and written with its mirror.  Scalings and
Laplacians (``sinklap.laplacian``) keep it as the kernel A plus a scale
vector s and reach diag(s) A diag(s) through matvecs with A.

Distances are scipy's "sqeuclidean" sums of (x_k - y_k)^2 in column
order; no Gram-matrix expansion is used anywhere.  (x_k - y_k)^2 equals
(y_k - x_k)^2 bitwise, so the matrix is bitwise symmetric.  Columns past
both rows' last nonzero entry add exact zeros, so each pair is summed
over a column prefix covering both rows' support and keeps the bits of
a full-width ``pdist``: zero-padded inliers cost a few columns, not m.
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

    A row's width is 1 + the index of its last nonzero column.  Rows
    narrower than the widest meet each other over the widest narrow
    prefix and the widest rows meet all rows over theirs; with one width
    all rows form one group.  Each upper pair of row blocks is one
    ``cdist``, turned into kernel values and written with its mirror.

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
        with a zero diagonal; off the diagonal, entry by entry bitwise
        equal to the kernel of full-width ``pdist`` distances.
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
    wmax = int(width.max())
    blocks = []
    for group in (np.flatnonzero(width < wmax), np.flatnonzero(width == wmax)):
        w = int(width[group].max(initial=0))
        for rows in (group[i : i + _BLOCK] for i in range(0, group.size, _BLOCK)):
            run = rows[-1] - rows[0] + 1 == rows.size
            blocks.append((slice(rows[0], rows[-1] + 1) if run else rows, w))
    mat = np.empty((n, n))
    for a, (rows, w_rows) in enumerate(blocks):
        for cols, w_cols in blocks[a:]:
            w = max(w_rows, w_cols)
            block = cdist(pts[rows, :w], pts[cols, :w], "sqeuclidean")
            # exp(-d2 / (4 epsilon)) in place, bitwise equal to the
            # out-of-place expression
            np.negative(block, out=block)
            np.divide(block, 4.0 * epsilon, out=block)
            np.exp(block, out=block)
            # runs of rows are written through slices: np.ix_ writes take
            # twice as long on one-width data
            fancy = not (isinstance(rows, slice) or isinstance(cols, slice))
            mat[np.ix_(rows, cols) if fancy else (rows, cols)] = block
            mat[np.ix_(cols, rows) if fancy else (cols, rows)] = block.T
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
