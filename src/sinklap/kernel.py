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
values in place and written with its mirror.  ``sinklap.sinkhorn``
makes both scale vectors s from A; a Laplacian reaches
diag(s) A diag(s) through matvecs with A.  ``Affinity`` owns the
square, finite, symmetric, non-negative A that scaling needs: it
checks outside data once, ``build_affinity``'s A holds it by
construction, and ``kernel_matrix`` reads any kernel argument,
checking an ndarray.

Storage rule: every block is computed in float64 and stored in float32,
the float32 rounding of the float64 kernel, off by at most 2^-24
relative per entry.  If a block holds an entry below float32's smallest
normal, 1.18e-38, the loop restarts into float64 and A is the float64
kernel itself: as float32 subnormals such entries would slow every
product with A many times over, and flushed to zero they would drop
weight that Sinkhorn-Knopp scaling multiplies back by up to ~1e11 on
far outliers.  Heteroskedastic outliers fill whole rows with such
entries, so the restart comes within the first blocks; at worst, one
such entry in the last block, the build costs twice its time.  An
outside kernel stays float32 if it is float32 and is float64 otherwise.
Every pass over A, row sums included, is a product through ``_matvec``,
which multiplies in A's precision and returns float64.

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
exact zeros, so narrow-narrow entries, and all of one-width data, are
bitwise equal to the kernel of a full-width ``pdist`` (to its float32
rounding where A is float32).  Narrow-wide d^2 reorders a sum of
non-negative terms, within about 2 (m - 1) u relative of ``pdist``'s (u
the unit roundoff; 4.4e-13 at m = 2000).  Wide rows a, b are within
about 2 (m + 1) u (||a||^2 + ||b||^2) + 2 (m + 3) u d^2 of it; the
first term matters only for near-coincident outliers.  (x_k - y_k)^2
equals (y_k - x_k)^2 bitwise, t_i + t_j is one sum and g is symmetrized
on diagonal blocks, so the matrix is bitwise symmetric.  These bounds
hold for the float64 kernel; a float32 A rounds each entry once more,
symmetric entries alike.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import gamma

from .errors import integer_at_least, positive_finite


# rows per block in ``build_affinity``, which bounds its temporaries
_BLOCK = 128


@dataclass
class Affinity:
    """A dense kernel matrix with its bandwidth.

    The matrix is a read-only, checked copy of the given one: square,
    finite, bitwise symmetric and non-negative, float32 if the given one
    is and float64 otherwise.  epsilon is positive and finite.
    """

    matrix: np.ndarray
    epsilon: float

    def __post_init__(self):
        positive_finite("epsilon", self.epsilon)
        self.matrix = _checked_kernel(np.array(self.matrix))
        self.matrix.setflags(write=False)

    @property
    def n(self):
        return self.matrix.shape[0]


def _checked_kernel(a):
    """a as a float32 array if it is one, else as a float64 array; raises
    unless square, finite, symmetric and non-negative.

    One pass over upper cache-sized tiles: each must be finite (a NaN or
    an infinity shows in its minimum or maximum), then equal to the
    transposed lower tile.  Once symmetry holds the upper tiles hold
    every entry and alone are checked for sign, so asymmetry is reported
    before sign.
    """
    mat = np.asarray(a)
    if mat.dtype != np.float32:
        mat = mat.astype(float, copy=False)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    n, block = mat.shape[0], 256
    negative = False
    for i in range(0, n, block):
        for j in range(i, n, block):
            upper = mat[i : i + block, j : j + block]
            low, high = upper.min(), upper.max()
            if not (np.isfinite(low) and np.isfinite(high)):
                raise ValueError("matrix must be finite")
            if not np.array_equal(upper, mat[j : j + block, i : i + block].T):
                raise ValueError("matrix must be symmetric")
            negative = negative or low < 0
    if negative:
        raise ValueError("matrix must be non-negative")
    return mat


def kernel_matrix(a):
    """An Affinity's matrix as is, or an ndarray checked like one."""
    return a.matrix if isinstance(a, Affinity) else _checked_kernel(a)


def _matvec(mat, x):
    """A x in A's precision, as a float64 vector.

    x is cast to A's dtype first: numpy multiplies a float32 A by a
    float64 x through a float64 copy of A, n x n, where a float32 x
    takes one ``sgemv`` pass over A itself.
    """
    return (mat @ x.astype(mat.dtype, copy=False)).astype(float, copy=False)


def gaussian_kernel(xi, d):
    """g(xi) = (4 pi)^(-d/2) exp(-xi/4) for xi >= 0."""
    xi = np.asarray(xi, dtype=float)
    if np.any(xi < 0):
        raise ValueError("xi must be non-negative")
    return (4.0 * np.pi) ** (-d / 2.0) * np.exp(-xi / 4.0)


def normalized_prefactor(n, epsilon, d):
    """kappa = n^-1 (4 pi epsilon)^(-d/2), the normalized/unscaled kernel ratio."""
    positive_finite("epsilon", epsilon)
    integer_at_least("n", n, 1)
    integer_at_least("d", d, 1)
    return (4.0 * np.pi * epsilon) ** (-d / 2.0) / n


def build_affinity(points, epsilon):
    """Assemble the zero-diagonal Gaussian kernel of a point cloud.

    Each upper pair of contiguous row blocks is a w-column ``cdist``,
    plus t_i + t_j on a block with a wide row, minus 2 g_ij between its
    wide rows; it is turned into kernel values in float64 and written
    with its mirror into a float32 matrix.  One entry below float32's
    smallest normal restarts the loop into a float64 matrix (module
    docstring), at worst doubling the build time.

    Parameters
    ----------
    points : ndarray, shape (n, m)
        Finite ambient coordinates, n >= 2 and m >= 1.
    epsilon : float
        Kernel bandwidth, positive and finite.

    Returns
    -------
    Affinity
        Bitwise-symmetric non-negative matrix exp(-d2 / (4 epsilon))
        with a zero diagonal, float32 when float32 holds every entry as
        a normal number and float64 otherwise.  Entries between narrow
        rows, and all entries of one-width data, are bitwise equal to
        the kernel of full-width ``pdist`` distances, or to its float32
        rounding in a float32 matrix.  Entries with a wide row take d2
        from the tail norms and the tail Gram product, within the
        bounds of the module docstring (before rounding).
    """
    pts = np.ascontiguousarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] < 1:
        raise ValueError("points must be (n, m) with n >= 2 and m >= 1")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    positive_finite("epsilon", epsilon)
    n, m = pts.shape
    width = np.where(pts.any(axis=1), m - np.argmax(pts[:, ::-1] != 0, axis=1), 0)
    # the narrow width: the second-largest row width, or the only one
    w = int(np.unique(width)[-2:][0])
    wide = width > w
    # n doubles from a view, no n x m copy; exact zeros on narrow rows
    tail = np.einsum("ij,ij->i", pts[:, w:], pts[:, w:])
    blocks = [(rows, np.flatnonzero(wide[rows]))
              for rows in (slice(a, a + _BLOCK) for a in range(0, n, _BLOCK))]
    for dtype in (np.float32, np.float64):
        mat = None  # free a float32 attempt before the float64 array
        mat = np.empty((n, n), dtype)
        if _fill_kernel(mat, pts, epsilon, blocks, w, tail):
            break
    # symmetric by the mirror writes, non-negative by exp: no copy, no check
    mat.setflags(write=False)
    aff = object.__new__(Affinity)
    aff.matrix, aff.epsilon = mat, float(epsilon)
    return aff


def _fill_kernel(mat, pts, epsilon, blocks, w, tail):
    """Write the kernel into mat block by block; False once a float32 mat
    meets an entry below float32's smallest normal.

    Each block is computed in float64 and stored by rounding to mat's
    dtype, so a float32 mat holds the float32 rounding of the float64 one.
    """
    floor = np.finfo(np.float32).tiny if mat.dtype == np.float32 else 0.0
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
            if block.min() < floor:
                return False
            mat[rows, cols] = block
            mat[cols, rows] = block.T
    np.fill_diagonal(mat, 0.0)
    return True


def kernel_moments(d):
    """Zeroth and second moments (m0, m2) of the kernel profile.

    m0 = integral of g(||u||^2) over R^d and m2 = (1/d) integral of
    ||u||^2 g(||u||^2), computed by radial quadrature.  Both equal
    (1, 2) for every d by the Gaussian's normalization.
    """
    # imported on call, so that importing the package skips scipy.integrate
    from scipy.integrate import quad

    integer_at_least("d", d, 1)
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
