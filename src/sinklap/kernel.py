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

The affinity is the pipeline's only array of order n^2, and it is
stored once, as A = diag(w) B diag(w), and an ``Affinity`` is that
storage with the bandwidth: an n-vector w of float64 factors
(``weights``) and the symmetric matrix B as its lower block triangle,
for each block of 256 rows s:e the C-ordered rectangle B[s:e, :e], one
after another in one array (``data``), at most n^2 / 2 + 128 n
entries.  An entry left of the diagonal blocks is
stored once, for itself and its mirror, and each 256 x 256 diagonal
block whole, its upper half the transpose of its lower half, so A is
symmetric by construction.  One loop over the rows of 128-row tiles
builds each tile row one stored block column at a time: one ``cdist``
into one reused float64 buffer, one division and one
exponential per entry, the exponential rounding to the stored dtype as
it writes the chunk's rectangle of the block row.  There is no panel,
no n x n temporary, no per-tile temporary and no mirror write outside
the diagonal blocks.  A tile on the diagonal needs no mirror write:
``cdist``'s per-pair sum, t_i + t_j, g + g^T, the clamp and exp
(below) are all symmetric in IEEE arithmetic, so it is symmetric as
computed.
``sinklap.sinkhorn`` makes both scale vectors s from A; a Laplacian
reaches diag(s) A diag(s) through matvecs with A.  ``Affinity`` owns
the square, non-empty, finite, symmetric, non-negative A that scaling
needs: ``Affinity(matrix, epsilon)`` checks outside data once and
stores its triangle with w = 1, and ``build_affinity``'s A holds it by
construction.  ``Affinity.dense`` rebuilds the n x n matrix A for
tests.

Storage rule.  An outlier's noise past the clean columns adds its
squares t_i to every squared distance in its row (see the split
below), so it scales row and column i of A by one factor,
w_i = exp(-t_i / (4 epsilon)), a diagonal scaling that Sinkhorn-Knopp
scaling absorbs.  ``build_affinity`` keeps that factor out of the
stored entries: B_ij = exp(-(c_ij - 2 g_ij) / (4 epsilon)), and w_i = 1
for an inlier and for every array.  Every chunk is computed in float64
and B stored in float32, the float32 rounding of its float64 value,
off by at most 2^-24 relative per entry, while w keeps the magnitude
in float64.  Far outliers put A itself below float32's smallest
normal, 1.18e-38 (down to about exp(-130) under heteroskedastic noise
at n = 1000, m = 2000, epsilon = 5e-4), but their w_i (down to about
3e-22 there) and B's entries (exponents within about [-63, 8]) are
float32 normals.  If a w_i or an entry of
B is not a float32 normal, the loop restarts into float64 and stores
A itself, w = 1: as float32 subnormals such entries would slow every
product with A many times over, and flushed to zero they would drop
weight that Sinkhorn-Knopp scaling multiplies back by up to ~1e11 on
far outliers.  A w_i below the normals skips the float32 attempt; an
entry found late in the loop costs at worst twice the build time.  An
outside kernel is stored with w = 1 and stays float32 if it is float32
and is float64 otherwise.

Every pass over A, row sums included, is a product through ``_matvec``,
w * (B (w * x)) in B's precision, returning float64: two ``gemv`` per
block row, its rectangle times (w * x)[:e] into y[s:e] and the
transpose of its part left of the diagonal tile times (w * x)[s:e]
into y[:s].  Each entry of y is thus one row's dot product over its
own rectangle plus one 256-term sum per later block row, which keeps
float32 products as close to exact
arithmetic as a dense ``sgemv``'s (median 3.0e-7 vs 6.5e-7 relative on
a clean n=3000 kernel), where BLAS's packed ``sspmv`` sums each row
in sequence (2.5e-6).  The BLAS routine is scipy's own OpenBLAS,
reached through the function pointer that ``scipy.linalg.cython_blas``
exports, its C signature checked on import, and called through
``ctypes``, which releases the GIL, so a replica thread's product runs
beside the other thread's Python work; ``scipy.linalg.blas``'s f2py
wrappers hold the GIL for the whole call.  ``_roundoff`` gives the
products' unit roundoff, that of B's dtype, where the eigensolve stops;
this module alone names a precision.  Importing it also sets numpy's
and scipy's bundled OpenBLAS to one thread (``_one_blas_thread``), so
replica threads are the library's only parallelism and no BLAS call
splits its sums by a thread count read from the environment.

One split reads each input as it declares itself.  An array is one
cloud: its squared distances are scipy's "sqeuclidean" ``cdist`` over
all its columns, chunk by chunk, so A is bitwise the kernel of ``pdist``
(its float32 rounding where A is float32).  A ``Dataset`` declares its
clean rows x^c (n, k), its outlier flags and its outliers' noise
vectors xi in R^m, and every squared distance is the paper's split

    ||x_i - x_j||^2 = c_ij + (t_i + t_j) - 2 g_ij,  clamped at 0,

with c_ij the ``cdist`` over the first k columns (an inlier's clean
row, an outlier's x^c + xi[:k]), t_i the squares of an outlier's xi
past column k (0 for an inlier) and g_ij the dot product of two
outliers' tails, one BLAS product per pair of tiles.  Only a pair of
outliers has a g term, so only those entries, about 1 % of them at
10 % outliers, are corrected: each tile pair's outlier x outlier
sub-block is taken out once, has 2 g subtracted (g + g^T on a diagonal
tile), is clamped and is written back before the chunk's one
exponentiation;
every other entry has d^2 = c + (t_i + t_j) >= 0, which the clamp
would leave as it is.  The tails are views of xi, so
the n x m cloud is never built.  A clean dataset has
no outlier, so its A is its clean rows' ``pdist`` kernel.  Inlier
coordinates stay in ``cdist``: on-manifold distances are the small
ones, where a Gram form cancels; g holds the noise inner products that
the paper's outlier term bounds (``noise.cross_term_stats``).

An inlier is zero past column k, so entries between two inliers are
bitwise those of a full-width ``pdist`` of the dataset's ``points``.
Inlier-outlier d^2 reorders a sum of non-negative terms, within about
2 (m - 1) u relative of ``pdist``'s (u the unit roundoff; 4.4e-13 at
m = 2000).  Outliers a, b are within about
2 (m + 1) u (||a||^2 + ||b||^2) + 2 (m + 3) u d^2 of it; the first term
matters only for near-coincident outliers.  These bounds hold for the
float64 kernel.  A float32 B rounds each entry once more, and w_i B_ij
w_j splits the exponent into three, each rounded on its own, which adds
about u (|c_ij - 2 g_ij| + t_i + t_j) / (4 epsilon) relative.  A noisy
(n, m) array is one cloud like any array, an m-column ``cdist`` for
every pair; callers that want the split pass the ``Dataset``.
"""

import ctypes
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import cython_blas
from scipy.spatial.distance import cdist
from scipy.special import gammaln, xlogy

from .errors import finite, finite_nonnegative, integer_at_least, positive_finite, scalar


# rows per tile in ``build_affinity``: a chunk of its rows, one block
# column wide, bounds its temporaries
_TILE = 128
# rows per block row of the stored triangle, a multiple of _TILE: it sets
# the number of BLAS calls per product, each of which hands the GIL over
# and back, which slows replica threads that share it.  256 rows make
# half of 128's calls for 64 n more stored entries; 384 rows measured no
# faster.  It is also the width of ``build_affinity``'s chunks
_BLOCK = 256


class Affinity:
    """A kernel matrix A = diag(w) B diag(w) with its bandwidth, B stored
    as its lower block triangle.

    ``Affinity(matrix, epsilon)`` checks the given dense matrix, which
    must be square, non-empty, finite, bitwise symmetric and
    non-negative, and stores its lower block triangle in a read-only
    copy, float32 if the matrix is and float64 otherwise, with no
    factor (w = 1).  epsilon is positive and finite.

    Block row s:e (``_BLOCK`` rows, fewer in the last) is the C-ordered
    rectangle B[s:e, :e]; ``data`` holds the rectangles one after
    another, read-only.  ``weights`` is w, n positive float64 factors,
    read-only: ones where nothing is factored, so that B is A.
    ``dense()`` rebuilds A.
    """

    __slots__ = ("data", "weights", "epsilon", "n", "_calls")

    def __init__(self, matrix, epsilon):
        scalar("epsilon", epsilon)
        positive_finite("epsilon", epsilon)
        mat = _checked_kernel(matrix)
        n = mat.shape[0]
        # no n x n temporary and no index arrays
        data = np.empty(_stored_size(n), mat.dtype)
        for s, e, panel in _panels(data, n):
            panel[...] = mat[s:e, :e]
        self._store(data, np.ones(n), epsilon)

    def _store(self, data, weights, epsilon):
        """Hold B's triangle, w and epsilon, the arrays made read-only,
        and return self."""
        data.setflags(write=False)
        weights.setflags(write=False)
        self.data, self.weights, self.epsilon = data, weights, epsilon
        self.n = weights.shape[0]
        # ``_matvec``'s BLAS arguments for each block row, made once: rows,
        # width, the width left of the diagonal block (None on the first
        # block row), the rectangle's address and s in bytes
        self._calls = [
            (_int_ref(e - s), _int_ref(e), _int_ref(s) if s else None,
             ctypes.c_void_p(panel.ctypes.data), s * data.itemsize)
            for s, e, panel in self.panels()
        ]
        return self

    def __reduce__(self):
        # the BLAS arguments hold addresses, so a copy rebuilds them
        return _stored, (self.data, self.weights, self.epsilon)

    def panels(self):
        """Each block row of B as (s, e, its (e - s, e) rectangle)."""
        return _panels(self.data, self.n)

    def dense(self):
        """A as a new dense n x n array: in B's dtype where w is all
        ones, else in float64 as (w w^T) * B, the outer product formed
        first so that A stays bitwise symmetric."""
        mat = np.empty((self.n, self.n), self.data.dtype)
        for s, e, panel in self.panels():
            mat[s:e, :e] = panel
            mat[:s, s:e] = panel[:, :s].T
        if np.all(self.weights == 1.0):
            return mat
        outer = np.outer(self.weights, self.weights)
        outer *= mat
        return outer


def _stored(data, weights, epsilon):
    """The Affinity of a triangle and factors made here, unchecked:
    ``build_affinity``'s, or a copy's."""
    return object.__new__(Affinity)._store(data, weights, epsilon)


def _int_ref(value):
    """A C int holding value, by reference, as BLAS takes its sizes."""
    return ctypes.byref(ctypes.c_int(value))


def _stored_size(n):
    """Entries of a lower block triangle of order n: B^2 q (q + 1) / 2
    for q full block rows, and r n for a last block row of r < B rows."""
    q, r = divmod(n, _BLOCK)
    return _BLOCK * _BLOCK * q * (q + 1) // 2 + r * n


def _panels(data, n):
    """(s, e, rectangle) of each block row s:e of a lower block triangle
    stored in data, the rectangle an (e - s, e) view."""
    start = 0
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        yield s, e, data[start : start + (e - s) * e].reshape(e - s, e)
        start += (e - s) * e


def _checked_kernel(a):
    """a as a float32 array if it is one, else as a float64 array; raises
    unless square, non-empty, finite, symmetric and non-negative.

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
    if mat.size == 0:
        raise ValueError("matrix must be non-empty")
    n, block = mat.shape[0], 256
    negative = False
    for i in range(0, n, block):
        for j in range(i, n, block):
            upper = mat[i : i + block, j : j + block]
            low, _ = finite("matrix", upper)
            if not np.array_equal(upper, mat[j : j + block, i : i + block].T):
                raise ValueError("matrix must be symmetric")
            negative = negative or low < 0
    if negative:
        raise ValueError("matrix must be non-negative")
    return mat


def packed_kernel(a):
    """An Affinity as it is, or an ndarray read as ``Affinity(a, 1.0)``,
    checked and stored: no scaling reads the bandwidth."""
    return a if isinstance(a, Affinity) else Affinity(a, 1.0)


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi)
)
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


def _blas_gemv(prefix, real):
    """scipy's Cython BLAS ``?gemv`` as a ctypes function, with 1 in the
    routine's precision: ctypes releases the GIL for the call, where
    scipy.linalg.blas's f2py wrappers hold it.

    The capsule's name is the routine's C signature; it must be the one
    ``_matvec``'s arguments follow (32-bit ints, pointers to the real
    type), or a BLAS built otherwise would read through wrong pointers.
    """
    capsule = cython_blas.__pyx_capi__[prefix + "gemv"]
    name = _capsule_name(capsule)
    typed = f"__pyx_t_5scipy_6linalg_11cython_blas_{prefix} *"
    # trans, m, n, alpha, a, lda, x, incx, beta, y, incy
    want = "void (char *, int *, int *, {0}, {0}, int *, {0}, int *, {0}, {0}, int *)"
    if name.decode() != want.format(typed):
        raise ImportError(f"scipy.linalg.cython_blas.{prefix}gemv has signature "
                          f"{name.decode()!r}, not {want.format(typed)!r}")
    # no argtypes: each call passes ctypes objects of the checked types,
    # which skips ctypes' per-argument conversion, 2.4 of a bare call's
    # 3.5 us
    gemv = ctypes.CFUNCTYPE(None)(_capsule_pointer(capsule, name))
    return gemv, ctypes.byref(real(1.0))


_GEMV = {
    np.dtype(np.float32): _blas_gemv("s", ctypes.c_float),
    np.dtype(np.float64): _blas_gemv("d", ctypes.c_double),
}
_UNIT_STRIDE = _int_ref(1)
_TRANS, _NO_TRANS = ctypes.c_char_p(b"T"), ctypes.c_char_p(b"N")


def _one_blas_thread():
    """Set the OpenBLAS that numpy and scipy bundle in their ``.libs``
    folders to one thread, through the setter each exports; a library or
    a setter that is not found is left as it is."""
    for module, name in ((np, "scipy_openblas_set_num_threads64_"),
                         (scipy, "scipy_openblas_set_num_threads")):
        libs = Path(module.__file__).parents[1] / f"{module.__name__}.libs"
        for path in libs.glob("libscipy_openblas*"):
            setter = getattr(ctypes.CDLL(str(path)), name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


_one_blas_thread()


def _matvec(a, x):
    """A x = w * (B (w * x)) in B's precision, as a float64 vector: two
    ``gemv`` per block row of B's stored triangle.

    w * x is cast to B's dtype first.  Block row s:e adds its rectangle
    B[s:e, :e] times it to y[s:e], and the transpose of B[s:e, :s]
    times its part s:e to y[:s].  The rectangle is C-ordered, so to
    Fortran BLAS it is its transpose with leading dimension e.  Where w
    is 1 both products by w are exact, and A x is B x bit for bit.
    """
    n, data, w = a.n, a.data, a.weights
    x = np.asarray(x)
    if x.shape != (n,):
        raise ValueError(f"vector must have shape ({n},)")
    # w * x in B's dtype, then y, in one buffer: one address to look up
    xy = np.zeros(2 * n, data.dtype)
    np.multiply(w, x, out=xy[:n])
    gemv, one = _GEMV[data.dtype]
    x_at = xy.ctypes.data
    y_at = x_at + n * data.itemsize
    x_all, y_all = ctypes.c_void_p(x_at), ctypes.c_void_p(y_at)
    for rows, width, left, at, shift in a._calls:
        gemv(_TRANS, width, rows, one, at, width, x_all, _UNIT_STRIDE, one,
             ctypes.c_void_p(y_at + shift), _UNIT_STRIDE)
        if left is not None:
            gemv(_NO_TRANS, left, rows, one, at, width, ctypes.c_void_p(x_at + shift),
                 _UNIT_STRIDE, one, y_all, _UNIT_STRIDE)
    return w * xy[n:]


def _roundoff(a):
    """The unit roundoff of ``_matvec``'s products with a: B's
    precision, 2^-24 on a float32 triangle and 2^-53 on a float64 one."""
    return float(np.finfo(a.data.dtype).epsneg)


def gaussian_kernel(xi, d):
    """g(xi) = (4 pi)^(-d/2) exp(-xi/4) for finite xi >= 0 and an
    integer dimension d >= 1."""
    finite_nonnegative("xi", xi)
    integer_at_least("d", d, 1)
    xi = np.asarray(xi, dtype=float)
    return (4.0 * np.pi) ** (-d / 2.0) * np.exp(-xi / 4.0)


def normalized_prefactor(n, epsilon, d):
    """kappa = n^-1 (4 pi epsilon)^(-d/2), the normalized/unscaled kernel ratio."""
    scalar("epsilon", epsilon)
    positive_finite("epsilon", epsilon)
    integer_at_least("n", n, 1)
    integer_at_least("d", d, 1)
    return (4.0 * np.pi * epsilon) ** (-d / 2.0) / n


def build_affinity(points, epsilon):
    """Assemble the zero-diagonal Gaussian kernel of a point cloud.

    ``_split`` reads the input as it declares itself (module docstring):
    an array is one cloud, and a dataset is its rows' first k columns,
    k its clean width, plus its outliers' tails past column k, views of
    its noise vectors, so the n x m cloud is never built.

    A is stored as diag(w) B diag(w) (module docstring): w_i =
    exp(-t_i / (4 epsilon)) with t_i the squares of outlier i's tail
    (w_i = 1 for an inlier), and B the kernel with those squares left
    out.  Each 128-row tile row of B is built one stored block column
    at a time: one ``cdist`` of the first columns, minus 2 g_ij on each
    tile pair's outlier x outlier sub-block alone, the only part
    clamped; then each entry is divided and exponentiated once, in
    float64, straight into the chunk's rectangle of B's float32 lower
    block triangle, a tile on the diagonal symmetric as computed.  A
    w_i or a stored entry of B that is not a float32 normal restarts
    the loop into the float64 triangle of A itself, with w = 1, which
    adds t_i + t_j to each chunk: at worst double the build time.

    Parameters
    ----------
    points : Dataset, or ndarray of shape (n, m)
        A dataset, read through its clean_points, outlier_flags and
        outlier_offsets (this module imports no dataset type); or finite
        coordinates.  n >= 2 and m >= 1.
    epsilon : float
        Kernel bandwidth, positive and finite.

    Returns
    -------
    Affinity
        The symmetric non-negative matrix exp(-d2 / (4 epsilon)) with a
        zero diagonal, stored as diag(w) B diag(w), B's lower block
        triangle float32 when float32 holds every w_i and every entry
        of B as a normal number, and float64 (w = 1) otherwise.  An
        array's entries, and those between two inliers, are bitwise
        equal to the kernel of full-width ``pdist`` distances, or to its
        float32 rounding in float32.  Entries with an outlier take d2
        from the tail norms and the tail Gram product, within the bounds
        of the module docstring.
    """
    prefix, outliers, tails = _split(points)
    scalar("epsilon", epsilon)
    positive_finite("epsilon", epsilon)
    n = prefix.shape[0]
    tail = np.zeros(n)
    tail[outliers] = np.einsum("ij,ij->i", tails, tails)
    # each tile's rows, its outliers' offsets in it, as a vector and as a
    # column, their tails' rows and their tail squares
    tiles = []
    for a in range(0, n, _TILE):
        rows = slice(a, min(a + _TILE, n))
        lo, hi = np.searchsorted(outliers, (rows.start, rows.stop))
        out = outliers[lo:hi] - a
        tiles.append((rows, out, out[:, None], slice(lo, hi), tail[outliers[lo:hi]]))
    # a float32 B factors the tail squares out into w; a float64 one
    # keeps them in, with w = 1
    factors = np.exp(np.divide(tail, -4.0 * epsilon))
    attempts = [(np.float64, np.ones(n))]
    if factors.min() >= np.finfo(np.float32).tiny:
        attempts.insert(0, (np.float32, factors))
    for dtype, weights in attempts:
        data = None  # free a float32 attempt before the float64 triangle
        data = np.empty(_stored_size(n), dtype)
        if _fill_kernel(data, prefix, epsilon, tiles, tail, tails):
            break
    # one triangle, so symmetric by construction; non-negative by exp
    return _stored(data, weights, float(epsilon))


def _split(points):
    """The columns every pair's ``cdist`` reads, the outliers' row
    indices and their tails, one row per outlier.

    points is an array or a dataset, read as its clean rows (n, k), its
    outlier flags and its noise vectors xi (n_out, m), which ``Dataset``
    has checked; an array is its rows with no outlier.  The first
    columns are the clean rows with each outlier's first k coordinates,
    clean + xi[:, :k], in place, and the tails are the view of xi past
    column k: an outlier's row there is 0 + xi, xi exactly.
    """
    clean = np.ascontiguousarray(getattr(points, "clean_points", points), dtype=float)
    xi = getattr(points, "outlier_offsets", clean[:0])
    if clean.ndim != 2 or clean.shape[0] < 2 or xi.shape[-1] < 1:
        raise ValueError("points must be (n, m) with n >= 2 and m >= 1")
    finite("points", clean)
    k = clean.shape[1]
    outliers = np.flatnonzero(getattr(points, "outlier_flags", ()))
    prefix = clean
    if outliers.size:
        prefix = clean.copy()
        prefix[outliers] += xi[:, :k]
    return prefix, outliers, xi[:, k:]


def _fill_kernel(data, prefix, epsilon, tiles, tail, tails):
    """Write the lower block triangle of B into data, one row of tiles
    at a time: B = A in float64, and B = A with each outlier's tail
    squares t_i factored out in float32; False once a float32 entry
    is not a float32 normal.  prefix holds the columns of each pair's
    ``cdist``, tail each row's squares past them, and tiles each tile's
    rows, its outliers' offsets in it (a vector and a column), the slice
    of their rows in tails, read as a view, and their tail squares.

    A tile row's entries left of and on the diagonal are computed one
    chunk at a time, the chunk one stored block column wide (``_BLOCK``
    columns, fewer where the row's diagonal tile ends it), in a float64
    buffer made once per call.  Its exponent, one ``cdist`` into the
    buffer, is c in float32 and c + (t_i + t_j) in float64.  On each
    128 x 128 pair in it with outliers on both sides the outlier x
    outlier sub-block, the only entries with a tail Gram term, is taken
    out once, has 2 g subtracted (g + g^T on a diagonal tile: the same
    bits where the product is symmetric), is clamped (at -(t_i + t_j)
    in float32, d2 at 0, and at 0 in float64) and is written back;
    every other entry has c >= 0 >= -(t_i + t_j), so the clamp would
    leave it as it is.  A diagonal tile's diagonal is zeroed in
    exponent space, so that an outlier's own pair, exp(t_i / (2
    epsilon)) in float32, cannot pass float32's largest value.  The
    chunk is then divided in place and exponentiated once, in float64,
    straight into its rectangle of data, rounding to data's dtype as
    it stores.  The stored entries are range-checked in one test: below
    float32's smallest normal, or above its largest value (an overflow
    stores infinity) where a pair is two-sided, the only kind whose
    entries can exceed 1 (c - 2 g < 0).  Then the diagonal is zeroed
    again, as A_ii is 0.  A diagonal tile is symmetric as computed
    (module docstring); the tile left of it inside its diagonal block
    is also stored transposed into the block's upper half.
    """
    single = data.dtype == np.float32
    tiny, huge = np.finfo(np.float32).tiny, np.finfo(np.float32).max
    scale = -4.0 * epsilon
    buf = np.empty(_TILE * _BLOCK)
    panels = _panels(data, prefix.shape[0])
    for i, (rows, out_rows, pick_rows, at_rows, t_rows) in enumerate(tiles):
        if rows.start % _BLOCK == 0:
            s, _, panel = next(panels)
        stored_rows, height = slice(rows.start - s, rows.stop - s), rows.stop - rows.start
        for c in range(0, rows.stop, _BLOCK):
            cols = slice(c, min(c + _BLOCK, rows.stop))
            chunk = buf[: height * (cols.stop - c)].reshape(height, -1)
            cdist(prefix[rows], prefix[cols], "sqeuclidean", out=chunk)
            pairs = tiles[c // _TILE : min(i + 1, (c + _BLOCK) // _TILE)]
            if not single and (out_rows.size or any(p[1].size for p in pairs)):
                chunk += tail[rows, None] + tail[cols]
            two_sided = False
            for tile_cols, out_cols, _, at_cols, t_cols in pairs:
                block = chunk[:, tile_cols.start - c : tile_cols.stop - c]
                if out_rows.size and out_cols.size:
                    two_sided = True
                    cross = block[pick_rows, out_cols]
                    # on a diagonal tile numpy's product of the tails with
                    # their own transpose is one syrk, half a gemm's work
                    gram = tails[at_rows] @ tails[at_cols].T
                    cross -= gram + gram.T if tile_cols == rows else 2.0 * gram
                    np.maximum(cross, -(t_rows[:, None] + t_cols) if single else 0.0,
                               out=cross)
                    block[pick_rows, out_cols] = cross
                if tile_cols == rows:
                    np.fill_diagonal(block, 0.0)
            # exp(-d2 / (4 epsilon)) in place, bitwise equal to the
            # out-of-place expression: IEEE division is sign-symmetric
            np.divide(chunk, scale, out=chunk)
            stored = panel[stored_rows, cols]
            with np.errstate(over="ignore"):
                np.exp(chunk, out=stored)
            if single and (stored.min() < tiny or two_sided and stored.max() > huge):
                return False
            if cols.stop == rows.stop:
                np.fill_diagonal(panel[stored_rows, rows], 0.0)
            if c == s and rows.start > s:
                panel[: rows.start - s, rows] = panel[stored_rows, s : rows.start].T
    return True


def kernel_moments(d):
    """Zeroth and second moments (m0, m2) of the kernel profile.

    m0 = integral of g(||u||^2) over R^d and m2 = (1/d) integral of
    ||u||^2 g(||u||^2), computed by radial quadrature over the whole
    half-line, split at the integrand's peak.  The unit sphere's area
    and g's prefactor enter with the radial power as one logarithm, so
    no factor overflows or underflows at large d.  Both equal (1, 2)
    for every d by the Gaussian's normalization.
    """
    # imported on call, so that importing the package skips scipy.integrate
    from scipy.integrate import quad

    integer_at_least("d", d, 1)
    # log of the sphere's area 2 pi^(d/2) / Gamma(d/2) times (4 pi)^(-d/2)
    log_c = (1 - d) * np.log(2.0) - gammaln(d / 2.0)

    def moment(power):
        k = d - 1 + power

        def radial(r):
            return np.exp(log_c + xlogy(k, r) - r * r / 4.0)

        peak = np.sqrt(2.0 * k)
        return sum(quad(radial, a, b, epsabs=1e-13, epsrel=1e-13)[0]
                   for a, b in ((0.0, peak), (peak, np.inf)))

    return moment(0), moment(2) / d
