"""Synthetic 1D manifold datasets.

Two unit-length closed curves, both parametrized by arclength t in
[0, 1):

* ``SINUSOIDAL_1D`` -- a closed curve in R^4 sampled with the smooth
  non-uniform density p(t) = 1 - 0.6 sin(6 pi t),
* ``UNIFORM_CIRCLE`` -- a circle of circumference 1 in R^2 sampled
  uniformly.

Both curves are exactly unit-speed, so t is intrinsic arclength, and two
large-sample limits have closed forms: ``delta_p_f``, the weighted
Laplacian f'' + (p'/p) f' of the test function f(t) = sin(2 pi (t + 0.05)),
and ``population_reference``, the normalized kernel's scaling p(t)^(-1/2).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rng import make_rng
from .errors import finite, integer_at_least, member, unit_interval, zero_or_one

_OMEGA = 2.0
_CURVE_SCALE = 1.0 / (2.0 * np.pi * np.sqrt(5.0))
_CIRCLE_SCALE = 1.0 / (2.0 * np.pi)


class DensitySpec(Enum):
    """Sampling law for the intrinsic coordinate."""

    SINUSOIDAL_1D = "sinusoidal1d"
    UNIFORM_CIRCLE = "uniform_circle"


@dataclass
class Dataset:
    """A sampled manifold dataset, split as the paper writes each
    observed sample: x_i = x_i^c + xi_i, its clean point plus its noise
    vector, which is exactly 0 for an inlier.

    Attributes
    ----------
    t : ndarray, shape (n,)
        Intrinsic coordinates in [0, 1).
    clean_points : ndarray, shape (n, k)
        On-manifold coordinates x^c, finite.
    outlier_flags : ndarray of bool, shape (n,)
        Which samples are outliers, given as bools or 0/1; none, if not
        given.
    outlier_offsets : ndarray, shape (n_out, m) with m >= k
        The noise vectors xi of the flagged samples in R^m, in row order,
        one row per set flag, finite; (0, k), if not given.  A sample is
        observed at its clean row zero-padded to R^m plus its xi, so a
        dataset never stores the n x m cloud (``points`` builds it).
    seed : int
        Seed the dataset was drawn with, an integer >= 0.

    A clean dataset is one with no flag set.  The dataset holds
    read-only views of the given arrays, so the caller's own arrays stay
    writeable and are not copied; treat instances as immutable values.
    Two datasets are equal when their seeds are and their four arrays
    are bitwise equal; like any mutable dataclass, a dataset is not
    hashable.
    """

    t: np.ndarray
    clean_points: np.ndarray
    outlier_flags: np.ndarray | None = None
    outlier_offsets: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float).view()
        self.clean_points = np.asarray(self.clean_points, dtype=float).view()
        if self.t.ndim != 1 or self.clean_points.ndim != 2:
            raise ValueError("t must be (n,) and clean_points (n, m)")
        n, k = self.clean_points.shape
        if self.t.shape[0] != n:
            raise ValueError("t and clean_points disagree on n")
        unit_interval("t", self.t)
        finite("clean_points", self.clean_points)
        # the arguments as given: one left out is a clean dataset's
        flags, xi = self.outlier_flags, self.outlier_offsets
        flags = np.zeros(n, bool) if flags is None else flags
        zero_or_one("outlier_flags", flags)
        self.outlier_flags = np.asarray(flags, dtype=bool).view()
        self.outlier_offsets = np.asarray(np.zeros((0, k)) if xi is None else xi,
                                          dtype=float).view()
        if self.outlier_flags.shape != (n,):
            raise ValueError("outlier_flags must be (n,)")
        flagged = int(np.count_nonzero(self.outlier_flags))
        if self.outlier_offsets.ndim != 2 or self.outlier_offsets.shape[0] != flagged:
            raise ValueError(f"outlier_offsets must be (n_out, m) with one row per "
                             f"set outlier flag, {flagged}")
        if self.outlier_offsets.shape[1] < k:
            raise ValueError("outlier_offsets must be at least as wide as clean_points")
        finite("outlier_offsets", self.outlier_offsets)
        integer_at_least("seed", self.seed, 0)
        for arr in (self.t, self.clean_points, self.outlier_flags, self.outlier_offsets):
            arr.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.seed == other.seed and all(
            _same_bits(getattr(self, name), getattr(other, name))
            for name in ("t", "clean_points", "outlier_flags", "outlier_offsets")
        )

    @property
    def n(self):
        return self.t.shape[0]

    @property
    def points(self):
        """Observed coordinates x^c + xi, a new (n, m) array: the clean
        points zero-padded to R^m, each outlier's xi added to its row."""
        pts = embed_ambient(self.clean_points, self.outlier_offsets.shape[1])
        pts[self.outlier_flags] += self.outlier_offsets
        return pts


def _same_bits(a, b):
    """Whether two arrays have one dtype, one shape and the same bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def curve_point(t):
    """Point(s) on the closed unit-speed curve in R^4.

    x(t) = (2 pi sqrt(5))^-1 (cos 2 pi t, sin 2 pi t,
                              (2/w) cos 2 pi w t, (2/w) sin 2 pi w t)

    with w = 2.  Returns shape ``t.shape + (4,)``.
    """
    t = np.asarray(t, dtype=float)
    unit_interval("t", t)
    a = 2.0 * np.pi * t
    return _CURVE_SCALE * np.stack(
        [
            np.cos(a),
            np.sin(a),
            (2.0 / _OMEGA) * np.cos(_OMEGA * a),
            (2.0 / _OMEGA) * np.sin(_OMEGA * a),
        ],
        axis=-1,
    )


def circle_point(t):
    """Point(s) on the circumference-1 circle in R^2, shape ``t.shape + (2,)``."""
    t = np.asarray(t, dtype=float)
    unit_interval("t", t)
    a = 2.0 * np.pi * t
    return _CIRCLE_SCALE * np.stack([np.cos(a), np.sin(a)], axis=-1)


def density(t, spec):
    """Sampling density p(t) on [0, 1)."""
    t = np.asarray(t, dtype=float)
    unit_interval("t", t)
    member(DensitySpec, spec, "density")
    if spec is DensitySpec.SINUSOIDAL_1D:
        return 1.0 - 0.6 * np.sin(6.0 * np.pi * t)
    return np.ones_like(t)


def density_cdf(t, spec):
    """CDF of ``density``; accepts t in [0, 1]."""
    t = np.asarray(t, dtype=float)
    unit_interval("t", t, closed=True)
    member(DensitySpec, spec, "density")
    if spec is DensitySpec.SINUSOIDAL_1D:
        return t - (0.1 / np.pi) * (1.0 - np.cos(6.0 * np.pi * t))
    return t.copy()


def density_cdf_inverse(u, spec):
    """Inverse CDF by bisection (identity for the uniform circle).

    The sinusoidal density is bounded below by 0.4, so the CDF is
    strictly increasing and 80 bisection steps pin t to well below
    1e-12.
    """
    u = np.asarray(u, dtype=float)
    unit_interval("u", u)
    if spec is DensitySpec.UNIFORM_CIRCLE:
        return u.copy()
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = density_cdf(mid, spec) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def test_function(t):
    """f(t) = sin(2 pi (t + 0.05)), the bundled smooth test function."""
    t = np.asarray(t, dtype=float)
    unit_interval("t", t)
    return np.sin(2.0 * np.pi * (t + 0.05))


def delta_p_f(t, spec):
    """Density-weighted Laplacian of ``test_function``.

    Delta_p f = f'' + (p'/p) f'; the drift term vanishes for the
    uniform circle.
    """
    t = np.asarray(t, dtype=float)
    unit_interval("t", t)
    phase = 2.0 * np.pi * (t + 0.05)
    fpp = -4.0 * np.pi**2 * np.sin(phase)
    if spec is DensitySpec.UNIFORM_CIRCLE:
        return fpp
    fp = 2.0 * np.pi * np.cos(phase)
    p = density(t, spec)
    pp = -3.6 * np.pi * np.cos(6.0 * np.pi * t)
    return fpp + (pp / p) * fp


def population_reference(ds, spec):
    """Large-sample limit of the normalized kernel's scaling: p(t)^(-1/2)."""
    return density(ds.t, spec) ** -0.5


def embed_ambient(points, m):
    """Zero-pad points (n, k) into R^m, m >= k."""
    points = np.asarray(points, dtype=float)
    n, k = points.shape
    if m < k:
        raise ValueError(f"cannot embed {k}-column points into R^{m}")
    out = np.zeros((n, m))
    out[:, :k] = points
    return out


def sample_dataset(n, spec, seed):
    """Draw a clean dataset of n points from the given density.

    Uniforms come from a PCG64 stream seeded with ``seed`` and are
    pushed through the inverse CDF, so equal seeds give bitwise equal
    datasets.  n is an integer >= 1, seed an integer >= 0 and spec a
    ``DensitySpec``, each checked before the draw.
    """
    integer_at_least("n", n, 1)
    integer_at_least("seed", seed, 0)
    member(DensitySpec, spec, "density")
    rng = make_rng(seed)
    u = rng.random(n)
    t = density_cdf_inverse(u, spec)
    if spec is DensitySpec.UNIFORM_CIRCLE:
        pts = circle_point(t)
    else:
        pts = curve_point(t)
    return Dataset(t=t, clean_points=pts, seed=seed)

