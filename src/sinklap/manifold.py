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

_OMEGA = 2.0
_CURVE_SCALE = 1.0 / (2.0 * np.pi * np.sqrt(5.0))
_CIRCLE_SCALE = 1.0 / (2.0 * np.pi)


class DensitySpec(Enum):
    """Sampling law for the intrinsic coordinate."""

    SINUSOIDAL_1D = "sinusoidal1d"
    UNIFORM_CIRCLE = "uniform_circle"


@dataclass
class Dataset:
    """A sampled manifold dataset.

    Attributes
    ----------
    t : ndarray, shape (n,)
        Intrinsic coordinates in [0, 1).
    clean_points : ndarray, shape (n, k)
        On-manifold coordinates.
    noisy_points : ndarray, shape (n, m) with m >= k, or None
        Observed coordinates after noise; None for clean datasets.  The
        clean points sit in its first k columns (zero-padded to R^m).
    outlier_flags : ndarray or None
        Boolean per sample; paired with ``noisy_points``.
    seed : int
        Seed the dataset was drawn with.

    Arrays are marked read-only on construction; treat instances as
    immutable values.
    """

    t: np.ndarray
    clean_points: np.ndarray
    noisy_points: np.ndarray | None = None
    outlier_flags: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.clean_points = np.asarray(self.clean_points, dtype=float)
        if self.t.ndim != 1 or self.clean_points.ndim != 2:
            raise ValueError("t must be (n,) and clean_points (n, m)")
        n = self.t.shape[0]
        if self.clean_points.shape[0] != n:
            raise ValueError("t and clean_points disagree on n")
        if (self.noisy_points is None) != (self.outlier_flags is None):
            raise ValueError("noisy_points and outlier_flags must come together")
        if self.noisy_points is not None:
            self.noisy_points = np.asarray(self.noisy_points, dtype=float)
            self.outlier_flags = np.asarray(self.outlier_flags, dtype=bool)
            if (
                self.noisy_points.ndim != 2
                or self.noisy_points.shape[0] != n
                or self.noisy_points.shape[1] < self.clean_points.shape[1]
            ):
                raise ValueError("noisy_points must be (n, m) with m >= clean width")
            if self.outlier_flags.shape != (n,):
                raise ValueError("outlier_flags must be (n,)")
        for arr in (self.t, self.clean_points, self.noisy_points, self.outlier_flags):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self):
        return self.t.shape[0]

    @property
    def points(self):
        """Observed coordinates: noisy when present, clean otherwise."""
        return self.noisy_points if self.noisy_points is not None else self.clean_points


def _check_unit_interval(t):
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("t must lie in [0, 1)")


def curve_point(t):
    """Point(s) on the closed unit-speed curve in R^4.

    x(t) = (2 pi sqrt(5))^-1 (cos 2 pi t, sin 2 pi t,
                              (2/w) cos 2 pi w t, (2/w) sin 2 pi w t)

    with w = 2.  Returns shape ``t.shape + (4,)``.
    """
    t = np.asarray(t, dtype=float)
    _check_unit_interval(t)
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
    _check_unit_interval(t)
    a = 2.0 * np.pi * t
    return _CIRCLE_SCALE * np.stack([np.cos(a), np.sin(a)], axis=-1)


def density(t, spec):
    """Sampling density p(t) on [0, 1)."""
    t = np.asarray(t, dtype=float)
    _check_unit_interval(t)
    if spec is DensitySpec.SINUSOIDAL_1D:
        return 1.0 - 0.6 * np.sin(6.0 * np.pi * t)
    return np.ones_like(t)


def density_cdf(t, spec):
    """CDF of ``density``; accepts t in [0, 1]."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("t must lie in [0, 1]")
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
    if np.any(u < 0.0) or np.any(u >= 1.0):
        raise ValueError("u must lie in [0, 1)")
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
    _check_unit_interval(t)
    return np.sin(2.0 * np.pi * (t + 0.05))


def delta_p_f(t, spec):
    """Density-weighted Laplacian of ``test_function``.

    Delta_p f = f'' + (p'/p) f'; the drift term vanishes for the
    uniform circle.
    """
    t = np.asarray(t, dtype=float)
    _check_unit_interval(t)
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
    datasets.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = make_rng(seed)
    u = rng.random(n)
    t = density_cdf_inverse(u, spec)
    if spec is DensitySpec.UNIFORM_CIRCLE:
        pts = circle_point(t)
    else:
        pts = curve_point(t)
    return Dataset(t=t, clean_points=pts, seed=seed)

