"""Seeded random number generation.

Every stochastic routine in the library draws from a PCG64 generator
created here, and Gaussian variates are produced by pushing uniform
draws through the standard-normal inverse CDF.  Streams are therefore
reproducible bit for bit given the seed and the documented draw order,
independent of numpy's own normal-sampling algorithm choices.
"""

import numpy as np
from numpy.random import Generator, PCG64
from scipy.special import ndtri

# smallest uniform kept; ndtri(0) would be -inf
_U_FLOOR = 2.0 ** -54


def make_rng(seed):
    """Return a ``numpy.random.Generator`` backed by PCG64(seed); callers
    check that seed is an integer >= 0."""
    return Generator(PCG64(seed))


def normals_in_place(u):
    """Turn an array of uniforms into standard normals in place, by the
    inverse CDF of each uniform floored at _U_FLOOR; returns the array."""
    np.maximum(u, _U_FLOOR, out=u)
    return ndtri(u, out=u)
