"""Exception types shared across the library, and its input rules.

Each rule that bad input breaks has one owner here and raises a
``ValueError`` that names the input: ``positive_finite``,
``finite_nonnegative``, ``finite``, ``unit_interval``, ``scalar``,
``integer_at_least``, ``zero_or_one`` and ``member``.  A value that is
not a real number (a str, None or a bool) breaks the five number rules
with the same message; a parameter that takes one number also keeps
``scalar``, which a list, tuple or array breaks, so a bad value fails
by its name before it is used.  An object of the wrong class fails
``instance_of``, which raises a ``TypeError``.  The command line only
turns option text into values and leaves every value to these rules,
so a bad option fails with the library's message, named after the
parameter; a driver judges every argument before any draw.
"""

import numbers

import numpy as np


class DegenerateInputError(ValueError):
    """Input matrix or dataset violates a structural precondition.

    Raised for things a scaling cannot recover from, e.g. an affinity
    matrix with an all-zero row (isolated vertex).
    """


class NumericalFailureError(RuntimeError):
    """An iteration produced non-finite or out-of-domain values.

    Parameters
    ----------
    message : str
        Human-readable description.
    iteration : int or None
        1-based iteration index at which the failure occurred, when the
        failure happened inside an iterative solver.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


class UsageError(Exception):
    """Bad command line or option-file input (maps to exit code 1)."""


def is_real(x):
    """Whether x is a real number or an array of them: a str, None or a
    bool is not, whatever it would compare as."""
    return np.asarray(x).dtype.kind in "iuf"


def positive_finite(name, x):
    """Raise unless x, a real number or every entry of an array (or a
    list) of them, is in (0, inf)."""
    if not (is_real(x) and np.all(np.less(0, x) & np.less(x, np.inf))):
        raise ValueError(f"{name} must be positive and finite")


def finite_nonnegative(name, x):
    """Raise unless x, a real number or every entry of an array (or a
    list) of them, is in [0, inf)."""
    if not (is_real(x) and np.all(np.less_equal(0, x) & np.less(x, np.inf))):
        raise ValueError(f"{name} must be finite and >= 0")


def finite(name, x):
    """Raise unless x, a real number or every entry of an array (or a
    list) of them, is finite; return its least and greatest entries,
    (inf, -inf) if it has none.  NaN propagates through min and max,
    which read x without a temporary of its size."""
    x = np.asarray(x)
    real = is_real(x)
    low, high = (x.min(), x.max()) if real and x.size else (np.inf, -np.inf)
    if not real or x.size and not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError(f"{name} must be finite")
    return low, high


def unit_interval(name, x, closed=False):
    """Raise unless x, a real number or every entry of an array (or a
    list) of them, is in [0, 1), or in [0, 1] if closed; written as the
    range itself, so that NaN, outside every range, fails."""
    below_one = np.less_equal if closed else np.less
    if not (is_real(x) and np.all(np.less_equal(0, x) & below_one(x, 1))):
        raise ValueError(f"{name} must lie in [0, 1{']' if closed else ')'}")


def scalar(name, x):
    """Raise unless x is one value, not a list, a tuple or an array with
    a dimension (a 0-d array is one value); whether it is a real number
    in range is left to the number rules."""
    if isinstance(x, (list, tuple)) or np.ndim(x):
        raise ValueError(f"{name} must be a single number")


def zero_or_one(name, x):
    """Raise unless every entry of x, an array (or a list), is a bool, 0
    or 1: a flag, not a number that a cast to bool would read as one."""
    x = np.asarray(x)
    if not (x.dtype == bool or is_real(x) and np.all((x == 0) | (x == 1))):
        raise ValueError(f"{name} must hold only bools, 0 or 1")


def integer_at_least(name, x, low):
    """Raise unless x is an integer (Python or numpy) no smaller than low;
    a bool is a truth value, not a count or a seed, and is rejected."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool) or x < low:
        raise ValueError(f"{name} must be an integer >= {low}")


def member(enum, x, name):
    """Raise unless x is a member of the Enum class enum."""
    if not isinstance(x, enum):
        raise ValueError(f"unknown {name}: {x!r}")


def instance_of(name, x, cls):
    """Raise a TypeError naming x's type unless x is an instance of cls."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {cls.__name__}, "
                        f"not {type(x).__name__}")
