"""The finiteness, unit-interval and single-number rules of
``sinklap.errors``, against the checks they replaced, alone and through
each module that calls them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinklap import (
    Affinity,
    Dataset,
    DensitySpec,
    NoiseKind,
    NoiseModel,
    SkConfig,
    attenuation,
    build_affinity,
    curve_point,
    density_cdf,
    density_cdf_inverse,
    normalized_prefactor,
    rel_errors,
    sample_dataset,
)
from sinklap.errors import finite, scalar, unit_interval

# the edges of both rules: NaN and the infinities fail every range,
# -0.0 is 0, 1.0 closes only the closed interval and the float below it
# is in both
EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, np.nextafter(1.0, 0.0), 0.5,
         -1e-30, 1e30]
NOT_REAL = ["0.5", None, True, False, [0.5, "0.5"], [0.5, None]]

values = st.lists(st.sampled_from(EDGES) | st.floats(), max_size=6)


def raised(call, *args):
    """The message call raises, or None."""
    try:
        call(*args)
    except ValueError as err:
        return str(err)
    return None


def old_finite(name, arr):
    """The finiteness checks that ``finite`` replaced: every entry
    finite, read through min and max or through ``np.isfinite``."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")


def old_unit_interval(name, arr, closed=False):
    """The range checks that ``unit_interval`` replaced."""
    if closed and not np.all((0.0 <= arr) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    if not closed and not np.all((0.0 <= arr) & (arr < 1.0)):
        raise ValueError(f"{name} must lie in [0, 1)")


class TestFinite:
    @settings(max_examples=200, deadline=None)
    @given(values, st.booleans())
    def test_same_verdict_as_the_old_check(self, xs, as_list):
        arr = np.array(xs, dtype=float)
        given_value = xs if as_list else arr
        assert raised(finite, "points", given_value) == raised(old_finite, "points", arr)
        if np.all(np.isfinite(arr)) and arr.size:
            # and returns the bounds it read
            low, high = finite("points", given_value)
            assert np.array_equal([low, high], [arr.min(), arr.max()])

    @pytest.mark.parametrize("edge", EDGES)
    def test_edges(self, edge):
        message = None if np.isfinite(edge) else "x must be finite"
        for x in (edge, np.array([0.25, edge]), [0.25, edge], np.float32(edge)):
            assert raised(finite, "x", x) == message

    def test_signed_zero_and_empty(self):
        low, high = finite("x", np.array([-0.0, 0.0]))
        assert low == 0.0 and high == 0.0
        assert finite("x", np.zeros((0, 3))) == (np.inf, -np.inf)
        assert finite("x", [1, 2]) == (1, 2)

    @pytest.mark.parametrize("bad", NOT_REAL + [np.array([True])], ids=repr)
    def test_not_real(self, bad):
        with pytest.raises(ValueError, match="^x must be finite$"):
            finite("x", bad)


class TestUnitInterval:
    @settings(max_examples=200, deadline=None)
    @given(values, st.booleans(), st.booleans())
    def test_same_verdict_as_the_old_check(self, xs, closed, as_list):
        arr = np.array(xs, dtype=float)
        given_value = xs if as_list else arr
        assert (raised(unit_interval, "t", given_value, closed)
                == raised(old_unit_interval, "t", arr, closed))

    @pytest.mark.parametrize("edge", EDGES)
    def test_edges(self, edge):
        for closed, bracket, top in ((False, ")", edge < 1.0), (True, "]", edge <= 1.0)):
            message = None if 0.0 <= edge and top else f"t must lie in [0, 1{bracket}"
            for x in (edge, np.array([0.25, edge]), [0.25, edge]):
                assert raised(unit_interval, "t", x, closed) == message

    @pytest.mark.parametrize("bad", NOT_REAL, ids=repr)
    def test_not_real(self, bad):
        with pytest.raises(ValueError, match=r"^p_out must lie in \[0, 1\)$"):
            unit_interval("p_out", bad)
        with pytest.raises(ValueError, match=r"^t must lie in \[0, 1\]$"):
            unit_interval("t", bad, closed=True)


class TestCallers:
    """Each module that called a check of its own now raises the rule's
    text, word for word, on the same inputs."""

    @pytest.mark.parametrize("edge", EDGES)
    def test_unit_interval_callers(self, edge):
        t = np.array([0.25, edge])
        assert (raised(Dataset, t, np.zeros((2, 2)))
                == raised(old_unit_interval, "t", t))
        assert raised(curve_point, t) == raised(old_unit_interval, "t", t)
        assert (raised(density_cdf, t, DensitySpec.SINUSOIDAL_1D)
                == raised(old_unit_interval, "t", t, True))
        assert (raised(density_cdf_inverse, t, DensitySpec.SINUSOIDAL_1D)
                == raised(old_unit_interval, "u", t))
        assert (raised(NoiseModel, NoiseKind.SIMPLE, 8, 0.1, edge)
                == raised(old_unit_interval, "p_out", np.array(edge)))

    @pytest.mark.parametrize("edge", EDGES)
    def test_finite_callers(self, edge):
        rows = np.array([[0.0, 0.25], [0.5, edge]])
        assert (raised(Dataset, np.zeros(2), rows)
                == raised(old_finite, "clean_points", rows))
        noisy = (np.zeros(2), np.zeros((2, 2)), np.array([False, True]),
                 np.array([[0.0, edge, 1.0]]))
        assert raised(Dataset, *noisy) == raised(old_finite, "outlier_offsets", noisy[3])
        assert raised(build_affinity, rows, 1.0) == raised(old_finite, "points", rows)
        sym = np.array([[0.0, edge], [edge, 0.0]])
        # a finite negative entry passes the finite rule and fails the sign rule
        assert raised(Affinity, sym, 1.0) == (
            raised(old_finite, "matrix", sym)
            or ("matrix must be non-negative" if edge < 0 else None))
        assert (raised(rel_errors, [1.0, 2.0], [edge, 1.0])
                == raised(old_finite, "ref", np.array([edge, 1.0])))


class TestScalar:
    """A parameter that takes one number fails by its name on a list, a
    tuple or an array of them, before the value is used."""

    @pytest.mark.parametrize("one", [1e-3, np.float32(2.0), np.array(0.5), 3, "0.5", None, True])
    def test_one_value_passes(self, one):
        # whether it is a real number in range is the number rules' verdict
        scalar("epsilon", one)

    @pytest.mark.parametrize("many", [np.array([1e-3]), [1e-3, 2e-3], (1e-3,), [],
                                      np.zeros((1, 1)), [1e-3, [2e-3]]], ids=repr)
    def test_many_values_fail(self, many):
        with pytest.raises(ValueError, match="^epsilon must be a single number$"):
            scalar("epsilon", many)

    @pytest.mark.parametrize("many", [np.array([1e-3]), [1e-3, 2e-3]], ids=repr)
    def test_callers(self, many):
        ds = sample_dataset(20, DensitySpec.UNIFORM_CIRCLE, 0)
        calls = {
            "epsilon": [lambda: build_affinity(ds, many), lambda: Affinity(np.ones((2, 2)), many),
                        lambda: normalized_prefactor(20, many, 1),
                        lambda: attenuation(ds, many)],
            "c_sk": [lambda: SkConfig(c_sk=many)],
            "eps_sk": [lambda: SkConfig(eps_sk=many)],
            "sigma_out": [lambda: NoiseModel(NoiseKind.SIMPLE, 8, sigma_out=many)],
            "p_out": [lambda: NoiseModel(NoiseKind.SIMPLE, 8, p_out=many)],
        }
        for name, runs in calls.items():
            for run in runs:
                with pytest.raises(ValueError, match=f"^{name} must be a single number$"):
                    run()
