import math

import numpy as np
import pytest

from diffinv.errors import check_real, check_unit_interval


@pytest.mark.parametrize(
    ("value", "low", "strict", "message"),
    [
        (math.nan, None, False, "x must be finite, got nan"),
        (-1.0, 0.0, False, "x must be finite and >= 0, got -1.0"),
        (0.0, 0.0, True, "x must be finite and > 0, got 0.0"),
        (math.inf, 0.5, False, "x must be finite and >= 0.5, got inf"),
        (np.float64(-2.0), 1e-3, True, "x must be finite and > 0.001, got -2.0"),
    ],
)
def test_check_real_names_the_bound_it_missed(value, low, strict, message):
    with pytest.raises(ValueError) as err:
        check_real("x", value, low, strict)
    assert str(err.value) == message


def test_check_unit_interval_keeps_both_endpoints():
    out = check_unit_interval([0, 1], "mask")
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [0.0, 1.0])


@pytest.mark.parametrize("value", [-1e-300, 1.0 + 2**-52])
def test_check_unit_interval_rejects_just_outside(value):
    with pytest.raises(ValueError, match=r"^mask entries must lie in \[0, 1\]$"):
        check_unit_interval(np.array([0.5, value]), "mask")
