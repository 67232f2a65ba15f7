import math

import numpy as np
import pytest

from diffinv import FixedPointConfig, MaskNormConfig, load_predictor, soft_mask
from diffinv.bench import METHODS, method_config
from diffinv.errors import check_choice, check_real, check_unit_interval
from diffinv.inversion import VARIANTS


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


def test_check_choice_returns_a_listed_string():
    assert check_choice("x", "b", ("a", "b")) == "b"


@pytest.mark.parametrize("value", ["c", "A", "", 3, None, ("a",), b"a"])
def test_check_choice_names_the_choices_it_missed(value):
    with pytest.raises(ValueError) as err:
        check_choice("x", value, ("a", "b"))
    assert str(err.value) == f"x must be one of a, b; got {value!r}"


def test_methods_are_euler_and_the_variants():
    assert METHODS == ("anderson", "averaged", "euler", "plain")
    assert set(METHODS) == {"euler", *VARIANTS}


class TestChoices:
    """Each choice-valued input refuses anything but its strings, by name, when it is built."""

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_fixed_point_variant(self, value):
        with pytest.raises(ValueError, match=r"^variant must be one of plain, averaged, anderson; "):
            FixedPointConfig(variant=value)

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_mask_polarity(self, value):
        with pytest.raises(ValueError, match="^polarity must be one of positive, negative; "):
            MaskNormConfig(polarity=value)

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_soft_mask_polarity(self, value):
        with pytest.raises(ValueError, match="^polarity must be one of positive, negative; "):
            soft_mask(np.zeros((2, 2)), value)

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_method(self, value):
        with pytest.raises(ValueError, match="^method must be one of anderson, averaged, euler, "):
            method_config(value, 20)

    @pytest.mark.parametrize("value", ["bogus", "3", "None"])
    def test_spec_kind(self, tmp_path, value):
        # A spec file holds strings only, so 3 and None arrive spelled out.
        spec = tmp_path / "p.cfg"
        spec.write_text(f"kind = {value}\n")
        with pytest.raises(ValueError) as err:
            load_predictor(spec)
        assert str(err.value) == (
            f"{spec}: kind must be one of constant, contractive, affine; got {value!r}"
        )
