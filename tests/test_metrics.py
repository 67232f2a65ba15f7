import math
import warnings

import numpy as np
import pytest

from diffinv import psnr, relative_l2
from diffinv.metrics import l2


class TestL2:
    @pytest.mark.parametrize(
        "x",
        [
            np.random.default_rng(0).standard_normal(64),
            np.random.default_rng(1).standard_normal((8, 8)) * 1e150,
            np.full(5, 1e-200),
            np.zeros(3),
            np.zeros(0),
            np.float64(-2.5),
        ],
        ids=["normal", "large-2d", "tiny", "zeros", "empty", "scalar"],
    )
    def test_plain_norm_bit_for_bit_when_finite(self, x):
        assert l2(x) == float(np.linalg.norm(np.ravel(x)))

    def test_overflowing_sum_of_squares_is_rescaled_without_warning(self):
        x = np.array([1e300, -3e300, 2e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = l2(x)
        assert norm == pytest.approx(math.sqrt(14.0) * 1e300, rel=1e-15)

    def test_norm_beyond_float_range_is_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l2(np.full(4, 1e308)) == math.inf

    def test_non_finite_entries_are_not_rescaled(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert l2(np.array([1.0, np.inf])) == math.inf
            assert math.isnan(l2(np.array([1.0, np.nan])))

    def test_relative_error_of_huge_finite_latents_is_finite(self):
        ref = np.array([1e300, -2e300, 3e300, 1e299])
        assert relative_l2(2.0 * ref, ref) == pytest.approx(1.0, rel=1e-15)


class TestPsnr:
    def test_identical_pair_reports_3000_db_above_a_unit_peak(self):
        ref = np.array([0.0, 1.0, 0.25, 0.5])
        assert psnr(ref, ref) == pytest.approx(3000.0, rel=1e-15)

    def test_matches_the_mean_squared_error_form(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(64)
        cand = ref + 1e-3 * rng.standard_normal(64)
        peak = ref.max() - ref.min()
        expected = 10.0 * math.log10(peak**2 / np.mean((cand - ref) ** 2))
        assert psnr(cand, ref) == pytest.approx(expected, rel=1e-12)

    def test_error_whose_square_overflows_is_finite_without_warning(self):
        ref = np.array([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = psnr(np.array([1e200, -1e200]), ref)
        assert value == pytest.approx(-4000.0, rel=1e-12)

    def test_constant_reference_uses_a_unit_peak(self):
        ref = np.full(4, 3.0)
        assert psnr(ref + 0.1, ref) == pytest.approx(20.0, rel=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            psnr(np.zeros(3), np.zeros(4))
