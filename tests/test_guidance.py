import math
import warnings

import numpy as np
import pytest

from diffinv import (
    AttentionMap,
    MaskNormConfig,
    Polarity,
    SoftMask,
    blended_scale_field,
    normalize_map,
    sigmoid,
    soft_mask,
    synthetic_attention,
)
from diffinv.guidance import nearest_resample, spatial_shape


def two_segment_oracle(values, delta, big_m):
    """Independent piecewise-affine evaluation: [min, delta] -> [-M, 0],
    [delta, max] -> [0, M]."""
    lo, hi = min(values), max(values)
    out = []
    for x in values:
        if x == delta:
            out.append(0.0)
        elif x < delta:
            out.append(-big_m + (x - lo) / (delta - lo) * big_m)
        else:
            out.append((x - delta) / (hi - delta) * big_m)
    return out


def amap(values):
    return AttentionMap(np.asarray(values, dtype=float))


class TestNormalizeMap:
    def test_constant_map_gives_zeros(self):
        out = normalize_map(amap([[0.4, 0.4], [0.4, 0.4]]), MaskNormConfig())
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_three_value_endpoints(self):
        out = normalize_map(
            amap([[0.0, 0.5, 1.0]]), MaskNormConfig(delta=0.5, big_m=10.0)
        )
        np.testing.assert_allclose(out, [[-10.0, 0.0, 10.0]], atol=1e-12)

    def test_four_value_example_matches_oracle(self):
        values = [0.1, 0.2, 0.6, 0.8]
        expected = two_segment_oracle(values, 0.5, 4.0)
        out = normalize_map(amap([values]), MaskNormConfig(delta=0.5, big_m=4.0))
        np.testing.assert_allclose(out, [expected], atol=1e-12)
        # frozen oracle values: both ends hit the range limits exactly
        np.testing.assert_allclose(out, [[-4.0, -3.0, 4.0 / 3.0, 4.0]], atol=1e-12)

    def test_mean_rule_threshold(self):
        values = np.array([[0.0, 0.2, 0.4, 1.0]])
        out = normalize_map(amap(values), MaskNormConfig(big_m=5.0))
        delta = values.mean()
        expected = two_segment_oracle(values.ravel().tolist(), delta, 5.0)
        np.testing.assert_allclose(out, [expected], atol=1e-12)

    def test_threshold_outside_range(self):
        # everything above delta: single positive segment, still monotone
        out = normalize_map(amap([[0.5, 0.7, 1.0]]), MaskNormConfig(delta=0.1, big_m=2.0))
        assert np.all(out > 0.0)
        assert out[0, -1] == pytest.approx(2.0)
        assert np.all(np.diff(out[0]) > 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0, size=(5, 5))
        out = normalize_map(amap(values), MaskNormConfig(big_m=7.0))
        flat_in = values.ravel()
        flat_out = out.ravel()
        order = np.argsort(flat_in)
        assert np.all(np.diff(flat_out[order]) >= -1e-12)

    @pytest.mark.parametrize("delta", [1e308, -1e308])
    def test_overflowing_threshold_is_named(self, delta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"delta=-?1e\+308 with big_m=10 overflows"):
                normalize_map(amap([[0.1, 0.5, 0.8]]), MaskNormConfig(delta=delta))


class TestSoftMask:
    def test_zero_maps_to_half_both_polarities(self):
        norm = np.zeros((2, 2))
        pos = soft_mask(norm, Polarity.POSITIVE)
        neg = soft_mask(norm, Polarity.NEGATIVE)
        assert np.all(pos.values == 0.5)
        assert np.all(neg.values == 0.5)

    def test_saturation_at_ten(self):
        out = soft_mask(np.array([[10.0, -10.0]]), Polarity.POSITIVE)
        assert abs(out.values[0, 0] - 1.0) < 5e-5
        assert abs(out.values[0, 1] - 0.0) < 5e-5

    @pytest.mark.parametrize("seed", range(5))
    def test_polarities_sum_to_one_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        norm = rng.uniform(-30.0, 30.0, size=(4, 4))
        pos = soft_mask(norm, Polarity.POSITIVE)
        neg = soft_mask(norm, Polarity.NEGATIVE)
        np.testing.assert_array_equal(pos.values + neg.values, np.ones((4, 4)))

    def test_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(9)
        norm = rng.uniform(-30.0, 30.0, size=(8, 8))
        out = soft_mask(norm, Polarity.POSITIVE).values
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)

    def test_sigmoid_identities(self):
        x = np.linspace(-25, 25, 101)
        s = sigmoid(x)
        np.testing.assert_allclose(s + sigmoid(-x), 1.0, atol=1e-15)
        assert np.all(np.diff(s) > 0)
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            soft_mask(np.array([[np.nan]]), Polarity.POSITIVE)

    @pytest.mark.parametrize(
        "x, why",
        [
            (np.array([True, False]), "hold real numbers"),
            ("abc", "hold real numbers"),
            (np.array([1.0 + 2.0j]), "hold real numbers"),
            (np.array([np.nan]), "non-finite"),
        ],
    )
    def test_sigmoid_rejects_what_is_not_a_finite_real(self, x, why):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a complex input must not be cast with a warning
            with pytest.raises(ValueError, match=f"^sigmoid input .*{why}"):
                sigmoid(x)


class TestBlendedScaleField:
    def test_equal_scales_uniform(self):
        out = blended_scale_field(np.full((3, 3), 0.37), 1.5, 1.5)
        np.testing.assert_array_equal(out, np.full((3, 3), 1.5))

    def test_midpoint(self):
        out = blended_scale_field(np.array([[0.5]]), 1.0, 7.0)
        assert out[0, 0] == pytest.approx(4.0, abs=0)

    def test_binary_limit_hits_endpoints(self):
        out = blended_scale_field(np.array([[0.0, 1.0]]), 1.0, 7.0)
        np.testing.assert_allclose(out, [[1.0, 7.0]], atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_between_scales(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.uniform(0.0, 1.0, size=(6, 6))
        omega, omega_e = sorted(rng.uniform(0.0, 8.0, size=2))
        out = blended_scale_field(mask, omega, omega_e)
        assert np.all(out >= omega - 1e-12)
        assert np.all(out <= omega_e + 1e-12)

    @pytest.mark.parametrize(
        ("mask", "omega", "omega_e", "message"),
        [
            ([[True, False]], 1.0, 7.0, "^mask must hold real numbers, got dtype bool$"),
            ([["0.5"]], 1.0, 7.0, "^mask must hold real numbers, got dtype <U"),
            ([[math.nan]], 1.0, 7.0, "^mask contains non-finite entries$"),
            ([[1.5]], 1.0, 7.0, r"^mask entries must lie in \[0, 1\]$"),
            ([[0.5]], math.nan, 7.0, "^omega must be finite, got nan$"),
            ([[0.5]], True, 7.0, "^omega must be a real number, got True$"),
            ([[0.5]], "1", 7.0, "^omega must be a real number, got '1'$"),
            ([[0.5]], 1.0, math.inf, "^omega_e must be finite, got inf$"),
            ([[0.5]], 1.0, False, "^omega_e must be a real number, got False$"),
            ([[0.5]], 1.0, "7", "^omega_e must be a real number, got '7'$"),
        ],
    )
    def test_rejects_bad_inputs_by_name(self, mask, omega, omega_e, message):
        with pytest.raises(ValueError, match=message):
            blended_scale_field(np.array(mask), omega, omega_e)

    def test_affine_in_mask(self):
        m1, m2 = 0.2, 0.8
        f1 = blended_scale_field(np.array([[m1]]), 1.0, 5.0)[0, 0]
        f2 = blended_scale_field(np.array([[m2]]), 1.0, 5.0)[0, 0]
        fm = blended_scale_field(np.array([[(m1 + m2) / 2]]), 1.0, 5.0)[0, 0]
        assert fm == pytest.approx((f1 + f2) / 2, abs=1e-14)


class TestSyntheticAttention:
    def test_center_value_is_one(self):
        out = synthetic_attention((7, 11), 2.0)  # centered at (3, 5)
        assert out.values[3, 5] == 1.0

    def test_value_at_one_sigma(self):
        out = synthetic_attention((9, 9), 2.0)
        assert out.values[4, 6] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_grid_sum_matches_enumeration(self):
        # oracle: direct double loop over the grid
        sigma, center = 2.0, (3.5, 3.5)
        total = 0.0
        for y in range(8):
            for x in range(8):
                d2 = (y - center[0]) ** 2 + (x - center[1]) ** 2
                total += math.exp(-d2 / (2 * sigma**2))
        out = synthetic_attention((8, 8), sigma)
        assert out.values.sum() == pytest.approx(total, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="sigma"):
            synthetic_attention((4, 4), 0.0)
        with pytest.raises(ValueError, match="blob_sigma must be finite and > 0"):
            synthetic_attention((4, 4), math.inf)
        with pytest.raises(ValueError):
            synthetic_attention((0, 4), 1.0)
        with pytest.raises(ValueError, match=r"height must be an integer, got 2\.5"):
            synthetic_attention((2.5, 4), 1.0)
        with pytest.raises(ValueError, match="blob_sigma must be a real number, got True"):
            synthetic_attention((4, 4), blob_sigma=True)


class TestResampling:
    def test_integer_upscale_replicates_blocks(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = nearest_resample(values, (4, 4))
        expected = np.array(
            [
                [1.0, 1.0, 2.0, 2.0],
                [1.0, 1.0, 2.0, 2.0],
                [3.0, 3.0, 4.0, 4.0],
                [3.0, 3.0, 4.0, 4.0],
            ]
        )
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("out_shape", [(0, 4), (4, 0), (0, 0)])
    def test_rejects_an_empty_output_grid(self, out_shape):
        with pytest.raises(ValueError, match="output grid (height|width) must be >= 1"):
            nearest_resample(np.ones((2, 2)), out_shape)

    @pytest.mark.parametrize(
        "out_shape, name",
        [((2.5, 4), "height"), ((4, 3.0), "width"), (("a", 4), "height"), ((4, None), "width")],
    )
    def test_rejects_a_non_integer_output_grid(self, out_shape, name):
        with pytest.raises(ValueError, match=f"output grid {name} must be an integer"):
            nearest_resample(np.ones((2, 2)), out_shape)

    def test_identity_when_shapes_match(self):
        values = np.random.default_rng(0).uniform(size=(5, 7))
        np.testing.assert_array_equal(nearest_resample(values, (5, 7)), values)

    def test_spatial_shape_rules(self):
        assert spatial_shape((3, 8, 8)) == (8, 8)
        assert spatial_shape((64,)) == (1, 64)
        assert spatial_shape((4, 6)) == (4, 6)
        assert spatial_shape(()) == (1, 1)

    def test_mask_for_flat_latent(self):
        mask = SoftMask(np.full((1, 4), 0.25))
        out = mask.for_latent((8,))
        assert out.shape == (8,)
        np.testing.assert_array_equal(out, np.full(8, 0.25))

    def test_mask_for_scalar_latent(self):
        out = SoftMask(np.full((2, 3), 0.25)).for_latent(())
        assert out.shape == ()
        assert out == 0.25

    def test_mask_broadcasts_over_channels(self):
        mask = SoftMask(np.full((2, 2), 0.5))
        out = mask.for_latent((3, 4, 4))
        assert out.shape == (4, 4)
        assert np.broadcast_shapes(out.shape, (3, 4, 4)) == (3, 4, 4)


class TestValidation:
    def test_attention_map_checks(self):
        with pytest.raises(ValueError, match="2-D"):
            AttentionMap(np.zeros(4))
        with pytest.raises(ValueError, match="nonnegative"):
            AttentionMap(np.array([[-1.0]]))
        with pytest.raises(ValueError, match="non-finite"):
            AttentionMap(np.array([[np.inf]]))
        with pytest.raises(ValueError, match="^attention map must hold real numbers, got dtype b"):
            AttentionMap(np.array([[True, False]]))

    def test_mask_norm_config_checks(self):
        with pytest.raises(ValueError, match="big_m"):
            MaskNormConfig(big_m=0.0)
        for big_m in (None, "10", True):
            with pytest.raises(ValueError, match=f"^big_m must be a real number, got {big_m!r}$"):
                MaskNormConfig(big_m=big_m)

    def test_soft_mask_range_check(self):
        with pytest.raises(ValueError, match="lie in"):
            SoftMask(np.array([[1.5]]))

    @pytest.mark.parametrize(
        ("values", "message"),
        [
            ([[True, False]], "^soft mask must hold real numbers, got dtype bool$"),
            ([["0.5", "1"]], "^soft mask must hold real numbers, got dtype <U"),
            ([[0.5, math.nan]], "^soft mask contains non-finite entries$"),
            ([[0.5, math.inf]], "^soft mask contains non-finite entries$"),
            ([[0.5, -0.5]], r"^soft mask entries must lie in \[0, 1\]$"),
        ],
    )
    def test_soft_mask_rejects_non_unit_entries_by_name(self, values, message):
        with pytest.raises(ValueError, match=message):
            SoftMask(np.array(values))

    @pytest.mark.parametrize("values", [np.full(4, 0.5), np.zeros((0, 3)), np.zeros((2, 0))])
    def test_soft_mask_needs_a_nonempty_2d_grid(self, values):
        with pytest.raises(ValueError, match="nonempty 2-D grid"):
            SoftMask(values)

    @pytest.mark.parametrize("cls", [AttentionMap, SoftMask])
    def test_caller_array_stays_writable(self, cls):
        values = np.full((2, 3), 0.5)
        grid = cls(values)
        values[0, 0] = 1.0
        assert grid.values[0, 0] == 0.5
        assert not grid.values.flags.writeable
