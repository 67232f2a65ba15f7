import hashlib
import math

import numpy as np
import pytest

from diffinv import (
    CallCounter,
    ConstantPredictor,
    NoiseSchedule,
    PromptId,
    build_schedule,
    ddim_sigma,
    ddim_step,
    fixed_point_map,
    schedule_from_alpha_bar,
)
from diffinv.schedule import (
    DEFAULT_BETA_END,
    DEFAULT_BETA_START,
    DEFAULT_BIG_T,
    inversion_eps_coeff,
)


def product_loop_alpha_bar(big_t, beta_start, beta_end):
    """Independent oracle: explicit per-step product over sqrt-space betas."""
    out = [1.0]
    for s in range(1, big_t + 1):
        frac = (s - 1) / (big_t - 1)
        beta = (math.sqrt(beta_start) + frac * (math.sqrt(beta_end) - math.sqrt(beta_start))) ** 2
        out.append(out[-1] * (1.0 - beta))
    return np.array(out)


class TestBuildSchedule:
    def test_default_matches_product_oracle(self):
        s = build_schedule()
        expected = product_loop_alpha_bar(DEFAULT_BIG_T, DEFAULT_BETA_START, DEFAULT_BETA_END)
        np.testing.assert_allclose(s.alpha_bar, expected, rtol=1e-12)
        assert 0.0 < s.alpha_bar[DEFAULT_BIG_T] < 0.01


class TestSubsample:
    def test_single_step_is_horizon(self, scaled_linear):
        s = scaled_linear(1000, 0.001, 0.01).subsample(1)
        assert s.timesteps.tolist() == [1000]

    def test_uniform_stride(self, scaled_linear):
        s = scaled_linear(10, 0.01, 0.02).subsample(5)
        assert s.timesteps.tolist() == [2, 4, 6, 8, 10]

    def test_default_twenty_by_enumeration(self):
        s = build_schedule().subsample(20)
        expected = [1000 - 50 * k for k in range(19, -1, -1)]
        assert s.timesteps.tolist() == expected
        assert len(s.timesteps) == 20
        assert set(np.diff(s.timesteps)) == {50}
        assert s.timesteps[-1] == 1000

    def test_non_dividing_count_keeps_horizon(self, scaled_linear):
        s = scaled_linear(10, 0.01, 0.02).subsample(3)
        ts = s.timesteps
        assert ts[-1] == 10
        assert len(ts) == 3
        assert ts[0] >= 1
        assert set(np.diff(ts)) == {10 // 3}

    def test_idempotent(self, scaled_linear):
        s = scaled_linear(1000, 0.001, 0.01)
        once = s.subsample(20)
        twice = once.subsample(20)
        assert np.array_equal(once.timesteps, twice.timesteps)
        assert np.array_equal(once.alpha_bar, twice.alpha_bar)

    def test_rejects_out_of_range(self, scaled_linear):
        s = scaled_linear(100, 0.001, 0.01)
        with pytest.raises(ValueError):
            s.subsample(0)
        with pytest.raises(ValueError):
            s.subsample(101)
        with pytest.raises(ValueError, match=r"n_steps must be an integer, got 2\.5"):
            build_schedule().subsample(2.5)


class TestInvariants:
    @pytest.mark.parametrize("n_steps", [1, 7, 20, 50])
    def test_alpha_bar_decreasing_on_grid(self, n_steps):
        s = build_schedule().subsample(n_steps)
        ab = s.alpha_bar[s.timesteps]
        assert np.all(np.diff(ab) < 0) or n_steps == 1

    @pytest.mark.parametrize("n_steps", [1, 10, 33])
    def test_sqrt_coefficients_finite(self, n_steps):
        s = build_schedule().subsample(n_steps)
        for t in s.timesteps:
            assert math.isfinite(math.sqrt(s.alpha_bar[t]))
            assert math.isfinite(math.sqrt(1.0 - s.alpha_bar[t]))
            assert math.sqrt(s.alpha_bar[t]) >= 0.0

    def test_pairs_cover_grid(self, scaled_linear):
        s = scaled_linear(100, 0.001, 0.01).subsample(4)
        inv = s.inversion_pairs()
        assert inv[0][0] == 0
        assert inv[-1][1] == 100
        samp = s.sampling_pairs()
        assert samp[0][0] == 100
        assert samp[-1][1] == 0
        assert samp == [(t, p) for p, t in reversed(inv)]

    def test_immutability(self, scaled_linear):
        s = scaled_linear(10, 0.01, 0.02)
        with pytest.raises(ValueError):
            s.alpha_bar[0] = 2.0

    def test_rejects_non_monotone_alpha_bar(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([1.0, 0.5, 0.6]), np.array([1, 2]))
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([1.0, 0.5, 0.0]), np.array([1, 2]))

    @pytest.mark.parametrize(
        "ab, message",
        [
            (np.array([[1.0, 0.5]]), "1-D with at least one step entry"),
            (np.array([1.0]), "1-D with at least one step entry"),
            (np.array([0.9, 0.5]), r"alpha_bar\[0\] must be exactly 1"),
            (np.array([1.0, np.nan]), "non-finite entries"),
            (np.array([1.0, 0.5, np.inf]), "non-finite entries"),
            (np.array(["1", "0.9", "0.8"]), "must hold real numbers, got dtype <U"),
        ],
    )
    def test_rejects_malformed_alpha_bar(self, ab, message):
        with pytest.raises(ValueError, match=message):
            NoiseSchedule(ab, np.array([1]))

    def test_rejects_bad_timesteps(self):
        ab = np.array([1.0, 0.8, 0.5])
        with pytest.raises(ValueError):
            NoiseSchedule(ab, np.array([2, 1]))
        with pytest.raises(ValueError):
            NoiseSchedule(ab, np.array([1, 1]))
        with pytest.raises(ValueError):
            NoiseSchedule(ab, np.array([0, 2]))
        with pytest.raises(ValueError):
            NoiseSchedule(ab, np.array([3]))

    @pytest.mark.parametrize("ts", [np.array([1.5, 2.7]), np.array([True]), [1.0, 2.0]])
    def test_rejects_non_integer_timesteps(self, ts):
        # The int64 cast would truncate these to a valid-looking grid.
        with pytest.raises(ValueError, match="integer sequence"):
            NoiseSchedule(np.array([1.0, 0.8, 0.5]), ts)

    def test_caller_arrays_stay_writable(self):
        ab, ts = np.array([1.0, 0.8, 0.5]), np.array([1, 2], dtype=np.int64)
        s = NoiseSchedule(ab, ts)
        ab[1], ts[0] = 0.9, 2  # the schedule holds frozen copies
        assert s.alpha_bar[1] == 0.8 and s.timesteps[0] == 1
        with pytest.raises(ValueError):
            s.timesteps[0] = 2

    def test_big_t_is_the_last_alpha_bar_index(self):
        s = NoiseSchedule(np.array([1.0, 0.8, 0.5, 0.2]), np.array([2]))
        assert s.big_t == 3
        assert s.subsample(3).timesteps.tolist() == [1, 2, 3]

    @pytest.mark.parametrize(
        "n_steps, digest",
        [
            (None, "7f3e7386f2f90a4e05a124ae7bc1e8c152e79e9e1a5802287ff3ba15ca29fb2c"),
            (10, "ad4d5d675cd3d2a6cc3c4b7f204b6cf5e5f84ef24f19eee468d7813bff432d64"),
            (20, "3d7afce28f41193b7457393dc187678ee4a0d522d08aff58157a80f6d0523a87"),
            (50, "45eefee5a21110db5a4f283631368064335c68063628965f5d6b96834da2dfcd"),
        ],
    )
    def test_default_arrays_are_bit_stable(self, n_steps, digest):
        s = build_schedule()
        if n_steps is not None:
            s = s.subsample(n_steps)
        data = s.alpha_bar.tobytes() + s.timesteps.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest


class TestAlphaBarFile:
    def test_round_trip(self, scaled_linear):
        original = scaled_linear(5, 0.01, 0.05)
        text = "\n".join(f"{x:.17g}" for x in original.alpha_bar[1:])
        loaded = schedule_from_alpha_bar([float(x) for x in text.split()])
        np.testing.assert_array_equal(loaded.alpha_bar, original.alpha_bar)
        assert loaded.big_t == 5

    def test_explicit_values(self):
        s = schedule_from_alpha_bar([0.9, 0.5, 0.1])
        assert s.big_t == 3
        assert s.alpha_bar[0] == 1.0
        assert s.timesteps.tolist() == [1, 2, 3]

    def test_rejects_a_2d_array(self):
        with pytest.raises(ValueError, match="flat list of alpha_bar values"):
            schedule_from_alpha_bar([[0.9, 0.5], [0.4, 0.1]])

    @pytest.mark.parametrize("values", [[True, False], ["0.9", "0.5"]])
    def test_rejects_non_real_values(self, values):
        with pytest.raises(ValueError, match="^alpha_bar must hold real numbers"):
            schedule_from_alpha_bar(values)


class TestInversionCoeff:
    def test_matches_direct_formula(self):
        # coeff = sqrt(1 - ab_t) - sqrt((1 - ab_prev) * ab_t / ab_prev)
        got = inversion_eps_coeff(0.25, 0.64)
        expected = math.sqrt(0.75) - math.sqrt(0.36 * 0.25 / 0.64)
        assert got == pytest.approx(expected, abs=0)
        assert expected == pytest.approx(math.sqrt(0.75) - 0.375, abs=1e-15)

    def test_zero_when_levels_equal(self):
        assert inversion_eps_coeff(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)


# Each reader of a step's noise levels, called at (t, t_prev); the map is built and evaluated once.
STEP_READERS = {
    "ddim_step": lambda s, counter, t, t_prev: ddim_step(s, np.zeros(2), np.ones(2), t, t_prev),
    "ddim_sigma": lambda s, counter, t, t_prev: ddim_sigma(s, t, t_prev),
    "fixed_point_map": lambda s, counter, t, t_prev: fixed_point_map(
        s, counter, np.ones(2), t, t_prev, PromptId.SOURCE, 1.0
    )(np.ones(2)),
}


class TestLevels:
    def test_reads_both_levels_as_floats(self):
        s = build_schedule().subsample(5)
        ab_t, ab_p = s.levels(200, 0)
        assert (ab_t, ab_p) == (s.alpha_bar[200], 1.0)
        assert type(ab_t) is float and type(ab_p) is float
        assert s.levels(0, 0) == (1.0, 1.0)
        assert s.levels(1000, 1000) == (s.alpha_bar[1000],) * 2

    @pytest.mark.parametrize("reader", sorted(STEP_READERS))
    @pytest.mark.parametrize("t, t_prev", [(200, -1), (200.0, 0), (True, 0), (1001, 0), (200, 400)])
    def test_every_step_refuses_a_pair_off_the_rule(self, reader, t, t_prev):
        s = build_schedule().subsample(5)
        counter = CallCounter(ConstantPredictor(0.0))
        with pytest.raises(ValueError, match="^t(_prev)? must"):
            STEP_READERS[reader](s, counter, t, t_prev)
        assert counter.calls == 0

    @pytest.mark.parametrize("reader", sorted(STEP_READERS))
    def test_numpy_integers_are_read_as_their_value(self, reader):
        s = build_schedule().subsample(5)
        counter = CallCounter(ConstantPredictor(0.5))
        as_numpy = STEP_READERS[reader](s, counter, np.int64(200), np.int64(100))
        np.testing.assert_array_equal(as_numpy, STEP_READERS[reader](s, counter, 200, 100))
        assert s.levels(np.int64(100), 0) == s.levels(100, 0)
