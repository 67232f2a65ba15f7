import math

import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    CallCounter,
    ConstantPredictor,
    ContractivePredictor,
    NoisePredictor,
    PromptId,
    build_schedule,
    ddim_sigma,
    ddim_step,
    sample_trajectory,
    schedule_from_alpha_bar,
)
from diffinv import sampler
from diffinv.errors import NumericsError


def ddim_oracle(z_t, eps, ab_t, ab_prev):
    """Independent two-line evaluation of the sampling update."""
    z0_hat = (z_t - math.sqrt(1.0 - ab_t) * eps) / math.sqrt(ab_t)
    return math.sqrt(ab_prev) * z0_hat + math.sqrt(1.0 - ab_prev) * eps


def ddim_sigma_oracle(ab_t, ab_prev):
    return math.sqrt((1.0 - ab_prev) / (1.0 - ab_t)) * math.sqrt(1.0 - ab_t / ab_prev)


class TestDdimStep:
    def test_zero_noise_is_rescale(self, toy_schedule):
        z = np.array([1.0])
        out = ddim_step(toy_schedule, np.zeros(1), z, 2, 1)
        assert out[0] == pytest.approx(1.6, rel=1e-15)

    def test_equal_levels_identity(self, toy_schedule):
        z = np.array([0.7, -0.2])
        eps = np.array([0.5, 2.0])
        out = ddim_step(toy_schedule, eps, z, 2, 2)
        np.testing.assert_allclose(out, z, rtol=1e-15)

    def test_constant_predictor_matches_oracle(self, toy_schedule):
        # oracle: z0_hat = (1 - sqrt(0.75)*0.3)/0.5, out = 0.8*z0_hat + 0.6*0.3
        eps = ConstantPredictor(0.3).predict(np.array([1.0]), PromptId.SOURCE, 2)
        out = ddim_step(toy_schedule, eps, np.array([1.0]), 2, 1)
        expected = ddim_oracle(1.0, 0.3, 0.25, 0.64)
        assert out[0] == pytest.approx(expected, abs=1e-15)
        assert out[0] == pytest.approx(1.3643078061834694, abs=1e-12)

    def test_rejects_non_finite(self, toy_schedule):
        with pytest.raises(NumericsError,
                           match=r"^pred_eps at sampling step t=2 contains non-finite entries$"):
            ddim_step(toy_schedule, np.array([np.nan]), np.array([1.0]), 2, 1)
        with pytest.raises(ValueError, match=r"^pred_eps at sampling step t=2 must hold real "):
            ddim_step(toy_schedule, np.array([True]), np.array([1.0]), 2, 1)
        with pytest.raises(ValueError, match="non-finite"):
            ddim_step(toy_schedule, np.zeros(1), np.array([np.inf]), 2, 1)

    def test_settings_are_checked_before_the_prediction_is(self, toy_schedule):
        # NumericsError is not a ValueError, so a NaN prediction must not hide these.
        nan = np.array([np.nan])
        with pytest.raises(ValueError, match="^eta must be finite"):
            ddim_step(toy_schedule, nan, np.array([1.0]), 2, 1, None, -1.0)
        with pytest.raises(ValueError, match="^eta > 0 needs a random generator"):
            ddim_step(toy_schedule, nan, np.array([1.0]), 2, 1, None, 0.5)

    def test_overflowing_result_is_a_numeric_failure_naming_the_step(self):
        schedule = build_schedule()
        with np.errstate(all="ignore"), pytest.raises(NumericsError) as err:
            ddim_step(schedule, np.full(4, 1e308), np.zeros(4), 1000, 800)
        assert str(err.value) == "state after sampling step t=1000 contains non-finite entries"

    def test_rejects_shape_mismatch(self, toy_schedule):
        with pytest.raises(ValueError, match="shape"):
            ddim_step(toy_schedule, np.zeros(2), np.zeros(3), 2, 1)


class TestStochasticStep:
    def test_eta_zero_equals_deterministic(self, toy_schedule):
        rng = np.random.default_rng(0)
        z = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        det = ddim_step(toy_schedule, eps, z, 2, 1)
        sto = ddim_step(toy_schedule, eps, z, 2, 1, None, 0.0, rng)
        np.testing.assert_array_equal(det, sto)

    def test_eta_zero_ignores_mask_and_rng(self, toy_schedule):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        state = rng.bit_generator.state
        det = ddim_step(toy_schedule, eps, z, 2, 1)
        masked = ddim_step(toy_schedule, eps, z, 2, 1, np.full(6, 0.5), 0.0, rng)
        np.testing.assert_array_equal(det, masked)
        assert rng.bit_generator.state == state  # no draw at eta = 0

    def test_zero_mask_equals_deterministic(self, toy_schedule):
        rng = np.random.default_rng(1)
        z = rng.standard_normal(6)
        eps = rng.standard_normal(6)
        det = ddim_step(toy_schedule, eps, z, 2, 1)
        sto = ddim_step(toy_schedule, eps, z, 2, 1, np.zeros(6), 0.5, rng)
        np.testing.assert_array_equal(det, sto)

    def test_monte_carlo_variance(self, toy_schedule):
        # derived oracle: per-pixel variance of repeated draws ~= eta * sigma_t^2
        eta = 0.1
        rng = np.random.default_rng(42)
        z = np.array([1.0, -0.5, 0.25, 2.0])
        eps = np.array([0.1, 0.2, -0.1, 0.0])
        draws = np.stack(
            [ddim_step(toy_schedule, eps, z, 2, 1, 1.0, eta, rng) for _ in range(10_000)]
        )
        expected = eta * ddim_sigma_oracle(0.25, 0.64) ** 2
        np.testing.assert_allclose(draws.var(axis=0), expected, rtol=0.05)

    def test_mean_shift_matches_formula(self, toy_schedule):
        # with the mask on, the mean trades sqrt(1 - ab_prev) for
        # sqrt(1 - ab_prev - eta * sigma^2)
        eta = 0.3
        z = np.array([1.0])
        eps = np.array([0.4])
        rng = np.random.default_rng(3)
        draws = np.stack(
            [ddim_step(toy_schedule, eps, z, 2, 1, 1.0, eta, rng) for _ in range(40_000)]
        )
        sigma2 = ddim_sigma_oracle(0.25, 0.64) ** 2
        z0_hat = (1.0 - math.sqrt(0.75) * 0.4) / 0.5
        mean = 0.8 * z0_hat + math.sqrt(0.36 - eta * sigma2) * 0.4
        assert draws.mean() == pytest.approx(mean, abs=4 * math.sqrt(eta * sigma2 / 40_000))

    def test_negative_sqrt_argument_names_step(self, toy_schedule):
        with pytest.raises(NumericsError, match="t=2"):
            ddim_step(
                toy_schedule, np.zeros(2), np.zeros(2), 2, 1, 1.0, 50.0,
                np.random.default_rng(0),
            )

    def test_positive_eta_needs_rng(self, toy_schedule):
        with pytest.raises(ValueError, match="rng"):
            ddim_step(toy_schedule, np.zeros(2), np.ones(2), 2, 1, None, 0.1)

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_rejects_increasing_time_at_any_eta(self, base_schedule, eta):
        with pytest.raises(ValueError, match=r"t_prev must be in \[0, 100\], got 500"):
            ddim_step(
                base_schedule, np.zeros(2), np.ones(2), 100, 500, None, eta,
                np.random.default_rng(0),
            )

    @pytest.mark.parametrize("eta", [-0.1, math.nan])
    def test_rejects_negative_eta(self, toy_schedule, eta):
        with pytest.raises(ValueError, match="eta must be finite and >= 0"):
            ddim_step(
                toy_schedule, np.zeros(2), np.ones(2), 2, 1, None, eta, np.random.default_rng(0)
            )

    @pytest.mark.parametrize(
        ("eta", "mask", "message"),
        [
            (math.inf, None, "^eta must be finite and >= 0, got inf$"),
            (True, None, "^eta must be a real number, got True$"),
            ("0.1", None, "^eta must be a real number, got '0.1'$"),
            (0.5, [0.5, math.nan], "^mask contains non-finite entries$"),
            (0.5, [0.5, math.inf], "^mask contains non-finite entries$"),
            (0.5, [True, False], "^mask must hold real numbers, got dtype bool$"),
            (0.5, ["0.5", "1"], "^mask must hold real numbers, got dtype <U"),
            (0.5, [-0.5, 1.0], r"^mask entries must lie in \[0, 1\]$"),
            (0.5, [1.5, 1.0], r"^mask entries must lie in \[0, 1\]$"),
        ],
    )
    def test_rejects_bad_noise_settings_by_name(self, base_schedule, eta, mask, message):
        schedule = base_schedule.subsample(5)
        with pytest.raises(ValueError, match=message):
            ddim_step(
                schedule, np.zeros(2), np.ones(2), 200, 0, mask, eta, np.random.default_rng(0)
            )

    def test_final_step_has_zero_variance(self, toy_schedule):
        # t_prev = 0 gives sigma = 0: stochastic equals deterministic
        assert ddim_sigma(toy_schedule, 1, 0) == 0.0
        rng = np.random.default_rng(5)
        z = rng.standard_normal(3)
        eps = rng.standard_normal(3)
        det = ddim_step(toy_schedule, eps, z, 1, 0)
        sto = ddim_step(toy_schedule, eps, z, 1, 0, 1.0, 1.0, rng)
        np.testing.assert_array_equal(det, sto)


class TestSigma:
    @pytest.mark.parametrize("n_steps", [5, 20])
    def test_eta_one_mask_one_always_valid(self, n_steps):
        # the DDIM variance keeps the mean's sqrt argument nonnegative
        s = build_schedule().subsample(n_steps)
        for t, t_prev in s.sampling_pairs():
            sigma2 = ddim_sigma(s, t, t_prev) ** 2
            assert sigma2 <= 1.0 - s.alpha_bar[t_prev] + 1e-15

    def test_matches_oracle(self, toy_schedule):
        assert ddim_sigma(toy_schedule, 2, 1) == pytest.approx(
            ddim_sigma_oracle(0.25, 0.64), rel=1e-14
        )

    def test_zero_at_a_noiseless_level(self):
        # ab_t = 1 would divide by 1 - ab_t = 0 in the formula
        s = schedule_from_alpha_bar([1.0, 0.5])
        assert ddim_sigma(s, 1, 0) == 0.0
        assert ddim_sigma(s, 0, 0) == 0.0


class TestSampleTrajectory:
    def test_single_step_zero_predictor(self, scaled_linear):
        s = scaled_linear(1000, 0.001, 0.012).subsample(1)
        z_t = np.full(4, 2.0)
        states = sample_trajectory(s, ConstantPredictor(0.0), z_t, PromptId.SOURCE, 1.0)
        assert len(states) == 2
        expected = z_t / math.sqrt(s.alpha_bar[1000])
        np.testing.assert_allclose(states[-1], expected, rtol=1e-14)

    @pytest.mark.parametrize("n_steps", [1, 4, 20])
    def test_zero_predictor_telescopes(self, n_steps):
        s = build_schedule().subsample(n_steps)
        rng = np.random.default_rng(n_steps)
        z_t = rng.standard_normal(8)
        states = sample_trajectory(s, ConstantPredictor(0.0), z_t, PromptId.SOURCE, 0.0)
        np.testing.assert_allclose(
            states[-1], z_t / math.sqrt(s.alpha_bar[s.big_t]), rtol=1e-12
        )

    @pytest.mark.parametrize("n_steps", [3, 10])
    def test_zero_predictor_norm_shrinks_per_step(self, n_steps):
        # ||z_prev|| = sqrt(ab_prev / ab_t) * ||z_t|| exactly for zero noise
        s = build_schedule().subsample(n_steps)
        z = np.random.default_rng(0).standard_normal(16)
        states = sample_trajectory(s, ConstantPredictor(0.0), z, PromptId.SOURCE, 1.0)
        for k, (t, t_prev) in enumerate(s.sampling_pairs()):
            ratio = np.linalg.norm(states[k + 1]) / np.linalg.norm(states[k])
            expected = math.sqrt(s.alpha_bar[t_prev] / s.alpha_bar[t])
            assert ratio == pytest.approx(expected, rel=1e-13)

    def test_golden_trajectory_regenerates_bit_identically(self, schedule20):
        pred = ContractivePredictor.default(16, seed=2)
        z_t = np.random.default_rng(99).standard_normal(16)
        first = sample_trajectory(schedule20, pred, z_t, PromptId.SOURCE, 1.0)
        second = sample_trajectory(schedule20, pred, z_t, PromptId.SOURCE, 1.0)
        assert len(first) == 21
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)
        # golden values (seed 99, default predictor seed 2); guards against
        # silent numerical drift
        np.testing.assert_allclose(
            first[-1][:4],
            [2.1586359200023555, -5.845774045554015, -0.012576263529134614, 9.562575699863674],
            rtol=1e-12,
        )
        assert float(np.linalg.norm(first[-1])) == pytest.approx(52.19615653777924, rel=1e-12)

    def test_stochastic_trajectory_seeded(self, schedule10):
        pred = ContractivePredictor.default(8, seed=1)
        z_t = np.random.default_rng(7).standard_normal(8)
        a = sample_trajectory(
            schedule10, pred, z_t, PromptId.SOURCE, 1.0, eta=0.1, rng=np.random.default_rng(21)
        )
        b = sample_trajectory(
            schedule10, pred, z_t, PromptId.SOURCE, 1.0, eta=0.1, rng=np.random.default_rng(21)
        )
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = sample_trajectory(
            schedule10, pred, z_t, PromptId.SOURCE, 1.0, eta=0.1, rng=np.random.default_rng(22)
        )
        assert not np.array_equal(a[-1], c[-1])

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    def test_one_ddim_step_per_scheduled_step(self, schedule10, monkeypatch, eta):
        calls = []

        def counting_step(*args, **kwargs):
            calls.append(args[3:5])
            return ddim_step(*args, **kwargs)

        monkeypatch.setattr(sampler, "ddim_step", counting_step)
        sample_trajectory(
            schedule10, ConstantPredictor(0.0), np.ones(4), PromptId.SOURCE, 1.0,
            eta=eta, rng=np.random.default_rng(0),
        )
        assert calls == schedule10.sampling_pairs()

    def test_positive_eta_needs_rng(self, schedule10):
        with pytest.raises(ValueError, match="rng"):
            sample_trajectory(
                schedule10, ConstantPredictor(0.0), np.ones(4), PromptId.SOURCE, 1.0, eta=0.1
            )

    @pytest.mark.parametrize(
        ("settings", "message"),
        [
            ({"eta": -0.1}, "^eta must be finite and >= 0, got -0.1$"),
            ({"eta": math.nan}, "^eta must be finite and >= 0, got nan$"),
            ({"eta": True}, "^eta must be a real number, got True$"),
            ({"eta": "0.5"}, "^eta must be a real number, got '0.5'$"),
            ({"eta": 0.5, "rng": None}, "^eta > 0 needs a random generator"),
            ({"eta": 0.5, "mask": np.ones(3)}, r"^mask of shape \(3,\) does not broadcast"),
            ({"eta": 0.5, "mask": [1.0, math.nan, 1.0, 1.0]}, "^mask contains non-finite"),
            ({"eta": 0.5, "mask": [1.0, -0.5, 1.0, 1.0]}, r"^mask entries must lie in \[0, 1\]$"),
            ({"eta": 0.5, "mask": [1.0, 1.5, 1.0, 1.0]}, r"^mask entries must lie in \[0, 1\]$"),
            ({"eta": 0.5, "mask": [True] * 4}, "^mask must hold real numbers, got dtype bool$"),
            ({"eta": 0.5, "mask": ["1"] * 4}, "^mask must hold real numbers, got dtype <U"),
        ],
    )
    def test_rejects_bad_noise_settings_before_any_call(self, schedule10, settings, message):
        counter = CallCounter(ContractivePredictor.default(4, 0))
        kwargs = {"rng": np.random.default_rng(0), **settings}
        with pytest.raises(ValueError, match=message):
            sample_trajectory(schedule10, counter, np.ones(4), PromptId.SOURCE, 1.0, **kwargs)
        assert counter.calls == 0

    def test_eta_zero_reads_neither_mask_nor_rng(self, schedule10):
        pred = ContractivePredictor.default(4, 0)
        z = np.linspace(-1.0, 1.0, 4)
        plain = sample_trajectory(schedule10, pred, z, PromptId.SOURCE, 1.0)
        ignored = sample_trajectory(
            schedule10, pred, z, PromptId.SOURCE, 1.0, eta=0.0, mask=np.full(3, 7.0)
        )
        np.testing.assert_array_equal(plain[-1], ignored[-1])

    def test_non_finite_prediction_is_a_numeric_failure(self):
        schedule = build_schedule().subsample(10)
        pred = AffinePredictor.random(8, 0, {p: 1e200 for p in PromptId})
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="sampling step t="):
            sample_trajectory(schedule, pred, np.ones(8), PromptId.SOURCE, 1.0)

    def test_overflowing_state_is_a_numeric_failure_naming_the_step(self):
        schedule = build_schedule().subsample(5)
        with np.errstate(all="ignore"), pytest.raises(NumericsError) as err:
            sample_trajectory(schedule, ConstantPredictor(1e308), np.ones(4), PromptId.SOURCE, 1.0)
        assert str(err.value) == "state after sampling step t=1000 contains non-finite entries"

    def test_wrong_shaped_prediction_is_re_raised(self, schedule10):
        class WrongShape(NoisePredictor):
            def predict(self, z, prompt, t):
                return np.zeros(5)

        with pytest.raises(ValueError, match=r"^eps shape \(5,\) does not match latent shape \(4,\)$"):
            sample_trajectory(schedule10, WrongShape(), np.ones(4), PromptId.SOURCE, 1.0)

    @pytest.mark.parametrize("rng", [42, np.random.RandomState(0), "seed"])
    def test_rejects_an_rng_that_is_not_a_generator_before_any_call(self, schedule10, rng):
        counter = CallCounter(ConstantPredictor(0.0))
        with pytest.raises(ValueError, match="^rng must be a numpy.random.Generator, got "):
            sample_trajectory(
                schedule10, counter, np.ones(4), PromptId.SOURCE, 1.0, eta=0.3, rng=rng
            )
        assert counter.calls == 0

    def test_rng_type_is_not_read_at_eta_zero(self, schedule10):
        out = sample_trajectory(schedule10, ConstantPredictor(0.0), np.ones(4), PromptId.SOURCE,
                                1.0, rng=42)
        assert len(out) == 11

    @pytest.mark.parametrize("omega", [np.nan, np.inf, np.array([1.0, 2.0, np.nan, 1.0])])
    def test_rejects_a_non_finite_scale_before_any_call(self, schedule10, omega):
        counter = CallCounter(ContractivePredictor.default(4, 0))
        with pytest.raises(ValueError, match="^omega contains non-finite entries$"):
            sample_trajectory(schedule10, counter, np.ones(4), PromptId.SOURCE, omega)
        assert counter.calls == 0

    @pytest.mark.parametrize("omega", ["abc", "0.5", None, {}, True, 1j, np.array(["1.0"])])
    def test_rejects_a_non_number_scale_before_any_call(self, schedule10, omega):
        counter = CallCounter(ContractivePredictor.default(4, 0))
        with pytest.raises(ValueError, match="^omega must hold real numbers, got dtype "):
            sample_trajectory(schedule10, counter, np.ones(4), PromptId.SOURCE, omega)
        assert counter.calls == 0

    def test_a_list_scale_is_a_field(self, schedule10):
        counter = CallCounter(ContractivePredictor.default(4, 0))
        with pytest.raises(ValueError, match=r"^omega of shape \(2,\) does not broadcast"):
            sample_trajectory(schedule10, counter, np.ones(4), PromptId.SOURCE, [1.0, 2.0])
        assert counter.calls == 0

    def test_scale_field_shape_checked(self, schedule10):
        with pytest.raises(ValueError, match="omega"):
            sample_trajectory(
                schedule10, ConstantPredictor(0.0), np.zeros(4), PromptId.SOURCE, np.ones(3)
            )
