import math
import warnings
import weakref

import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    CallCounter,
    ConstantPredictor,
    ContractivePredictor,
    FixedPointConfig,
    PromptId,
    anderson_weights,
    ddim_step,
    fixed_point_map,
    invert_trajectory,
    iterative_invert_step,
    relative_l2,
    round_trip,
    sample_trajectory,
)
from diffinv import inversion
from diffinv.errors import DivergenceError
from diffinv.inversion import VARIANTS
from diffinv.predictor import guided_epsilon, max_inversion_coeff
from diffinv.schedule import inversion_eps_coeff

AB_T = 0.25
AB_PREV = 0.64


def implicit_coeff_oracle(ab_t, ab_prev):
    """Noise coefficient of the exact DDIM inverse, written out directly."""
    return math.sqrt(1.0 - ab_t) - math.sqrt((1.0 - ab_prev) * ab_t / ab_prev)


def invert_step(schedule, pred, z_prev, t, t_prev, cfg):
    """Solve the source-prompt inversion step t_prev -> t at omega = 1 with `cfg`."""
    f = fixed_point_map(schedule, pred, z_prev, t, t_prev, PromptId.SOURCE, 1.0)
    return iterative_invert_step(f, z_prev, t, cfg)


def scalar_fixed_point_oracle(a, z_prev, ab_t, ab_prev):
    """Closed-form solve of z = r * z_prev + c * a * z for a linear scalar map."""
    r = math.sqrt(ab_t / ab_prev)
    c = implicit_coeff_oracle(ab_t, ab_prev)
    return r * z_prev / (1.0 - c * a), c * a


class TestEulerInvertStep:
    def test_zero_predictor_is_rescale(self, toy_schedule):
        z = np.array([2.0])
        out, _ = invert_step(toy_schedule, ConstantPredictor(0.0), z, 2, 1, None)
        assert out[0] == pytest.approx(2.0 * math.sqrt(AB_T / AB_PREV), rel=1e-15)

    def test_constant_predictor_round_trips(self, toy_schedule):
        # eps independent of z and t makes the linearized step exact
        pred = ConstantPredictor(0.3)
        z = np.array([1.0, -0.4])
        up, _ = invert_step(toy_schedule, pred, z, 2, 1, None)
        eps = pred.predict(up, PromptId.SOURCE, 2)
        back = ddim_step(toy_schedule, eps, up, 2, 1)
        np.testing.assert_allclose(back, z, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(8))
    def test_contractive_round_trip_error_matches_direct_evaluation(self, toy_schedule, seed):
        pred = ContractivePredictor.default(4, seed=seed)
        z = np.array([0.5, -0.2, 1.0, 0.3])
        up, _ = invert_step(toy_schedule, pred, z, 2, 1, None)

        # oracle: apply both formulas directly with explicit arithmetic
        def guided(x, t):
            return pred.predict(x, PromptId.SOURCE, t)  # omega = 1

        eps_up = guided(z, 2)
        up_oracle = math.sqrt(AB_T / AB_PREV) * z + implicit_coeff_oracle(AB_T, AB_PREV) * eps_up
        np.testing.assert_array_equal(up, up_oracle)

        eps_back = guided(up_oracle, 2)
        z0_back = (up_oracle - math.sqrt(1.0 - AB_T) * eps_back) / math.sqrt(AB_T)
        back_oracle = math.sqrt(AB_PREV) * z0_back + math.sqrt(1.0 - AB_PREV) * eps_back
        error_oracle = float(np.linalg.norm(back_oracle - z))
        assert error_oracle > 0.0

        back = ddim_step(toy_schedule, guided(up, 2), up, 2, 1)
        assert float(np.linalg.norm(back - z)) == pytest.approx(error_oracle, rel=1e-12)

    def test_requires_increasing_time(self, toy_schedule):
        with pytest.raises(ValueError, match="t_prev"):
            invert_step(toy_schedule, ConstantPredictor(0.0), np.zeros(1), 1, 2, None)

    def test_non_finite_step_raises_with_location(self, toy_schedule):
        huge = AffinePredictor({p: [[1e308]] for p in PromptId}, {p: [0.0] for p in PromptId})
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="step t=2, iteration 1"
        ):
            invert_step(toy_schedule, huge, np.array([1e10]), 2, 1, None)


class TestEulerIsZeroIterations:
    """cfg=None is the solver at zero iterations: one map evaluation at z_prev per step."""

    def test_trajectory_is_one_map_evaluation_per_step(self, schedule20, contractive64):
        z_0 = np.random.default_rng(3).standard_normal(64)
        z_t, report = invert_trajectory(schedule20, contractive64, z_0, PromptId.SOURCE, 7.0, None)
        z = z_0
        for t_prev, t in schedule20.inversion_pairs():
            z = fixed_point_map(schedule20, contractive64, z, t, t_prev, PromptId.SOURCE, 7.0)(z)
        np.testing.assert_array_equal(z_t, z)
        assert report.nfe == 2 * 20
        assert [t for t, _ in report.step_traces] == [t for _, t in schedule20.inversion_pairs()]
        assert all(trace == [] for _, trace in report.step_traces)

    def test_step_is_first_iterate_of_every_variant(self, toy_schedule, scalar_affine_half):
        z = np.array([0.7])
        euler, trace = invert_step(toy_schedule, scalar_affine_half, z, 2, 1, None)
        assert trace == []
        for variant in VARIANTS:
            cfg = FixedPointConfig(variant=variant, iters=1)
            first, _ = invert_step(toy_schedule, scalar_affine_half, z, 2, 1, cfg)
            np.testing.assert_array_equal(first, euler)


class TestFixedPointMap:
    def test_equal_levels_returns_previous(self):
        from diffinv import NoiseSchedule

        s = NoiseSchedule(np.array([1.0, 0.5, 0.25]), np.array([1, 2]))
        # equal alpha_bar pair is unreachable through a valid schedule, so
        # check the algebra via the coefficient oracle instead
        assert implicit_coeff_oracle(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
        # and near-equal levels give a z-insensitive map
        pred = ConstantPredictor(2.0)
        out_a = fixed_point_map(s, pred, np.array([1.0]), 2, 1, PromptId.SOURCE, 1.0)(np.array([9.9]))
        out_b = fixed_point_map(s, pred, np.array([1.0]), 2, 1, PromptId.SOURCE, 1.0)(np.array([-3.0]))
        np.testing.assert_array_equal(out_a, out_b)

    def test_zero_predictor_ignores_candidate(self, toy_schedule):
        z_prev = np.array([1.0])
        out = fixed_point_map(
            toy_schedule, ConstantPredictor(0.0), z_prev, 2, 1, PromptId.SOURCE, 1.0,
        )(np.array([123.0]))
        assert out[0] == pytest.approx(math.sqrt(AB_T / AB_PREV), rel=1e-15)

    def test_scalar_affine_fixed_point_closed_form(self, toy_schedule, scalar_affine_half):
        z_star, q = scalar_fixed_point_oracle(0.5, 1.0, AB_T, AB_PREV)
        out = fixed_point_map(
            toy_schedule, scalar_affine_half, np.array([1.0]), 2, 1, PromptId.SOURCE, 1.0,
        )(np.array([z_star]))
        assert out[0] == pytest.approx(z_star, abs=1e-14)
        assert abs(q) < 1.0

    def test_fixed_point_inverts_ddim_step(self, toy_schedule):
        # z with f(z) = z makes ddim_step recover z_prev exactly
        pred = ContractivePredictor.default(4, seed=1)
        z_prev = np.array([0.2, -0.7, 1.1, 0.05])
        z = z_prev.copy()
        for _ in range(200):
            z = fixed_point_map(toy_schedule, pred, z_prev, 2, 1, PromptId.SOURCE, 1.0)(z)
        eps = pred.predict(z, PromptId.SOURCE, 2)
        back = ddim_step(toy_schedule, eps, z, 2, 1)
        np.testing.assert_allclose(back, z_prev, atol=1e-14)

    def test_requires_increasing_time(self, toy_schedule):
        with pytest.raises(ValueError, match="t_prev"):
            fixed_point_map(
                toy_schedule, ConstantPredictor(0.0), np.zeros(1), 1, 2, PromptId.SOURCE, 1.0,
            )


class TestAndersonWeights:
    def test_single_entry(self):
        gamma = anderson_weights([np.array([3.0])])
        np.testing.assert_array_equal(gamma, [1.0])

    def test_rejects_an_empty_history(self):
        with pytest.raises(ValueError, match="residual history must be nonempty"):
            anderson_weights([])

    def test_scalar_secant_solve(self):
        # oracle: minimizing |g0*w0 + g1*w1| with w0 + w1 = 1 for g = (2, 1)
        # gives w1 = g0 / (g0 - g1) = 2, w0 = -1; the combination is exactly 0
        gamma = anderson_weights([np.array([2.0]), np.array([1.0])])
        np.testing.assert_allclose(gamma, [-1.0, 2.0], atol=1e-8)
        assert gamma[0] * 2.0 + gamma[1] * 1.0 == pytest.approx(0.0, abs=1e-8)
        assert float(np.sum(gamma)) == 1.0

    def test_scalar_secant_weights_are_kept(self):
        # oracle: w0 * 0.625 + (1 - w0) * 0.25 = 0 gives w0 = -2/3, w1 = 5/3; their
        # rounded sum is 1 - 2**-53, and an exact-sum rule would discard them
        gamma = anderson_weights([np.array([0.625]), np.array([0.25])])
        np.testing.assert_allclose(gamma, [-2.0 / 3.0, 5.0 / 3.0], rtol=0, atol=1e-12)

    def test_identical_residuals_fall_back_to_plain(self):
        g = np.array([0.5, -0.5])
        gamma = anderson_weights([g, g])
        np.testing.assert_array_equal(gamma, [0.0, 1.0])

    @pytest.mark.parametrize("first", [[np.inf, 1.0], [-1e308, 1.0]])
    def test_non_finite_residual_or_difference_is_plain_step(self, first, capfd):
        # -1e308 is finite, but its difference from 1e308 overflows
        with np.errstate(over="ignore"):
            gamma = anderson_weights([np.array(first), np.array([1e308, -0.5])])
        np.testing.assert_array_equal(gamma, [0.0, 1.0])
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("seed", range(8))
    def test_sums_to_one_exactly(self, seed):
        # The eliminated constraint holds up to the rounding of 1 - sum(beta).
        rng = np.random.default_rng(seed)
        m1 = int(rng.integers(1, 5))
        history = [rng.standard_normal(6) for _ in range(m1)]
        gamma = anderson_weights(history)
        eps = np.finfo(np.float64).eps
        assert abs(math.fsum(gamma) - 1.0) <= 4.0 * eps * math.fsum(np.abs(gamma))

    @pytest.mark.parametrize("seed", range(5))
    def test_minimizes_combined_residual(self, seed):
        # oracle: brute-force search over the constraint line beats nothing
        rng = np.random.default_rng(100 + seed)
        g0, g1 = rng.standard_normal(4), rng.standard_normal(4)
        gamma = anderson_weights([g0, g1])
        best = float(np.linalg.norm(gamma[0] * g0 + gamma[1] * g1))
        for w0 in np.linspace(-5, 5, 2001):
            trial = float(np.linalg.norm(w0 * g0 + (1.0 - w0) * g1))
            assert best <= trial + 1e-9


class TestIterativeInvertStep:
    def test_zero_predictor_converges_immediately(self, toy_schedule):
        cfg = FixedPointConfig(variant="plain", iters=4)
        z, trace = invert_step(toy_schedule, ConstantPredictor(0.0), np.array([1.0]), 2, 1, cfg)
        assert trace[0] == 0.0
        assert z[0] == pytest.approx(math.sqrt(AB_T / AB_PREV), rel=1e-15)

    def test_anderson_hits_closed_form(self, toy_schedule, scalar_affine_half):
        z_star, _ = scalar_fixed_point_oracle(0.5, 1.0, AB_T, AB_PREV)
        cfg = FixedPointConfig(variant="anderson", iters=6, window=2)
        z, trace = invert_step(toy_schedule, scalar_affine_half, np.array([1.0]), 2, 1, cfg)
        assert abs(z[0] - z_star) <= 1e-8
        assert len(trace) == 6

    def test_anderson_solves_once_per_combination(self, toy_schedule, monkeypatch):
        # iters = k evaluates z^1..z^k, so only z^2..z^k are combinations
        calls = []

        def counted(history):
            calls.append(len(history))
            return anderson_weights(history)

        monkeypatch.setattr(inversion, "anderson_weights", counted)
        pred = ContractivePredictor.default(4, seed=3)
        cfg = FixedPointConfig(variant="anderson", iters=5, window=2)
        _, trace = invert_step(toy_schedule, pred, np.array([0.4, -0.1, 0.9, 0.2]), 2, 1, cfg)
        assert len(trace) == 5
        assert calls == [2, 3, 3, 3]

    def test_anderson_window_one_is_secant(self, toy_schedule, scalar_affine_half):
        # exact on scalar linear problems by the second combination
        cfg = FixedPointConfig(variant="anderson", iters=6, window=1)
        _, trace = invert_step(toy_schedule, scalar_affine_half, np.array([1.0]), 2, 1, cfg)
        hit = next(i + 1 for i, r in enumerate(trace) if r <= 1e-10)
        assert hit <= 3

    def test_plain_matches_hand_iteration(self, toy_schedule, scalar_affine_half):
        # oracle: iterate z <- r * z_prev + c * 0.5 * z by hand, return z^6
        r = math.sqrt(AB_T / AB_PREV)
        c = implicit_coeff_oracle(AB_T, AB_PREV)
        z_hand = 1.0
        for _ in range(6):
            z_hand = r * 1.0 + c * 0.5 * z_hand
        cfg = FixedPointConfig(variant="plain", iters=6)
        z, trace = invert_step(toy_schedule, scalar_affine_half, np.array([1.0]), 2, 1, cfg)
        assert z[0] == pytest.approx(z_hand, abs=1e-14)
        z_star, q = scalar_fixed_point_oracle(0.5, 1.0, AB_T, AB_PREV)
        assert abs(z[0] - z_star) == pytest.approx(abs(q) ** 6 * abs(1.0 - z_star), rel=1e-9)

    def test_plain_contraction_rate(self, toy_schedule, scalar_affine_half):
        # residual shrinks by exactly the contraction factor on a linear map
        _, q = scalar_fixed_point_oracle(0.5, 1.0, AB_T, AB_PREV)
        cfg = FixedPointConfig(variant="plain", iters=12)
        _, trace = invert_step(toy_schedule, scalar_affine_half, np.array([1.0]), 2, 1, cfg)
        for a, b in zip(trace, trace[1:]):
            if a < 1e-12:
                break
            assert b / a <= abs(q) + 1e-6

    def test_averaged_matches_reference_update(self, toy_schedule):
        # reference reimplementation of the update line:
        # z^{i+1} = 0.5 * f(z^{i-1}) + 0.5 * f(z^i)
        pred = ContractivePredictor.default(4, seed=3)
        z_prev = np.array([0.4, -0.1, 0.9, 0.2])

        def f(z):
            return fixed_point_map(toy_schedule, pred, z_prev, 2, 1, PromptId.SOURCE, 1.0)(z)

        iters = 5
        z_hist = [z_prev, f(z_prev)]
        f_hist = [z_hist[1]]
        for i in range(1, iters + 1):
            f_hist.append(f(z_hist[i]))
            z_hist.append(0.5 * f_hist[i - 1] + 0.5 * f_hist[i])
        expected = z_hist[iters]

        cfg = FixedPointConfig(variant="averaged", iters=iters)
        z, _ = invert_step(toy_schedule, pred, z_prev, 2, 1, cfg)
        np.testing.assert_array_equal(z, expected)

    def test_residual_tol_early_stop(self, toy_schedule, scalar_affine_half):
        cfg = FixedPointConfig(variant="plain", iters=50, residual_tol=1e-6)
        _, trace = invert_step(toy_schedule, scalar_affine_half, np.array([1.0]), 2, 1, cfg)
        assert len(trace) < 50
        assert trace[-1] <= 1e-6
        assert all(r > 1e-6 for r in trace[:-1])

    def test_divergence_raises_with_location(self, toy_schedule):
        huge = AffinePredictor({p: [[1e80]] for p in PromptId}, {p: [0.0] for p in PromptId})
        cfg = FixedPointConfig(variant="plain", iters=10)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            DivergenceError, match="t=2"
        ):
            invert_step(toy_schedule, huge, np.array([1.0]), 2, 1, cfg)

    @pytest.mark.parametrize("variant", ["plain", "averaged"])
    def test_window_kept_and_unread_outside_anderson(self, variant):
        assert FixedPointConfig(variant=variant, iters=3, window=5).window == 5
        runs = [
            iterative_invert_step(lambda z: 0.5 * np.sin(z) + 1.0, np.linspace(-1.0, 1.0, 5), 5,
                                  FixedPointConfig(variant=variant, iters=3, window=m))
            for m in (1, 5)
        ]
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FixedPointConfig(iters=0)
        with pytest.raises(ValueError):
            FixedPointConfig(residual_tol=-1.0)
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="residual_tol must be finite and >= 0"):
                FixedPointConfig(residual_tol=tol)
        with pytest.raises(ValueError, match="residual_tol must be a real number, got True"):
            FixedPointConfig(residual_tol=True)
        with pytest.raises(ValueError, match=r"iters must be an integer, got 2\.5"):
            FixedPointConfig(iters=2.5)
        with pytest.raises(ValueError, match="iters must be an integer, got True"):
            FixedPointConfig(iters=True)
        for variant in VARIANTS:  # checked whether or not the variant reads it
            with pytest.raises(ValueError, match=r"window must be an integer, got 1\.5"):
                FixedPointConfig(variant=variant, window=1.5)
        cfg = FixedPointConfig(variant="anderson", iters=np.int64(3),
                               window=np.int64(2))
        assert (cfg.iters, cfg.window) == (3, 2)


class TestInvertTrajectory:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, schedule10, bad):
        z_0 = np.array([1.0, bad, 0.5])
        with pytest.raises(ValueError, match="z_0 contains non-finite entries"):
            invert_trajectory(schedule10, ConstantPredictor(0.0), z_0, PromptId.SOURCE, 1.0, None)

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_scale_before_any_call(self, schedule10, omega):
        counter = CallCounter(ContractivePredictor.default(8, 0))
        with pytest.raises(ValueError, match="^omega contains non-finite entries$"):
            invert_trajectory(schedule10, counter, np.ones(8), PromptId.SOURCE, omega, None)
        assert counter.calls == 0

    @pytest.mark.parametrize("omega", ["abc", "0.5", None, {}, True, 1j, np.array(["1.0"])])
    def test_rejects_a_non_number_scale_before_any_call(self, schedule10, omega):
        counter = CallCounter(ContractivePredictor.default(8, 0))
        with pytest.raises(ValueError, match="^omega must hold real numbers, got dtype "):
            invert_trajectory(schedule10, counter, np.ones(8), PromptId.SOURCE, omega, None)
        assert counter.calls == 0

    def test_a_list_scale_is_a_field(self, schedule10):
        counter = CallCounter(ContractivePredictor.default(8, 0))
        with pytest.raises(ValueError, match=r"^omega of shape \(2,\) does not broadcast"):
            invert_trajectory(schedule10, counter, np.ones(8), PromptId.SOURCE, [1.0, 2.0], None)
        assert counter.calls == 0

    def test_a_string_prompt_is_refused_before_any_call(self, schedule10):
        counter = CallCounter(ContractivePredictor.default(8, 0))
        with pytest.raises(ValueError, match="^cond must be a PromptId, got 'source'$"):
            invert_trajectory(schedule10, counter, np.ones(8), "source", 1.0, FixedPointConfig())
        assert counter.calls == 0

    def test_zero_predictor_telescopes(self, schedule20):
        z_0 = np.random.default_rng(0).standard_normal(8)
        z_t, report = invert_trajectory(
            schedule20, ConstantPredictor(0.0), z_0, PromptId.SOURCE, 1.0,
            FixedPointConfig(variant="plain", iters=2),
        )
        np.testing.assert_allclose(z_t, math.sqrt(schedule20.alpha_bar[1000]) * z_0, rtol=1e-12)
        assert len(report.step_traces) == 20

    def test_round_trip_beats_euler_tenfold(self, schedule20, contractive64):
        z_0 = np.random.default_rng(1).standard_normal(64)
        cfg = FixedPointConfig(variant="averaged", iters=6)
        z_t, _ = invert_trajectory(schedule20, contractive64, z_0, PromptId.SOURCE, 1.0, cfg)
        rec = sample_trajectory(schedule20, contractive64, z_t, PromptId.SOURCE, 1.0)[-1]
        err_fp = relative_l2(rec, z_0)
        assert err_fp <= 1e-4

        z_t_e, _ = invert_trajectory(schedule20, contractive64, z_0, PromptId.SOURCE, 1.0, None)
        rec_e = sample_trajectory(schedule20, contractive64, z_t_e, PromptId.SOURCE, 1.0)[-1]
        err_euler = relative_l2(rec_e, z_0)
        assert err_euler >= 10.0 * err_fp

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_one_step_schedule_round_trips(self, base_schedule, contractive64, variant):
        schedule = base_schedule.subsample(1)
        z_0 = np.random.default_rng(0).standard_normal(64)
        cfg = FixedPointConfig(variant=variant, iters=6)
        _, rec, report = round_trip(schedule, contractive64, z_0, PromptId.SOURCE, 1.0, cfg)
        assert report.round_trip_l2 <= 1e-4
        assert report.nfe == 14
        assert relative_l2(rec, z_0) == report.round_trip_l2
        _, _, euler = round_trip(schedule, contractive64, z_0, PromptId.SOURCE, 1.0, None)
        assert euler.round_trip_l2 > 0.1

    def test_nfe_accounting(self, schedule10, contractive64):
        # euler: 2 predictor calls per step; iterative: 2 * (iters + 1) per step
        z_0 = np.random.default_rng(2).standard_normal(64)
        outer = CallCounter(contractive64)
        _, report = invert_trajectory(schedule10, outer, z_0, PromptId.SOURCE, 1.0, None)
        assert report.nfe == 2 * 10
        assert outer.calls == report.nfe

        outer2 = CallCounter(contractive64)
        cfg = FixedPointConfig(variant="anderson", iters=4)
        _, report2 = invert_trajectory(schedule10, outer2, z_0, PromptId.SOURCE, 1.0, cfg)
        assert report2.nfe == 2 * 10 * (4 + 1)
        assert outer2.calls == report2.nfe
        # trace-based invariant: evaluations = iterations performed + 1 per step
        assert report2.nfe == 2 * sum(len(tr) + 1 for _, tr in report2.step_traces)

    def test_huge_finite_scale_records_finite_residuals(self, base_schedule):
        # residuals near 1e300 square to inf; their norms are still finite
        z_0 = np.random.default_rng(0).standard_normal((4, 4))
        pred = ContractivePredictor.default(16, seed=0)
        cfg = FixedPointConfig(variant="averaged", iters=6)
        schedule = base_schedule.subsample(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = round_trip(schedule, pred, z_0, PromptId.SOURCE, 1e300, cfg)[2]
        residuals = [r for _, trace in report.step_traces for r in trace]
        assert len(residuals) == 5 * 6
        assert np.isfinite(residuals).all()
        assert max(residuals) > 1e200

    def test_reconstruction_error_shrinks_with_residual_tol(self, schedule10, contractive64):
        z_0 = np.random.default_rng(3).standard_normal(64)
        errors = []
        for tol in (1e-1, 1e-3, 1e-5, 1e-7):
            cfg = FixedPointConfig(
                variant="plain", iters=60, residual_tol=tol
            )
            z_t, _ = invert_trajectory(schedule10, contractive64, z_0, PromptId.SOURCE, 1.0, cfg)
            rec = sample_trajectory(schedule10, contractive64, z_t, PromptId.SOURCE, 1.0)[-1]
            errors.append(relative_l2(rec, z_0))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse * 1.001 + 1e-14


class TestAndersonHardRegime:
    """Anderson on an oscillatory affine predictor where plain iteration diverges.

    S = Q diag(linspace(0.2, 1, 64)) Q^T; at omega = 7 the guided Jacobian is
    -13 a S, and a is picked so the inversion map's largest |eigenvalue| is
    |lambda| > 1.  A weight solve whose cutoff is absolute stops accelerating
    once the residual differences become small, so more iterations must keep
    helping here.
    """

    @staticmethod
    def round_trip_error(schedule, lam, window, iters):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((64, 64)))
        s = q @ np.diag(np.linspace(0.2, 1.0, 64)) @ q.T
        a = lam / (13.0 * max_inversion_coeff(schedule))
        weights = {PromptId.NULL: a * s, PromptId.SOURCE: -a * s, PromptId.TARGET: -a * s}
        pred = AffinePredictor(weights, {p: np.zeros(64) for p in PromptId})
        z_0 = np.random.default_rng(1).standard_normal(64)
        cfg = FixedPointConfig(variant="anderson", iters=iters, window=window)
        return round_trip(schedule, pred, z_0, PromptId.SOURCE, 7.0, cfg)[2].round_trip_l2

    def test_more_iterations_keep_converging(self, schedule20):
        err_20 = self.round_trip_error(schedule20, 1.3, window=2, iters=20)
        assert err_20 <= 1e-6
        assert err_20 < self.round_trip_error(schedule20, 1.3, window=2, iters=6)

    def test_wide_window_converges_past_plain_divergence(self, schedule20):
        assert self.round_trip_error(schedule20, 1.8, window=5, iters=20) <= 1e-6


def reference_map(schedule, pred, z_candidate, z_prev, t, t_prev, cond, omega):
    """One map evaluation with the whole step set-up redone, as the solver once did."""
    if not t_prev < t:
        raise ValueError(f"need t_prev < t, got {t_prev} >= {t}")
    ab_t = float(schedule.alpha_bar[t])
    ab_p = float(schedule.alpha_bar[t_prev])
    eps = guided_epsilon(pred, np.asarray(z_candidate, dtype=np.float64), cond, omega, t)
    coeff = inversion_eps_coeff(ab_t, ab_p)
    return math.sqrt(ab_t / ab_p) * np.asarray(z_prev, dtype=np.float64) + coeff * eps


def reference_anderson_weights(residual_history):
    g = np.stack([np.ravel(np.asarray(r, dtype=np.float64)) for r in residual_history])
    diffs = (g[:-1] - g[-1]).T
    if not (np.all(np.isfinite(diffs)) and np.all(np.isfinite(g[-1]))):
        plain = np.zeros(len(g))
        plain[-1] = 1.0
        return plain
    beta = np.linalg.lstsq(diffs, -g[-1], rcond=None)[0]
    return np.concatenate((beta, [1.0 - float(np.sum(beta))]))


def reference_step(schedule, pred, z_prev, t, t_prev, cond, omega, cfg):
    def f(z):
        return reference_map(schedule, pred, z, z_prev, t, t_prev, cond, omega)

    iters = 0 if cfg is None else cfg.iters
    z = np.asarray(z_prev, dtype=np.float64)
    f_hist, g_hist, trace = [], [], []
    for i in range(iters + 1):
        f_hist.append(f(z))
        g_hist.append(f_hist[i] - z)
        if i > 0:
            res_norm = float(np.linalg.norm(np.ravel(g_hist[i])))
            trace.append(res_norm)
            if i == iters or (cfg.residual_tol > 0.0 and res_norm <= cfg.residual_tol):
                return z, trace
        if i == 0 or cfg.variant == "plain":
            z = f_hist[i]
        elif cfg.variant == "averaged":
            z = 0.5 * f_hist[i - 1] + 0.5 * f_hist[i]
        else:
            m_i = min(cfg.window, i)
            gamma = reference_anderson_weights(g_hist[i - m_i :])
            z = sum(gamma[j] * f_hist[i - m_i + j] for j in range(m_i + 1))
        if not np.all(np.isfinite(z)):
            raise DivergenceError(step_t=t, iteration=i + 1)
    return z, trace


class TestSolverMatchesReferenceLoop:
    """The solver equals, bit for bit, a loop that rebuilds the map on every evaluation
    and uses the wrapper forms of the norm, the stacking and the finiteness checks."""

    @pytest.mark.parametrize("omega", [1.0, 7.0])
    @pytest.mark.parametrize("shape", [(64,), (8, 8)])
    @pytest.mark.parametrize(
        "cfg",
        [
            None,
            FixedPointConfig(variant="plain", iters=7),
            FixedPointConfig(variant="averaged", iters=7),
            FixedPointConfig(variant="anderson", iters=9, window=1),
            FixedPointConfig(variant="anderson", iters=9, window=2),
            FixedPointConfig(variant="anderson", iters=9, window=5),
            FixedPointConfig(variant="plain", iters=40, residual_tol=1e-9),
            FixedPointConfig(variant="anderson", iters=20, window=2,
                             residual_tol=1e-11),
        ],
        ids=["euler", "plain", "averaged", "anderson-w1", "anderson-w2", "anderson-w5",
             "plain-tol", "anderson-tol"],
    )
    def test_final_state_and_traces(self, schedule20, contractive64, cfg, shape, omega):
        z_0 = np.random.default_rng(11).standard_normal(shape)
        z_t, report = invert_trajectory(schedule20, contractive64, z_0, PromptId.SOURCE, omega, cfg)
        z, traces = z_0, []
        for t_prev, t in schedule20.inversion_pairs():
            z, trace = reference_step(
                schedule20, contractive64, z, t, t_prev, PromptId.SOURCE, omega, cfg
            )
            traces.append((t, trace))
        np.testing.assert_array_equal(z_t, z)
        assert z_t.shape == shape
        assert report.step_traces == traces
        if cfg is not None and cfg.residual_tol > 0.0:
            assert any(len(trace) < cfg.iters for _, trace in traces)


class TestVariantStrings:
    """Each variant string runs the update its name says.

    The round trips are recorded values for the seed-1 dim-64 latent at 10
    steps, omega = 7 and 3 iterations; a string that fell through to another
    branch (plain run as Anderson with window 1 gives 4.365e-4) misses its
    value by far more than rounding.
    """

    ROUND_TRIPS = {
        "plain": 0.00043282253276374845,
        "averaged": 0.005707621900759599,
        "anderson": 0.00043340961611996104,
    }

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_matches_its_recorded_value(self, schedule10, contractive64, variant):
        z_0 = np.random.default_rng(1).standard_normal(64)
        cfg = FixedPointConfig(variant=variant, iters=3)
        _, _, report = round_trip(schedule10, contractive64, z_0, PromptId.SOURCE, 7.0, cfg)
        assert report.round_trip_l2 == pytest.approx(self.ROUND_TRIPS[variant], rel=1e-9)
        assert report.nfe == 2 * 10 * 4


class TestStepSetUpCost:
    """Deterministic cost guard: the step set-up runs once per step, not per evaluation."""

    @pytest.mark.parametrize(
        "cfg",
        [
            None,
            FixedPointConfig(variant="anderson", iters=6, window=2),
            FixedPointConfig(variant="plain", iters=40, residual_tol=1e-9),
        ],
        ids=["euler", "anderson", "plain-tol"],
    )
    def test_one_coefficient_per_step_one_guidance_per_evaluation(
        self, schedule10, contractive64, monkeypatch, cfg
    ):
        counts = {"coeff": 0, "guided": 0}

        def counting(key, fn):
            def counted(*args):
                counts[key] += 1
                return fn(*args)

            return counted

        monkeypatch.setattr(
            inversion, "inversion_eps_coeff", counting("coeff", inversion.inversion_eps_coeff)
        )
        monkeypatch.setattr(inversion, "guided_epsilon", counting("guided", inversion.guided_epsilon))
        z_0 = np.random.default_rng(2).standard_normal(64)
        _, report = invert_trajectory(schedule10, contractive64, z_0, PromptId.SOURCE, 7.0, cfg)
        evaluations = sum(len(trace) + 1 for _, trace in report.step_traces)
        assert counts["coeff"] == len(report.step_traces) == 10
        assert counts["guided"] == evaluations
        assert report.nfe == 2 * evaluations

    @pytest.mark.parametrize("t, t_prev", [(1, 2), (2, 2)])
    def test_bad_step_fails_when_the_map_is_built(self, toy_schedule, t, t_prev):
        counter = CallCounter(ConstantPredictor(0.0))
        with pytest.raises(ValueError, match="t_prev"):
            fixed_point_map(toy_schedule, counter, np.zeros(1), t, t_prev, PromptId.SOURCE, 1.0)
        assert counter.calls == 0


class TestSolverOnPlainMaps:
    """`iterative_invert_step` solves z = f(z) for any map; no schedule or predictor needed."""

    LAM = -1.5
    B = np.array([1.0, -2.0, 0.5])

    def affine(self, z):
        return self.B + self.LAM * z

    def test_anderson_window_one_is_exact_after_its_first_secant_step(self):
        z_star = self.B / (1.0 - self.LAM)
        cfg = FixedPointConfig(variant="anderson", iters=2, window=1)
        z, trace = iterative_invert_step(self.affine, np.zeros(3), 5, cfg)
        np.testing.assert_allclose(z, z_star, rtol=1e-14, atol=1e-15)
        assert trace[1] <= 1e-14 * trace[0]

    def test_plain_iteration_residuals_grow(self):
        cfg = FixedPointConfig(variant="plain", iters=6)
        _, trace = iterative_invert_step(self.affine, np.zeros(3), 5, cfg)
        for a, b in zip(trace, trace[1:]):
            assert b == pytest.approx(abs(self.LAM) * a, rel=1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [None, *(FixedPointConfig(variant=v, iters=4) for v in VARIANTS),
         FixedPointConfig(variant="anderson", iters=7, window=3)],
    )
    def test_map_is_called_iters_plus_one_times(self, cfg):
        calls = []

        def counted(z):
            calls.append(1)
            return 0.5 * z + 1.0

        _, trace = iterative_invert_step(counted, np.ones(4), 5, cfg)
        iters = 0 if cfg is None else cfg.iters
        assert len(trace) == iters
        assert len(calls) == iters + 1

    @pytest.mark.parametrize(
        "cfg",
        [*(FixedPointConfig(variant=v, iters=12)
           for v in ("plain", "averaged")),
         *(FixedPointConfig(variant="anderson", iters=12, window=m)
           for m in (1, 2, 4))],
    )
    def test_holds_only_the_map_values_its_variant_combines(self, cfg):
        # Each map value is tracked by a weak reference, so one the solver
        # has dropped no longer counts as alive.
        outputs, alive = [], []

        def tracked(z):
            alive.append(sum(ref() is not None for ref in outputs))
            fz = self.B + 0.5 * z
            outputs.append(weakref.ref(fz))
            return fz

        iterative_invert_step(tracked, np.zeros(3), 5, cfg)
        assert len(alive) == cfg.iters + 1
        assert max(alive) == {"plain": 1, "averaged": 2}.get(cfg.variant, cfg.window + 1)

    @pytest.mark.parametrize(
        "cfg", [None, *(FixedPointConfig(variant=v, iters=3) for v in VARIANTS)]
    )
    def test_non_finite_map_raises_divergence_at_the_first_iteration(self, cfg):
        with pytest.raises(DivergenceError) as info:
            iterative_invert_step(lambda z: np.full_like(z, np.inf), np.zeros(2), 7, cfg)
        assert (info.value.step_t, info.value.iteration) == (7, 1)
