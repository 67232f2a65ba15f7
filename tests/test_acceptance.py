"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s -q` to see the
lines on success."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    AttentionMap,
    ContractivePredictor,
    EditConfig,
    FixedPointConfig,
    FixedPointVariant,
    MaskNormConfig,
    Polarity,
    PromptId,
    blended_scale_field,
    build_schedule,
    ddim_step,
    edit,
    fixed_point_map,
    guided_epsilon,
    invert_trajectory,
    iterative_invert_step,
    normalize_map,
    relative_l2,
    sample_trajectory,
    soft_mask,
)
from diffinv.cli import main as cli_main
from diffinv.schedule import NoiseSchedule


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number}: FAIL - {text}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {text}")


AB_T, AB_PREV = 0.25, 0.64


def toy_two_step():
    return NoiseSchedule(np.array([1.0, AB_PREV, AB_T]), np.array([1, 2]))


def closed_form_scalar_fixed_point(a=0.5, z_prev=1.0):
    """Independent linear solve of z = r z_prev + c a z."""
    r = math.sqrt(AB_T / AB_PREV)
    c = math.sqrt(1.0 - AB_T) - math.sqrt((1.0 - AB_PREV) * AB_T / AB_PREV)
    return r * z_prev / (1.0 - c * a)


def test_criterion_1_fixed_point_oracle_exactness():
    with criterion(1, "scalar Anderson solve hits the closed form within 1e-8 in < 1 ms"):
        schedule = toy_two_step()
        pred = AffinePredictor({p: [[0.5]] for p in PromptId}, {p: [0.0] for p in PromptId})
        cfg = FixedPointConfig(variant=FixedPointVariant.ANDERSON, iters=6, window=2)
        z_star = closed_form_scalar_fixed_point()

        best = math.inf
        for _ in range(10):
            start = time.perf_counter()
            f = fixed_point_map(schedule, pred, np.array([1.0]), 2, 1, PromptId.SOURCE, 1.0)
            z, _ = iterative_invert_step(f, np.array([1.0]), 2, cfg)
            best = min(best, time.perf_counter() - start)
        assert abs(float(z[0]) - z_star) <= 1e-8
        assert best < 1e-3


def test_criterion_2_round_trip_reconstruction():
    with criterion(2, "20-step round trip <= 1e-4 and 10x better than the Euler baseline, each run < 1 s"):
        schedule = build_schedule().subsample(20)
        pred = ContractivePredictor.default(64, seed=0)
        z_0 = np.random.default_rng(1).standard_normal(64)
        cfg = FixedPointConfig(variant=FixedPointVariant.AVERAGED, iters=6)

        start = time.perf_counter()
        z_t, _ = invert_trajectory(schedule, pred, z_0, PromptId.SOURCE, 1.0, cfg)
        rec = sample_trajectory(schedule, pred, z_t, PromptId.SOURCE, 1.0)[-1]
        fp_seconds = time.perf_counter() - start
        fp_error = relative_l2(rec, z_0)

        start = time.perf_counter()
        z_t_e, _ = invert_trajectory(schedule, pred, z_0, PromptId.SOURCE, 1.0, None)
        rec_e = sample_trajectory(schedule, pred, z_t_e, PromptId.SOURCE, 1.0)[-1]
        euler_seconds = time.perf_counter() - start
        euler_error = relative_l2(rec_e, z_0)

        assert fp_error <= 1e-4
        assert euler_error >= 10.0 * fp_error
        assert fp_seconds < 1.0
        assert euler_seconds < 1.0


def test_criterion_3_guidance_scale_trend():
    with criterion(3, "guidance-free inversion error <= 1e-6 and strictly below the omega = 7 error"):
        schedule = build_schedule().subsample(20)
        pred = ContractivePredictor.default(64, seed=0)
        z_0 = np.random.default_rng(1).standard_normal(64)
        cfg = FixedPointConfig(variant=FixedPointVariant.AVERAGED, iters=6)

        errors = {}
        for omega in (0.0, 7.0):
            z_t, _ = invert_trajectory(schedule, pred, z_0, PromptId.SOURCE, omega, cfg)
            rec = sample_trajectory(schedule, pred, z_t, PromptId.SOURCE, omega)[-1]
            errors[omega] = relative_l2(rec, z_0)
        assert errors[0.0] <= 1e-6
        assert errors[7.0] > errors[0.0]


def test_criterion_4_anderson_beats_plain_iteration():
    with criterion(4, "Anderson reaches residual 1e-10 in <= 3 iterations, plain needs >= 10"):
        schedule = toy_two_step()
        pred = AffinePredictor({p: [[0.5]] for p in PromptId}, {p: [0.0] for p in PromptId})

        for window in (1, 2):
            cfg = FixedPointConfig(variant=FixedPointVariant.ANDERSON, iters=6, window=window)
            f = fixed_point_map(schedule, pred, np.array([1.0]), 2, 1, PromptId.SOURCE, 1.0)
            _, trace = iterative_invert_step(f, np.array([1.0]), 2, cfg)
            hit = next(i + 1 for i, r in enumerate(trace) if r <= 1e-10)
            assert hit <= 3

        cfg = FixedPointConfig(variant=FixedPointVariant.PLAIN, iters=25)
        f = fixed_point_map(schedule, pred, np.array([1.0]), 2, 1, PromptId.SOURCE, 1.0)
        _, trace = iterative_invert_step(f, np.array([1.0]), 2, cfg)
        hit = next(i + 1 for i, r in enumerate(trace) if r <= 1e-10)
        assert hit >= 10


def test_criterion_5_degenerate_identities_bit_exact():
    with criterion(5, "eta = 0, uniform blend, identity edit, zero mask and polarity-sum identities are bit-exact"):
        schedule = toy_two_step()
        rng = np.random.default_rng(0)
        z = rng.standard_normal(8)
        eps = rng.standard_normal(8)

        det = ddim_step(schedule, eps, z, 2, 1)
        sto = ddim_step(schedule, eps, z, 2, 1, None, 0.0, rng)
        assert np.array_equal(det, sto)

        pred = ContractivePredictor.default(8, seed=0)
        field = blended_scale_field(np.full((1, 8), 1.0), 2.5, 2.5)
        assert np.array_equal(field, np.full((1, 8), 2.5))
        a = guided_epsilon(pred, z, PromptId.SOURCE, np.full(8, 2.5), 100)
        b = guided_epsilon(pred, z, PromptId.SOURCE, 2.5, 100)
        assert np.array_equal(a, b)

        s10 = build_schedule().subsample(10)
        pred12 = AffinePredictor.random(12, seed=5)
        z_0 = rng.standard_normal(12)
        cfg = EditConfig(omega=1.0, omega_e=1.0, eta=0.0,
                         fixed_point=FixedPointConfig(iters=4))
        result = edit(s10, pred12, z_0, PromptId.SOURCE, PromptId.SOURCE, cfg)
        assert np.array_equal(result.best, result.reconstruction)

        pos = soft_mask(np.zeros((2, 2)), Polarity.POSITIVE)
        assert np.all(pos.values == 0.5)
        norm = rng.uniform(-25, 25, size=(4, 4))
        total = (
            soft_mask(norm, Polarity.POSITIVE).values
            + soft_mask(norm, Polarity.NEGATIVE).values
        )
        assert np.array_equal(total, np.ones((4, 4)))


def test_criterion_6_stochastic_selection():
    with criterion(6, "best-of-4 stochastic edit never scores worse than a single sample (100 trials, < 30 s)"):
        start = time.perf_counter()
        schedule = build_schedule().subsample(20)
        pred = AffinePredictor.random(16, seed=8)
        z_0 = np.random.default_rng(12).standard_normal(16)
        improved = 0
        trials = 100
        for trial_seed in range(trials):
            cfg = EditConfig(
                omega=1.0, omega_e=3.0, eta=0.1, n_candidates=4, seed=trial_seed,
                fixed_point=FixedPointConfig(iters=6),
            )
            result = edit(schedule, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
            single_sample = result.scores[0]
            best_of_four = min(result.scores)
            if best_of_four <= single_sample:
                improved += 1
        elapsed = time.perf_counter() - start
        assert improved >= 95
        assert elapsed < 30.0


def test_criterion_7_mask_pipeline():
    with criterion(7, "two-sided normalization examples hold to 1e-12 and M = 1e3 masks are binary to 1e-6"):
        three = AttentionMap(np.array([[0.0, 0.5, 1.0]]))
        out = normalize_map(three, MaskNormConfig(delta=0.5, big_m=10.0))
        np.testing.assert_allclose(out, [[-10.0, 0.0, 10.0]], atol=1e-12)

        four = AttentionMap(np.array([[0.1, 0.2, 0.6, 0.8]]))
        out4 = normalize_map(four, MaskNormConfig(delta=0.5, big_m=4.0))
        # frozen from the independent two-segment affine oracle:
        # [0.1, 0.5] -> [-4, 0] and [0.5, 0.8] -> [0, 4]
        np.testing.assert_allclose(out4, [[-4.0, -3.0, 4.0 / 3.0, 4.0]], atol=1e-12)

        hard = normalize_map(four, MaskNormConfig(big_m=1e3))
        mask = soft_mask(hard, Polarity.POSITIVE).values
        distance_to_binary = np.minimum(np.abs(mask - 0.0), np.abs(mask - 1.0))
        assert np.all(distance_to_binary <= 1e-6)


def test_criterion_8_grid_determinism_and_budget(tmp_path):
    with criterion(8, "default 3x5x4 grid is byte-deterministic and completes twice in < 60 s"):
        args = ["grid", "--seed", "7"]
        p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        start = time.perf_counter()
        assert cli_main(args + ["--out", str(p1)]) == 0
        assert cli_main(args + ["--out", str(p2)]) == 0
        elapsed = time.perf_counter() - start
        blob = p1.read_bytes()
        assert blob == p2.read_bytes()
        lines = blob.decode().splitlines()
        assert len(lines) == 1 + 3 * 5 * 4
        assert elapsed < 60.0
