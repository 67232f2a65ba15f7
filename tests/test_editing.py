import math

import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    AttentionMap,
    CallCounter,
    ContractivePredictor,
    EditConfig,
    FixedPointConfig,
    FixedPointVariant,
    MaskNormConfig,
    Polarity,
    PromptId,
    ZeroPredictor,
    default_scorer,
    edit,
    invert_trajectory,
    relative_l2,
    round_trip,
    synthetic_attention,
)
from diffinv.editing import write_scores_csv


def affine_step_oracle(a, b, ab_t, ab_p):
    """Per-step sampling update as an explicit affine map (M, v):
    z_prev = M @ z + v for eps(z) = A z + b."""
    dim = a.shape[0]
    s_t = math.sqrt(1.0 - ab_t)
    s_p = math.sqrt(1.0 - ab_p)
    r = math.sqrt(ab_p / ab_t)
    m = r * (np.eye(dim) - s_t * a) + s_p * a
    v = (s_p - r * s_t) * b
    return m, v


def fp_cfg(iters=6, variant=FixedPointVariant.AVERAGED):
    return FixedPointConfig(variant=variant, iters=iters)


class TestReconstruct:
    def test_zero_predictor_exact(self, schedule10):
        z_0 = np.random.default_rng(0).standard_normal(8)
        cfg = EditConfig(fixed_point=fp_cfg(2))
        z_rec = round_trip(schedule10, ZeroPredictor(), z_0, PromptId.SOURCE, 1.0, fp_cfg(2))[1]
        masks = edit(schedule10, ZeroPredictor(), z_0, PromptId.SOURCE, PromptId.SOURCE, cfg).masks
        np.testing.assert_allclose(z_rec, z_0, rtol=1e-12)
        assert len(masks) == 10

    def test_contractive_round_trip(self, schedule20, contractive64):
        z_0 = np.random.default_rng(1).standard_normal(64)
        z_rec = round_trip(schedule20, contractive64, z_0, PromptId.SOURCE, 1.0, fp_cfg(6))[1]
        assert relative_l2(z_rec, z_0) <= 1e-4

    def test_euler_swap_in_is_worse(self, schedule20, contractive64):
        z_0 = np.random.default_rng(2).standard_normal(64)
        good = round_trip(schedule20, contractive64, z_0, PromptId.SOURCE, 1.0, fp_cfg(6))[1]
        base = round_trip(schedule20, contractive64, z_0, PromptId.SOURCE, 1.0, None)[1]
        assert relative_l2(base, z_0) > relative_l2(good, z_0)

    def test_mask_stream_uses_attention_source(self, schedule10):
        amap = synthetic_attention((4, 4), (1, 1), 1.0)
        cfg = EditConfig(attention=amap, fixed_point=fp_cfg(2))
        z_0 = np.zeros((4, 4))
        masks = edit(schedule10, ZeroPredictor(), z_0, PromptId.SOURCE, PromptId.SOURCE, cfg).masks
        assert len(masks) == 10
        for m in masks[1:]:  # static source: identical mask at every step
            np.testing.assert_array_equal(m.values, masks[0].values)

    def test_time_varying_attention_source(self, schedule10):
        # a callable source receives the scheduled timestep and may vary
        seen = []

        def provider(t):
            seen.append(t)
            width = 1.0 + t / 500.0
            return synthetic_attention((4, 4), (1, 1), width)

        cfg = EditConfig(attention=provider, fixed_point=fp_cfg(2))
        z_0 = np.zeros((4, 4))
        masks = edit(schedule10, ZeroPredictor(), z_0, PromptId.SOURCE, PromptId.SOURCE, cfg).masks
        assert seen == [t for t, _ in schedule10.sampling_pairs()]
        assert not np.array_equal(masks[0].values, masks[-1].values)


class TestEditDegenerateIdentity:
    def test_bit_equal_to_reconstruction(self, schedule10):
        pred = AffinePredictor.random(12, seed=5)
        z_0 = np.random.default_rng(3).standard_normal(12)
        cfg = EditConfig(omega=1.0, omega_e=1.0, eta=0.0, fixed_point=fp_cfg(4))
        result = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.SOURCE, cfg)
        assert len(result.candidates) == 1
        np.testing.assert_array_equal(result.best, result.reconstruction)


class TestEditLinearOracle:
    def test_matches_matrix_recurrence(self, schedule10):
        # omega_e = omega = 1: the blended field is uniformly 1, so the edit
        # branch is plain sampling under the target weights; compose the
        # per-step affine maps independently and compare.
        dim = 10
        pred = AffinePredictor.random(dim, seed=8)
        z_0 = np.random.default_rng(4).standard_normal(dim)
        cfg = EditConfig(omega=1.0, omega_e=1.0, eta=0.0, fixed_point=fp_cfg(8))
        result = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)

        z, _ = invert_trajectory(schedule10, pred, z_0, PromptId.SOURCE, 1.0, fp_cfg(8))
        a = pred.weights[PromptId.TARGET]
        b = pred.biases[PromptId.TARGET]
        for t, t_prev in schedule10.sampling_pairs():
            m, v = affine_step_oracle(
                a, b, schedule10.alpha_bar[t], schedule10.alpha_bar[t_prev]
            )
            z = m @ z + v
        np.testing.assert_allclose(result.best, z, rtol=1e-10, atol=1e-12)


class TestMaskLocality:
    def test_binary_mask_confines_the_edit(self, schedule10):
        # diagonal shared weights keep pixels independent; biases differ
        # only inside the high-attention region, and M = 1e3 saturates the
        # mask to exactly {0, 1}.
        dim = 16
        a_diag = 0.05 * np.eye(dim)
        rng = np.random.default_rng(6)
        b_null = 0.1 * rng.standard_normal(dim)
        b_src = 0.1 * rng.standard_normal(dim)

        attn_values = np.zeros((1, dim))
        hot = [3, 4, 5]
        attn_values[0, hot] = 1.0
        amap = AttentionMap(attn_values)

        mask_cfg = MaskNormConfig(big_m=1e3, polarity=Polarity.POSITIVE)
        bump = np.zeros(dim)
        bump[hot] = 0.5
        b_tgt = b_src + bump

        pred = AffinePredictor(
            weights={p: a_diag for p in PromptId},
            biases={PromptId.NULL: b_null, PromptId.SOURCE: b_src, PromptId.TARGET: b_tgt},
            spectral_bound=0.05,
        )
        z_0 = rng.standard_normal(dim)
        cfg = EditConfig(
            omega=1.0, omega_e=3.0, eta=0.0, attention=amap, mask=mask_cfg,
            fixed_point=fp_cfg(8),
        )
        result = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)

        mask = result.masks[0].for_latent((dim,))
        assert set(np.unique(mask)) == {0.0, 1.0}  # saturated binary limit
        cold = mask == 0.0
        edited = result.best
        recon = result.reconstruction
        denom = np.abs(recon) + 1e-12
        rel = np.abs(edited - recon) / denom
        assert np.all(rel[cold] < 1e-6)
        assert np.all(rel[~cold] > 1e-3)

        # restated at the noise level: where the mask is 0 the blended
        # prediction equals the omega-guided one
        from diffinv import blended_scale_field, guided_epsilon

        field = blended_scale_field(mask, 1.0, 3.0)
        z = rng.standard_normal(dim)
        eps_blend = guided_epsilon(pred, z, PromptId.TARGET, field, 500)
        eps_guided = guided_epsilon(pred, z, PromptId.TARGET, 1.0, 500)
        np.testing.assert_array_equal(eps_blend[cold], eps_guided[cold])


class TestCandidates:
    def test_distinct_candidates_and_selection(self, schedule10):
        pred = AffinePredictor.random(12, seed=9)
        z_0 = np.random.default_rng(7).standard_normal(12)
        cfg = EditConfig(
            omega=1.0, omega_e=3.0, eta=0.1, n_candidates=4, seed=11, fixed_point=fp_cfg(4)
        )
        result = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
        assert len(result.candidates) == cfg.n_candidates
        assert len(result.scores) == cfg.n_candidates
        keys = {c.tobytes() for c in result.candidates}
        assert len(keys) == 4
        assert result.scores[result.best_index] == min(result.scores)
        assert result.scores[result.best_index] <= result.scores[0]

    def test_seeded_reproducibility(self, schedule10):
        pred = AffinePredictor.random(8, seed=2)
        z_0 = np.random.default_rng(8).standard_normal(8)
        cfg = EditConfig(omega=1.0, omega_e=2.0, eta=0.1, n_candidates=3, seed=4,
                         fixed_point=fp_cfg(3))
        a = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
        b = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
        for x, y in zip(a.candidates, b.candidates):
            np.testing.assert_array_equal(x, y)

    def test_inversion_runs_once_regardless_of_candidates(self, schedule10):
        pred = ContractivePredictor.default(16, seed=1)
        z_0 = np.random.default_rng(9).standard_normal(16)
        n, iters, steps = 5, 3, 10
        counter = CallCounter(pred)
        cfg = EditConfig(omega=1.0, omega_e=2.0, eta=0.1, n_candidates=n, seed=0,
                         fixed_point=fp_cfg(iters))
        result = edit(schedule10, counter, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
        invert_calls = 2 * steps * (iters + 1)
        recon_calls = 2 * steps
        candidate_calls = n * 2 * steps
        assert result.report.nfe == invert_calls
        assert counter.calls == invert_calls + recon_calls + candidate_calls

    def test_scorer_failure_reaches_caller(self, schedule10):
        def broken(candidate, reference):
            raise RuntimeError("no metric today")

        pred = AffinePredictor.random(8, seed=3)
        z_0 = np.random.default_rng(10).standard_normal(8)
        cfg = EditConfig(omega=1.0, omega_e=2.0, eta=0.1, n_candidates=3, seed=1,
                         fixed_point=fp_cfg(3), scorer=broken)
        with pytest.raises(RuntimeError, match="no metric today"):
            edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)

    def test_scores_csv(self, tmp_path, schedule10):
        pred = AffinePredictor.random(8, seed=3)
        z_0 = np.random.default_rng(11).standard_normal(8)
        cfg = EditConfig(omega=1.0, omega_e=2.0, eta=0.1, n_candidates=2, seed=1,
                         fixed_point=fp_cfg(3))
        result = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
        path = tmp_path / "scores.csv"
        write_scores_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "candidate,score,is_best"
        assert len(lines) == 3
        assert sum(line.endswith(",1") for line in lines[1:]) == 1


class TestDefaultScorer:
    def test_identical_is_zero(self):
        z = np.random.default_rng(0).standard_normal(6)
        assert default_scorer(z, z) == 0.0

    def test_shifted_reference_ratio(self):
        ref = np.array([3.0, 4.0])  # norm 5
        cand = ref + 1.0
        assert default_scorer(cand, ref) == pytest.approx(math.sqrt(2.0) / 5.0, rel=1e-12)

    def test_ranking_preserved(self):
        ref = np.zeros(4)
        cands = [np.full(4, d) for d in (0.1, 0.2, 0.3)]
        scores = [default_scorer(c, ref) for c in cands]
        assert scores == sorted(scores)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            default_scorer(np.zeros(3), np.zeros(4))


class TestEditConfigValidation:
    def test_rejects_bad_scales(self):
        with pytest.raises(ValueError, match="omega"):
            EditConfig(omega=3.0, omega_e=1.0)
        with pytest.raises(ValueError, match="omega"):
            EditConfig(omega=-1.0)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="n_candidates"):
            EditConfig(n_candidates=0)
        with pytest.raises(ValueError, match="eta"):
            EditConfig(eta=-0.1)
        with pytest.raises(ValueError, match="eta"):
            EditConfig(eta=float("inf"))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            EditConfig(seed=-1)
