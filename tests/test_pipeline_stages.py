"""The shared pipeline stages: the invert/resample round trip and candidate sampling."""

import numpy as np
import pytest

from diffinv import (
    CallCounter,
    ContractivePredictor,
    EditConfig,
    FixedPointConfig,
    PromptId,
    blended_scale_field,
    edit,
    invert_trajectory,
    relative_l2,
    round_trip,
    sample_trajectory,
    synthetic_attention,
)
from diffinv import editing


class TestRoundTrip:
    def test_bit_identical_to_invert_then_resample(self, schedule10):
        pred = ContractivePredictor.default(16, seed=2)
        z_0 = np.random.default_rng(12).standard_normal(16)
        cfg = FixedPointConfig(iters=4)
        z_t, z_rec, report = round_trip(schedule10, pred, z_0, PromptId.SOURCE, 3.0, cfg)

        ref_t, ref_report = invert_trajectory(schedule10, pred, z_0, PromptId.SOURCE, 3.0, cfg)
        ref_rec = sample_trajectory(schedule10, pred, ref_t, PromptId.SOURCE, 3.0)[-1]
        np.testing.assert_array_equal(z_t, ref_t)
        np.testing.assert_array_equal(z_rec, ref_rec)
        assert report.step_traces == ref_report.step_traces
        assert report.nfe == ref_report.nfe
        assert report.round_trip_l2 == relative_l2(ref_rec, z_0)


class TestDeterministicCandidates:
    def test_eta_zero_samples_one_trajectory(self, schedule10):
        pred = ContractivePredictor.default(16, seed=1)
        z_0 = np.random.default_rng(14).standard_normal(16)
        iters, steps = 3, 10
        fixed_point = FixedPointConfig(iters=iters)
        counter = CallCounter(pred)
        cfg = EditConfig(omega=1.0, omega_e=4.0, eta=0.0, n_candidates=4, seed=5,
                         fixed_point=fixed_point)
        result = edit(schedule10, counter, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
        invert_calls = 2 * steps * (iters + 1)
        assert counter.calls == invert_calls + 2 * steps + 2 * steps

        single = edit(
            schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET,
            EditConfig(omega=1.0, omega_e=4.0, eta=0.0, n_candidates=1, seed=5,
                       fixed_point=fixed_point),
        )
        assert len(result.candidates) == 4
        for candidate in result.candidates:
            np.testing.assert_array_equal(candidate, single.best)

    def test_candidates_are_independent_arrays(self, schedule10):
        pred = ContractivePredictor.default(16, seed=1)
        z_0 = np.random.default_rng(15).standard_normal(16)
        cfg = EditConfig(eta=0.0, n_candidates=4, fixed_point=FixedPointConfig(iters=2))
        result = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)
        before = result.candidates[1].copy()
        result.candidates[0][...] = 0.0
        np.testing.assert_array_equal(result.candidates[1], before)


class TestStochasticCandidates:
    def test_candidate_k_uses_spawned_stream_k(self, schedule10):
        # Pins the per-candidate random streams: candidate k samples with a
        # generator seeded from SeedSequence(seed).spawn(n_candidates)[k].
        pred = ContractivePredictor.default(16, seed=1)
        z_0 = np.random.default_rng(16).standard_normal((4, 4))
        cfg = EditConfig(omega=1.0, omega_e=3.0, eta=0.2, n_candidates=3, seed=9,
                         fixed_point=FixedPointConfig(iters=3))
        result = edit(schedule10, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)

        z_t, _ = invert_trajectory(
            schedule10, pred, z_0, PromptId.SOURCE, cfg.omega, cfg.fixed_point
        )
        mask = result.mask.for_latent(z_0.shape)
        field = blended_scale_field(mask, cfg.omega, cfg.omega_e)
        seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_candidates)
        for k, seed in enumerate(seeds):
            expected = sample_trajectory(
                schedule10, pred, z_t, PromptId.TARGET, field,
                eta=cfg.eta, mask=mask,
                rng=np.random.default_rng(seed),
            )[-1]
            np.testing.assert_array_equal(result.candidates[k], expected)


class TestStepMasks:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of each mask stage: masking, resampling and blending."""
        counts = {"soft_mask": 0, "for_latent": 0, "blended_scale_field": 0}

        def counted(name, inner):
            def wrapper(*args):
                counts[name] += 1
                return inner(*args)
            return wrapper

        monkeypatch.setattr(editing, "soft_mask", counted("soft_mask", editing.soft_mask))
        monkeypatch.setattr(editing, "blended_scale_field",
                            counted("blended_scale_field", editing.blended_scale_field))
        monkeypatch.setattr(editing.SoftMask, "for_latent",
                            counted("for_latent", editing.SoftMask.for_latent))
        return counts

    def run_edit(self, schedule, attention):
        pred = ContractivePredictor.default(16, seed=3)
        z_0 = np.random.default_rng(17).standard_normal((4, 4))
        cfg = EditConfig(omega_e=3.0, attention=attention, fixed_point=FixedPointConfig(iters=2))
        return edit(schedule, pred, z_0, PromptId.SOURCE, PromptId.TARGET, cfg)

    def test_static_map_is_processed_once(self, schedule10, calls):
        result = self.run_edit(schedule10, synthetic_attention((4, 4), blob_sigma=1.0))
        assert calls == {"soft_mask": 1, "for_latent": 1, "blended_scale_field": 1}
