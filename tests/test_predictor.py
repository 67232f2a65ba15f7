import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    CallCounter,
    ConstantPredictor,
    ContractivePredictor,
    PromptId,
    ZeroPredictor,
    guided_epsilon,
    load_predictor,
    spectral_norm,
)
from diffinv import predictor
from diffinv.fileio import save_tensor


def test_spectral_norm_against_svd():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = rng.standard_normal((12, 12))
        assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


class TestToyPredictors:
    def test_zero(self):
        z = np.random.default_rng(1).standard_normal((3, 4))
        out = ZeroPredictor().predict(z, PromptId.SOURCE, 10)
        assert out.shape == z.shape
        assert np.all(out == 0.0)

    def test_constant(self):
        z = np.zeros(5)
        out = ConstantPredictor(0.3).predict(z, PromptId.NULL, 1)
        assert np.all(out == 0.3)

    def test_deterministic_and_shape_preserving(self):
        pred = ContractivePredictor.default(12, seed=4)
        z = np.random.default_rng(2).standard_normal((3, 4))
        a = pred.predict(z, PromptId.SOURCE, 100)
        b = pred.predict(z, PromptId.SOURCE, 100)
        assert a.shape == z.shape
        np.testing.assert_array_equal(a, b)

    def test_affine_rejects_overdeclared_bound(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8))
        weights = {p: a for p in PromptId}
        biases = {p: np.zeros(8) for p in PromptId}
        with pytest.raises(ValueError, match="spectral bound"):
            AffinePredictor(weights, biases, spectral_bound=spectral_norm(a) * 0.5)

    def test_affine_rejects_bound_just_below_exact_norm(self):
        # a 256 x 256 Gaussian: a 200-step power iteration undershoots by
        # ~3e-5, far more than the constructor's 1e-8 tolerance
        a = np.random.default_rng(0).standard_normal((256, 256))
        weights = {p: a for p in PromptId}
        biases = {p: np.zeros(256) for p in PromptId}
        with pytest.raises(ValueError, match="spectral bound"):
            AffinePredictor(weights, biases, spectral_bound=np.linalg.norm(a, 2) * (1 - 1e-6))

    def test_affine_accepts_declared_bound(self):
        pred = AffinePredictor.random(8, seed=1)
        for p in PromptId:
            assert pred.lipschitz(p) <= pred.spectral_bound * (1 + 1e-8)

    def test_contractive_margin_enforced(self):
        rng = np.random.default_rng(5)
        big = rng.standard_normal((8, 8))
        big *= 20.0 / spectral_norm(big)
        with pytest.raises(ValueError, match="contraction margin"):
            ContractivePredictor(scale=1.0, weights={p: big for p in PromptId})

    def test_contractive_default_margin(self):
        pred = ContractivePredictor.default(16, seed=0)
        assert pred.lipschitz_bound < 0.9
        assert pred.lipschitz(PromptId.NULL) < pred.lipschitz(PromptId.SOURCE)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("factory", [ContractivePredictor.default, AffinePredictor.random])
    def test_lipschitz_spot_checks(self, factory, seed):
        # finite-difference bound: |eps(z1) - eps(z2)| <= L |z1 - z2|
        pred = factory(10, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for prompt in PromptId:
            lip = pred.lipschitz(prompt)
            for _ in range(20):
                z1 = rng.standard_normal(10)
                z2 = z1 + 1e-4 * rng.standard_normal(10)
                dz = np.linalg.norm(z1 - z2)
                de = np.linalg.norm(
                    pred.predict(z1, prompt, 1) - pred.predict(z2, prompt, 1)
                )
                assert de <= lip * dz * (1 + 1e-9)

    def test_dimension_mismatch_raises(self):
        pred = ContractivePredictor.default(8, seed=0)
        with pytest.raises(ValueError, match="expects 8"):
            pred.predict(np.zeros(9), PromptId.SOURCE, 1)


class TestGuidedEpsilon:
    def test_omega_one_is_conditional(self):
        pred = ContractivePredictor.default(8, seed=1)
        z = np.random.default_rng(0).standard_normal(8)
        out = guided_epsilon(pred, z, PromptId.SOURCE, 1.0, 10)
        np.testing.assert_array_equal(out, pred.predict(z, PromptId.SOURCE, 10))

    def test_omega_zero_is_null(self):
        pred = ContractivePredictor.default(8, seed=1)
        z = np.random.default_rng(0).standard_normal(8)
        out = guided_epsilon(pred, z, PromptId.SOURCE, 0.0, 10)
        np.testing.assert_array_equal(out, pred.predict(z, PromptId.NULL, 10))

    def test_zero_predictor_any_omega(self):
        z = np.ones(6)
        out = guided_epsilon(ZeroPredictor(), z, PromptId.TARGET, 3.7, 5)
        assert np.all(out == 0.0)

    def test_rejects_null_conditioning(self):
        with pytest.raises(ValueError, match="null"):
            guided_epsilon(ZeroPredictor(), np.zeros(2), PromptId.NULL, 1.0, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_affine_in_omega_collinearity(self, seed):
        # out(w) = eps_null + w * (eps_cond - eps_null): three points are collinear
        pred = ContractivePredictor.default(8, seed=seed)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(8)
        w1, w2, w3 = sorted(rng.uniform(-2, 8, size=3))
        o1 = guided_epsilon(pred, z, PromptId.SOURCE, w1, 3)
        o2 = guided_epsilon(pred, z, PromptId.SOURCE, w2, 3)
        o3 = guided_epsilon(pred, z, PromptId.SOURCE, w3, 3)
        if w3 - w1 > 1e-9:
            lam = (w2 - w1) / (w3 - w1)
            np.testing.assert_allclose(o2, (1 - lam) * o1 + lam * o3, atol=1e-12)


class TestBlendedEpsilon:
    def test_uniform_field_equals_scalar_guidance(self):
        pred = ContractivePredictor.default(8, seed=2)
        z = np.random.default_rng(1).standard_normal(8)
        field = np.full(8, 2.5)
        a = guided_epsilon(pred, z, PromptId.SOURCE, field, 7)
        b = guided_epsilon(pred, z, PromptId.SOURCE, 2.5, 7)
        np.testing.assert_array_equal(a, b)

    def test_field_of_ones_is_conditional(self):
        pred = ContractivePredictor.default(8, seed=2)
        z = np.random.default_rng(1).standard_normal(8)
        out = guided_epsilon(pred, z, PromptId.SOURCE, np.ones(8), 7)
        np.testing.assert_array_equal(out, pred.predict(z, PromptId.SOURCE, 7))

    def test_constant_predictor_any_field(self):
        z = np.zeros((2, 3))
        field = np.array([[0.0, 0.5, 1.0], [7.0, -1.0, 2.0]])
        out = guided_epsilon(ConstantPredictor(0.3), z, PromptId.TARGET, field, 1)
        np.testing.assert_allclose(out, 0.3, atol=1e-15)

    def test_rejects_non_broadcastable_field(self):
        pred = ConstantPredictor(1.0)
        with pytest.raises(ValueError, match="broadcast"):
            guided_epsilon(pred, np.zeros((2, 3)), PromptId.SOURCE, np.zeros(4), 1)


class TestCallCounter:
    def test_counts_delegated_calls(self):
        counter = CallCounter(ZeroPredictor())
        z = np.zeros(3)
        for _ in range(4):
            counter.predict(z, PromptId.NULL, 1)
        assert counter.calls == 4
        guided_epsilon(counter, z, PromptId.SOURCE, 1.0, 1)
        assert counter.calls == 6  # conditional + null


WEIGHT_LINES = {
    prefix: [f"{prefix}_{p.value} = {prefix}_{p.value}.txt" for p in PromptId]
    for prefix in ("w", "a")
}


class TestLoadPredictor:
    def test_zero_and_constant(self, tmp_path):
        spec = tmp_path / "p.cfg"
        spec.write_text("kind = zero\n")
        assert isinstance(load_predictor(spec), ZeroPredictor)
        spec.write_text("kind = constant\nvalue = 0.25\n")
        pred = load_predictor(spec)
        assert isinstance(pred, ConstantPredictor)
        assert pred.value == 0.25

    def test_contractive_from_seed_is_reproducible(self, tmp_path):
        spec = tmp_path / "p.cfg"
        spec.write_text("kind = contractive\ndim = 8\nseed = 3\nscale = 0.1\n")
        a = load_predictor(spec)
        b = load_predictor(spec)
        z = np.random.default_rng(0).standard_normal(8)
        np.testing.assert_array_equal(
            a.predict(z, PromptId.SOURCE, 1), b.predict(z, PromptId.SOURCE, 1)
        )

    def test_contractive_from_weight_files(self, tmp_path):
        rng = np.random.default_rng(9)
        weights = {}
        lines = ["kind = contractive", "scale = 0.05"]
        for p in PromptId:
            w = rng.standard_normal((6, 6))
            w *= 0.5 / spectral_norm(w)
            weights[p] = w
            save_tensor(tmp_path / f"w_{p.value}.txt", w)
            lines.append(f"w_{p.value} = w_{p.value}.txt")
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(lines) + "\n")
        pred = load_predictor(spec)
        z = np.random.default_rng(1).standard_normal(6)
        expected = 0.05 * np.tanh(weights[PromptId.SOURCE] @ z)
        np.testing.assert_allclose(pred.predict(z, PromptId.SOURCE, 1), expected, rtol=1e-12)

    def test_rejects_unknown_kind_and_partial_weights(self, tmp_path):
        spec = tmp_path / "p.cfg"
        spec.write_text("kind = mystery\n")
        with pytest.raises(ValueError, match="unknown predictor kind"):
            load_predictor(spec)
        save_tensor(tmp_path / "w.txt", np.eye(3))
        spec.write_text("kind = contractive\nw_null = w.txt\n")
        with pytest.raises(ValueError, match="all of"):
            load_predictor(spec)

    @pytest.mark.parametrize("kind", ["contractive", "affine"])
    @pytest.mark.parametrize("norm", ["-50", "nan", "inf"])
    def test_generated_weights_reject_bad_norms(self, tmp_path, kind, norm):
        # A generated matrix scaled by -50 has spectral norm 50; storing -50
        # would let it pass the contraction-margin and affine bound checks.
        spec = tmp_path / "p.cfg"
        spec.write_text(f"kind = {kind}\ndim = 8\nnorm_source = {norm}\nnorm_target = {norm}\n")
        with pytest.raises(ValueError, match="finite and >= 0"):
            load_predictor(spec)

    @pytest.mark.parametrize(
        "lines, unread",
        [
            (["kind = affine", "dim = 8", "bound = 0.01", "b_source = nope.txt"],
             "b_source, bound"),
            (["kind = zero", "dim = 8"], "dim"),
            (["kind = constant", "value = 1", "steed = 2"], "steed"),
            (["kind = contractive", "dim = 8", "bias_scale = 0.2"], "bias_scale"),
            (["kind = affine", "dim = 8", "scale = 0.1"], "scale"),
            (["kind = contractive", "seed = 1", "norm_null = 0.1", *WEIGHT_LINES["w"]],
             "norm_null, seed"),
            (["kind = affine", "dim = 8", "bias_scale = 0.2", *WEIGHT_LINES["a"]],
             "bias_scale, dim"),
        ],
    )
    def test_rejects_keys_the_kind_does_not_read(self, tmp_path, lines, unread):
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"does not read: {unread}$"):
            load_predictor(spec)

    def test_explicit_affine_reads_bound_and_biases(self, tmp_path):
        for p in PromptId:
            save_tensor(tmp_path / f"a_{p.value}.txt", 0.01 * np.eye(4))
        save_tensor(tmp_path / "b_source.txt", np.ones(4))
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(["kind = affine", "bound = 0.02", "b_source = b_source.txt",
                                   *WEIGHT_LINES["a"]]) + "\n")
        pred = load_predictor(spec)
        assert pred.spectral_bound == 0.02
        np.testing.assert_array_equal(pred.predict(np.zeros(4), PromptId.SOURCE, 1), np.ones(4))

    def test_random_rejects_negative_norm(self):
        norms = {PromptId.NULL: 0.02, PromptId.SOURCE: -50.0, PromptId.TARGET: 0.05}
        with pytest.raises(ValueError, match="finite and >= 0"):
            AffinePredictor.random(8, norms=norms)


class TestMeasureOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of `spectral_norm` and of the generator's power-iteration normalizer."""
        counts = {"spectral_norm": 0, "_power_norm": 0}
        for name in counts:
            inner = getattr(predictor, name)

            def counted(m, _inner=inner, _name=name):
                counts[_name] += 1
                return _inner(m)

            monkeypatch.setattr(predictor, name, counted)
        return counts

    @pytest.mark.parametrize("factory", [ContractivePredictor.default, AffinePredictor.random])
    def test_generated_weights_are_normalized_once_and_not_measured(self, calls, factory):
        pred = factory(64)
        assert calls == {"spectral_norm": 0, "_power_norm": 3}
        for p in PromptId:
            pred.lipschitz(p)
        assert calls == {"spectral_norm": 0, "_power_norm": 3}

    def test_explicit_weights_are_measured_once(self, calls):
        rng = np.random.default_rng(6)
        weights = {p: 0.1 * rng.standard_normal((8, 8)) / np.sqrt(8) for p in PromptId}
        pred = ContractivePredictor(0.1, weights)
        assert calls == {"spectral_norm": 3, "_power_norm": 0}
        for p in PromptId:
            assert pred.lipschitz(p) == pytest.approx(0.1 * np.linalg.norm(weights[p], 2))
        assert calls == {"spectral_norm": 3, "_power_norm": 0}


class TestCallerArrays:
    """A predictor copies the arrays a caller passes in before freezing them."""

    def test_contractive_leaves_caller_weights_writable(self):
        w = 0.1 * np.eye(4)
        pred = ContractivePredictor(0.1, {p: w for p in PromptId})
        z = np.ones(4)
        before = pred.predict(z, PromptId.SOURCE, 1)
        w[0, 0] = 1.0
        np.testing.assert_array_equal(pred.predict(z, PromptId.SOURCE, 1), before)

    def test_affine_leaves_caller_weights_and_biases_writable(self):
        w, b = 0.1 * np.eye(4), np.zeros(4)
        pred = AffinePredictor({p: w for p in PromptId}, {p: b for p in PromptId}, 0.1)
        z = np.ones(4)
        before = pred.predict(z, PromptId.SOURCE, 1)
        w[0, 0] = 1.0
        b[0] = 1.0
        np.testing.assert_array_equal(pred.predict(z, PromptId.SOURCE, 1), before)
