import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    CallCounter,
    ConstantPredictor,
    ContractivePredictor,
    PromptId,
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
        out = ConstantPredictor(0.0).predict(z, PromptId.SOURCE, 10)
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

    def test_contractive_margin_enforced(self):
        rng = np.random.default_rng(5)
        big = rng.standard_normal((8, 8))
        big *= 20.0 / spectral_norm(big)
        with pytest.raises(ValueError, match="contraction margin"):
            ContractivePredictor(scale=1.0, weights={p: big for p in PromptId})

    def test_contractive_default_margin(self):
        pred = ContractivePredictor.default(16, seed=0)
        assert pred.scale * max(pred.weights.norms.values()) < 0.9
        assert pred.weights.norms[PromptId.NULL] < pred.weights.norms[PromptId.SOURCE]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("factory", [ContractivePredictor.default, AffinePredictor.random])
    def test_lipschitz_spot_checks(self, factory, seed):
        # finite-difference bound: |eps(z1) - eps(z2)| <= L |z1 - z2|
        pred = factory(10, seed=seed)
        rng = np.random.default_rng(seed + 100)
        for prompt in PromptId:
            lip = getattr(pred, "scale", 1.0) * pred.weights.norms[prompt]
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
        out = guided_epsilon(ConstantPredictor(0.0), z, PromptId.TARGET, 3.7, 5)
        assert np.all(out == 0.0)

    def test_rejects_null_conditioning(self):
        with pytest.raises(ValueError, match="null"):
            guided_epsilon(ConstantPredictor(0.0), np.zeros(2), PromptId.NULL, 1.0, 1)

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
        counter = CallCounter(ConstantPredictor(0.0))
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
        spec.write_text("kind = constant\nvalue = 0\n")
        pred = load_predictor(spec)
        assert isinstance(pred, ConstantPredictor)
        assert pred.value == 0.0
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
            (["kind = constant", "value = 0", "dim = 8"], "dim"),
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

    def test_explicit_affine_reads_biases(self, tmp_path):
        for p in PromptId:
            save_tensor(tmp_path / f"a_{p.value}.txt", 0.01 * np.eye(4))
        save_tensor(tmp_path / "b_source.txt", np.ones(4))
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(["kind = affine", "b_source = b_source.txt",
                                   *WEIGHT_LINES["a"]]) + "\n")
        pred = load_predictor(spec)
        np.testing.assert_array_equal(pred.predict(np.zeros(4), PromptId.SOURCE, 1), np.ones(4))

    @pytest.mark.parametrize("kind, prefix", [("contractive", "w"), ("affine", "a")])
    def test_non_finite_weight_file_names_the_prompt(self, tmp_path, kind, prefix):
        for p in PromptId:
            w = 0.01 * np.eye(4)
            if p is PromptId.SOURCE:
                w[1, 2] = np.nan
            save_tensor(tmp_path / f"{prefix}_{p.value}.txt", w)
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join([f"kind = {kind}", *WEIGHT_LINES[prefix]]) + "\n")
        with pytest.raises(ValueError, match="prompt source contain non-finite"):
            load_predictor(spec)

    def test_non_finite_bias_names_the_prompt(self, tmp_path):
        for p in PromptId:
            save_tensor(tmp_path / f"a_{p.value}.txt", 0.01 * np.eye(4))
        save_tensor(tmp_path / "b_target.txt", np.array([0.0, np.inf, 0.0, 0.0]))
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(["kind = affine", "b_target = b_target.txt",
                                   *WEIGHT_LINES["a"]]) + "\n")
        with pytest.raises(ValueError, match="bias for prompt target contains non-finite"):
            load_predictor(spec)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["kind = contractive", "dim = 0"], "dim must be >= 1, got 0"),
            (["kind = contractive", "dim = -3"], "dim must be >= 1, got -3"),
            (["kind = affine", "dim = 0"], "dim must be >= 1, got 0"),
            (["kind = affine", "dim = -3"], "dim must be >= 1, got -3"),
            (["kind = contractive", "dim = 8", "scale = nan"], "scale must be finite and > 0"),
            (["kind = contractive", "dim = 8", "scale = inf"], "scale must be finite and > 0"),
            (["kind = contractive", "dim = 8", "scale = 0"], "scale must be finite and > 0"),
            (["kind = constant", "value = nan"], "value must be finite"),
            (["kind = constant", "value = inf"], "value must be finite"),
            (["kind = constant", "value = -inf"], "value must be finite"),
            (["kind = affine", "dim = 8", "bias_scale = nan"], "bias_scale must be finite"),
            (["kind = affine", "dim = 8", "bias_scale = -inf"], "bias_scale must be finite"),
        ],
    )
    def test_out_of_range_scalar_names_its_key(self, tmp_path, lines, message):
        for p in PromptId:
            save_tensor(tmp_path / f"a_{p.value}.txt", 0.01 * np.eye(4))
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            load_predictor(spec)
        assert str(info.value).startswith(f"{spec}: ")

    @pytest.mark.parametrize(
        "lines, key",
        [
            (["kind = contractive", "dim = 8.5"], "dim"),
            (["kind = affine", "dim = 8", "seed = -1"], "seed"),
            (["kind = contractive", "dim = 8", "norm_source = abc"], "norm_source"),
            (["kind = constant", "value = abc"], "value"),
            (["kind = contractive", "dim = 8", "scale = x"], "scale"),
            (["kind = affine", "dim = 8", "bias_scale = 1,5"], "bias_scale"),
        ],
    )
    def test_malformed_number_names_file_and_key(self, tmp_path, lines, key):
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            load_predictor(spec)
        assert str(info.value).startswith(f"{spec}: {key}: ")

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
            pred.weights.norms[p]
        assert calls == {"spectral_norm": 0, "_power_norm": 3}

    def test_explicit_weights_are_measured_once(self, calls):
        rng = np.random.default_rng(6)
        weights = {p: 0.1 * rng.standard_normal((8, 8)) / np.sqrt(8) for p in PromptId}
        pred = ContractivePredictor(0.1, weights)
        assert calls == {"spectral_norm": 3, "_power_norm": 0}
        for p in PromptId:
            assert pred.scale * pred.weights.norms[p] == pytest.approx(
                0.1 * np.linalg.norm(weights[p], 2)
            )
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
        pred = AffinePredictor({p: w for p in PromptId}, {p: b for p in PromptId})
        z = np.ones(4)
        before = pred.predict(z, PromptId.SOURCE, 1)
        w[0, 0] = 1.0
        b[0] = 1.0
        np.testing.assert_array_equal(pred.predict(z, PromptId.SOURCE, 1), before)
