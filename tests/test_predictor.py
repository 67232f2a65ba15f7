import numpy as np
import pytest

from diffinv import (
    AffinePredictor,
    CallCounter,
    ConstantPredictor,
    ContractivePredictor,
    NumericsError,
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


def test_spectral_norm_rejects_a_vector():
    with pytest.raises(ValueError, match="expects a 2-D matrix"):
        spectral_norm(np.ones(4))


@pytest.mark.parametrize(
    ("matrix", "message"),
    [
        ([[1.0, np.nan], [0.0, 1.0]], "^matrix contains non-finite entries$"),
        ([[1.0, np.inf], [0.0, 1.0]], "^matrix contains non-finite entries$"),
        ([[True, False], [False, True]], "^matrix must hold real numbers, got dtype bool$"),
        ([["1", "0"], ["0", "1"]], "^matrix must hold real numbers, got dtype <U"),
    ],
)
def test_spectral_norm_rejects_non_real_entries_by_name(matrix, message):
    with pytest.raises(ValueError, match=message):
        spectral_norm(np.array(matrix))


EYE_WEIGHTS = {p: 0.1 * np.eye(4) for p in PromptId}
ZERO_BIASES = {p: np.zeros(4) for p in PromptId}


class TestWeightSetValidation:
    @pytest.mark.parametrize(
        "weights, message",
        [
            ({p: EYE_WEIGHTS[p] for p in (PromptId.NULL, PromptId.SOURCE)},
             "missing weights for prompt target"),
            ({**EYE_WEIGHTS, PromptId.SOURCE: np.zeros((4, 3))}, "weights must be square matrices"),
            ({**EYE_WEIGHTS, PromptId.SOURCE: np.zeros(4)}, "weights must be square matrices"),
            ({**EYE_WEIGHTS, PromptId.TARGET: 0.1 * np.eye(5)},
             "all prompts must share one latent dimension"),
            ({**EYE_WEIGHTS, PromptId.SOURCE: [[True, False], [False, True]]},
             "^weights for prompt source must hold real numbers, got dtype bool$"),
        ],
    )
    @pytest.mark.parametrize("build", [
        lambda w: ContractivePredictor(0.1, w),
        lambda w: AffinePredictor(w, ZERO_BIASES),
    ])
    def test_rejects_malformed_weights(self, build, weights, message):
        with pytest.raises(ValueError, match=message):
            build(weights)

    @pytest.mark.parametrize("norms, missing", [
        ({PromptId.NULL: 0.1}, "source"),
        ({PromptId.NULL: 0.1, PromptId.SOURCE: 0.1}, "target"),
    ])
    def test_generated_weights_refuse_a_missing_norm_by_prompt(self, norms, missing):
        with pytest.raises(ValueError, match=f"^missing norm for prompt {missing}$"):
            AffinePredictor.random(8, 0, norms=norms)

    @pytest.mark.parametrize(
        "biases, message",
        [
            ({PromptId.NULL: np.zeros(4), PromptId.TARGET: np.zeros(4)},
             "missing bias for prompt source"),
            ({**ZERO_BIASES, PromptId.NULL: np.zeros(3)},
             "bias length must match the weight matrix size"),
            ({**ZERO_BIASES, PromptId.TARGET: np.zeros((4, 1))},
             "bias length must match the weight matrix size"),
            ({**ZERO_BIASES, PromptId.TARGET: ["0.5"] * 4},
             "^bias for prompt target must hold real numbers, got dtype <U3$"),
        ],
    )
    def test_affine_rejects_malformed_biases(self, biases, message):
        with pytest.raises(ValueError, match=message):
            AffinePredictor(EYE_WEIGHTS, biases)


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

    @pytest.mark.parametrize("dim", [2.5, True])
    @pytest.mark.parametrize("factory", [ContractivePredictor.default, AffinePredictor.random])
    def test_generators_reject_a_non_integer_dim(self, factory, dim):
        with pytest.raises(ValueError, match=f"dim must be an integer, got {dim}"):
            factory(dim, 0)

    @pytest.mark.parametrize("seed, message", [(2.5, "must be an integer"), (-1, "must be >= 0")])
    @pytest.mark.parametrize("factory", [ContractivePredictor.default, AffinePredictor.random])
    def test_generators_reject_a_bad_seed(self, factory, seed, message):
        with pytest.raises(ValueError, match=f"^seed {message}, got {seed}$"):
            factory(8, seed=seed)

    @pytest.mark.parametrize("value", [True, "0.3", None])
    def test_constant_rejects_a_non_number(self, value):
        with pytest.raises(ValueError, match=f"^value must be a real number, got {value!r}$"):
            ConstantPredictor(value)

    def test_generating_holds_only_the_weights(self, traced_peak):
        pred, peak = traced_peak(lambda: ContractivePredictor.default(256, 0))
        assert peak <= 1.1 * sum(w.nbytes for w in pred.weights.values())

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

    @pytest.mark.parametrize("cond", ["source", "target", 1, None])
    def test_rejects_a_prompt_that_is_not_a_prompt_id_before_any_call(self, cond):
        counter = CallCounter(ConstantPredictor(0.0))
        with pytest.raises(ValueError, match="^cond must be a PromptId, got "):
            guided_epsilon(counter, np.zeros(2), cond, 1.0, 1)
        assert counter.calls == 0

    def test_rejects_predictions_of_different_shapes(self):
        class Ragged(predictor.NoisePredictor):
            def predict(self, z, prompt, t):
                return np.zeros(3 if prompt is PromptId.NULL else 2)

        with pytest.raises(
            ValueError, match=r"^eps shape \(3,\) does not match latent shape \(2,\)$"
        ):
            guided_epsilon(Ragged(), np.zeros(2), PromptId.SOURCE, 1.0, 1)

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


    @pytest.mark.parametrize(
        ("field", "message"),
        [
            ([True, False, True, False], "^omega must hold real numbers, got dtype bool$"),
            (["1", "2", "1", "2"], "^omega must hold real numbers, got dtype <U"),
            ([1.0, np.nan, 1.0, 1.0], "^omega contains non-finite entries$"),
            ([1.0, np.inf, 1.0, 1.0], "^omega contains non-finite entries$"),
        ],
    )
    def test_rejects_a_non_real_field_by_name(self, field, message):
        counter = CallCounter(ContractivePredictor.default(4, seed=0))
        with pytest.raises(ValueError, match=message):
            guided_epsilon(counter, np.zeros(4), PromptId.SOURCE, np.array(field), 1)
        assert counter.calls == 0


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

    def test_a_list_field_guides_as_its_array(self):
        pred = ContractivePredictor.default(4, seed=2)
        z = np.random.default_rng(1).standard_normal((2, 2))
        field = [1.0, 7.0]  # broadcasts along the rows of the 2 x 2 latent
        np.testing.assert_array_equal(
            guided_epsilon(pred, z, PromptId.SOURCE, field, 7),
            guided_epsilon(pred, z, PromptId.SOURCE, np.array(field), 7),
        )

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

    def test_a_pair_counts_two_and_is_forwarded(self):
        inner = ContractivePredictor.default(8, seed=1)
        counter = CallCounter(inner)
        z = np.random.default_rng(0).standard_normal(8)
        for n in (1, 2, 3):
            pair = counter.predict_pair(z, PromptId.TARGET, 4)
            assert counter.calls == 2 * n
        for got, want in zip(pair, inner.predict_pair(z, PromptId.TARGET, 4)):
            np.testing.assert_array_equal(got, want)


def _explicit_contractive(dim, seed):
    """A contractive predictor from explicit weights, each scaled to norm 0.4."""
    rng = np.random.default_rng(seed)
    weights = {}
    for p in PromptId:
        w = rng.standard_normal((dim, dim))
        weights[p] = w * (0.4 / spectral_norm(w))
    return ContractivePredictor(0.1, weights)


PAIR_PREDICTORS = {
    "contractive": lambda dim: ContractivePredictor.default(dim, seed=dim),
    "contractive-explicit": lambda dim: _explicit_contractive(dim, seed=dim),
    "affine": lambda dim: AffinePredictor.random(dim, seed=dim),
    "constant": lambda dim: ConstantPredictor(0.25),
}
PAIR_SHAPES = [(1,), (3,), (7,), (8,), (63,), (64,), (65,), (256,), (16, 16)]


def _reference(pred, z, prompt):
    """The prediction as `W @ flat` writes it, computed apart from the predictor's own code."""
    flat = z.reshape(-1)
    if isinstance(pred, ContractivePredictor):
        return (pred.scale * np.tanh(pred.weights[prompt] @ flat)).reshape(z.shape)
    if isinstance(pred, AffinePredictor):
        return (pred.weights[prompt] @ flat + pred.biases[prompt]).reshape(z.shape)
    return np.full(z.shape, pred.value)


class TestPredictPair:
    """`predict_pair` is bit for bit the two `predict` calls it replaces."""

    @pytest.mark.parametrize("shape", PAIR_SHAPES, ids=str)
    @pytest.mark.parametrize("kind", PAIR_PREDICTORS)
    def test_pair_is_the_two_predictions_exactly(self, kind, shape):
        pred = PAIR_PREDICTORS[kind](int(np.prod(shape)))
        z = np.random.default_rng(len(shape)).standard_normal(shape)
        for cond in (PromptId.SOURCE, PromptId.TARGET):
            eps_cond, eps_null = pred.predict_pair(z, cond, 5)
            np.testing.assert_array_equal(eps_cond, pred.predict(z, cond, 5), strict=True)
            np.testing.assert_array_equal(eps_null, pred.predict(z, PromptId.NULL, 5), strict=True)

    @pytest.mark.parametrize("shape", PAIR_SHAPES, ids=str)
    @pytest.mark.parametrize("kind", PAIR_PREDICTORS)
    def test_predict_is_the_matmul_formula_exactly(self, kind, shape):
        pred = PAIR_PREDICTORS[kind](int(np.prod(shape)))
        z = np.random.default_rng(len(shape)).standard_normal(shape)
        for prompt in PromptId:
            np.testing.assert_array_equal(
                pred.predict(z, prompt, 5), _reference(pred, z, prompt), strict=True
            )

    def test_pair_of_a_strided_latent(self):
        pred = ContractivePredictor.default(64, seed=3)
        z = np.random.default_rng(0).standard_normal((8, 16))[:, ::2]
        eps_cond, eps_null = pred.predict_pair(z, PromptId.SOURCE, 5)
        np.testing.assert_array_equal(eps_cond, _reference(pred, z, PromptId.SOURCE), strict=True)
        np.testing.assert_array_equal(eps_null, _reference(pred, z, PromptId.NULL), strict=True)

    def test_pair_checks_the_latent_size(self):
        with pytest.raises(ValueError, match="^latent has 9 elements, predictor expects 8$"):
            ContractivePredictor.default(8, seed=0).predict_pair(np.zeros(9), PromptId.SOURCE, 1)

    def test_a_predictor_with_only_predict_guides_through_the_default_pair(self):
        inner = ContractivePredictor.default(16, seed=4)
        seen = []

        class OnlyPredict(predictor.NoisePredictor):
            def predict(self, z, prompt, t):
                seen.append(prompt)
                return inner.predict(z, prompt, t)

        z = np.random.default_rng(2).standard_normal(16)
        out = guided_epsilon(OnlyPredict(), z, PromptId.TARGET, 2.5, 9)
        assert seen == [PromptId.TARGET, PromptId.NULL]
        np.testing.assert_array_equal(out, guided_epsilon(inner, z, PromptId.TARGET, 2.5, 9))

    @pytest.mark.parametrize("base, make", [
        (ContractivePredictor, lambda cls: cls.default(16, seed=1)),
        (AffinePredictor, lambda cls: cls.random(16, seed=1)),
    ], ids=["contractive", "affine"])
    def test_a_subclass_that_redefines_predict_alone_guides_through_it(self, base, make):
        class Shifted(base):
            def predict(self, z, prompt, t):
                return super().predict(z, prompt, t) + t

        plain, shifted = make(base), make(Shifted)
        z = np.random.default_rng(5).standard_normal(16)
        eps_cond, eps_null = shifted.predict_pair(z, PromptId.SOURCE, 7)
        np.testing.assert_array_equal(eps_cond, plain.predict(z, PromptId.SOURCE, 7) + 7)
        np.testing.assert_array_equal(eps_null, plain.predict(z, PromptId.NULL, 7) + 7)

    def test_a_ragged_pair_is_refused(self):
        class RaggedPair(predictor.NoisePredictor):
            def predict(self, z, prompt, t):
                return np.zeros_like(z)

            def predict_pair(self, z, cond, t):
                return np.zeros_like(z), np.zeros(5)

        with pytest.raises(
            ValueError, match=r"^eps shape \(5,\) does not match latent shape \(2, 2\)$"
        ):
            guided_epsilon(RaggedPair(), np.zeros((2, 2)), PromptId.SOURCE, 1.0, 1)


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
        with pytest.raises(ValueError, match=": kind must be one of .*; got 'mystery'$"):
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
        with pytest.raises(ValueError, match="prompt source contains non-finite"):
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
            (["kind = affine", "dim = 8", "seed = -1"], "seed must be >= 0, got -1"),
            (["kind = contractive", "dim = 8", "norm_source = -1"],
             "norm_source must be finite and >= 0"),
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

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["dim = 8"], ": kind must be one of .*; got None$"),
            (["kind = constant"], "constant predictor needs 'value'"),
        ],
    )
    def test_incomplete_spec_names_the_file(self, tmp_path, lines, message):
        spec = tmp_path / "p.cfg"
        spec.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message) as info:
            load_predictor(spec)
        assert str(info.value).startswith(f"{spec}: ")

    def test_random_rejects_negative_norm(self):
        norms = {PromptId.NULL: 0.02, PromptId.SOURCE: -50.0, PromptId.TARGET: 0.05}
        with pytest.raises(ValueError, match="finite and >= 0"):
            AffinePredictor.random(8, 0, norms=norms)


class TestMeasureOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of `spectral_norm` and of the generator's Lanczos normalizer."""
        counts = {"spectral_norm": 0, "_lanczos_norm": 0}
        for name in counts:
            inner = getattr(predictor, name)

            def counted(m, _inner=inner, _name=name):
                counts[_name] += 1
                return _inner(m)

            monkeypatch.setattr(predictor, name, counted)
        return counts

    @pytest.mark.parametrize("factory", [ContractivePredictor.default, AffinePredictor.random])
    def test_generated_weights_are_normalized_once_and_not_measured(self, calls, factory):
        pred = factory(64, 0)
        assert calls == {"spectral_norm": 0, "_lanczos_norm": 3}
        for p in PromptId:
            pred.weights.norms[p]
        assert calls == {"spectral_norm": 0, "_lanczos_norm": 3}

    def test_explicit_weights_are_measured_once(self, calls):
        rng = np.random.default_rng(6)
        weights = {p: 0.1 * rng.standard_normal((8, 8)) / np.sqrt(8) for p in PromptId}
        pred = ContractivePredictor(0.1, weights)
        assert calls == {"spectral_norm": 3, "_lanczos_norm": 0}
        for p in PromptId:
            assert pred.scale * pred.weights.norms[p] == pytest.approx(
                0.1 * np.linalg.norm(weights[p], 2)
            )
        assert calls == {"spectral_norm": 3, "_lanczos_norm": 0}


def generated_spec_predictor(tmp_path, dim, seed):
    spec = tmp_path / "p.cfg"
    spec.write_text(
        f"kind = contractive\ndim = {dim}\nseed = {seed}\n"
        "norm_null = 0.05\nnorm_source = 0.3\nnorm_target = 0.2\n"
    )
    return load_predictor(spec)


class TestGeneratedNorms:
    """Generated weights have exactly the norms they carry, to rounding."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dim", [1, 2, 16, 64, 256, 1024])
    @pytest.mark.parametrize("build", [
        lambda tmp_path, dim, seed: ContractivePredictor.default(dim, seed),
        lambda tmp_path, dim, seed: AffinePredictor.random(dim, seed),
        generated_spec_predictor,
    ], ids=["default", "random", "spec"])
    def test_exact_nominal_norms(self, tmp_path, build, dim, seed):
        pred = build(tmp_path, dim, seed)
        for p in PromptId:
            assert spectral_norm(pred.weights[p]) == pytest.approx(
                pred.weights.norms[p], rel=1e-13, abs=0
            )

    def test_one_by_one(self):
        assert predictor._lanczos_norm(np.array([[-3.0]])) == 3.0

    @pytest.mark.parametrize("dim", [2, 64])
    def test_all_singular_values_equal(self, dim):
        q, _ = np.linalg.qr(np.random.default_rng(dim).standard_normal((dim, dim)))
        assert predictor._lanczos_norm(2.5 * q) == pytest.approx(2.5, rel=1e-13, abs=0)

    def test_rank_one(self):
        u, v = np.random.default_rng(1).standard_normal((2, 50))
        assert predictor._lanczos_norm(np.outer(u, v)) == pytest.approx(
            np.linalg.norm(u) * np.linalg.norm(v), rel=1e-13, abs=0
        )

    def test_past_the_cap_raises_instead_of_estimating(self, monkeypatch):
        # a top Ritz value that grows at every check never converges
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda t: np.array([float(t.shape[0])]))
        m = np.random.default_rng(3).standard_normal((8, 8))
        with pytest.raises(NumericsError, match="did not converge in 40 steps"):
            predictor._lanczos_norm(m)


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
