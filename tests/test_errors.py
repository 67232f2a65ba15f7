import math

import numpy as np
import pytest

from diffinv import (
    AttentionMap,
    CallCounter,
    ContractivePredictor,
    EditConfig,
    FixedPointConfig,
    MaskNormConfig,
    PromptId,
    build_schedule,
    ddim_sigma,
    ddim_step,
    edit,
    fixed_point_map,
    guided_epsilon,
    invert_trajectory,
    iterative_invert_step,
    load_predictor,
    normalize_map,
    round_trip,
    sample_trajectory,
    soft_mask,
)
from diffinv.bench import METHODS, ExperimentGrid, method_config, run_grid
from diffinv.errors import check_choice, check_instance, check_real, check_unit_interval
from diffinv.inversion import VARIANTS
from diffinv.predictor import max_inversion_coeff


@pytest.mark.parametrize(
    ("value", "low", "strict", "message"),
    [
        (math.nan, None, False, "x must be finite, got nan"),
        (-1.0, 0.0, False, "x must be finite and >= 0, got -1.0"),
        (0.0, 0.0, True, "x must be finite and > 0, got 0.0"),
        (math.inf, 0.5, False, "x must be finite and >= 0.5, got inf"),
        (np.float64(-2.0), 1e-3, True, "x must be finite and > 0.001, got -2.0"),
    ],
)
def test_check_real_names_the_bound_it_missed(value, low, strict, message):
    with pytest.raises(ValueError) as err:
        check_real("x", value, low, strict)
    assert str(err.value) == message


def test_check_unit_interval_keeps_both_endpoints():
    out = check_unit_interval([0, 1], "mask")
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [0.0, 1.0])


@pytest.mark.parametrize("value", [-1e-300, 1.0 + 2**-52])
def test_check_unit_interval_rejects_just_outside(value):
    with pytest.raises(ValueError, match=r"^mask entries must lie in \[0, 1\]$"):
        check_unit_interval(np.array([0.5, value]), "mask")


def test_check_choice_returns_a_listed_string():
    assert check_choice("x", "b", ("a", "b")) == "b"


@pytest.mark.parametrize("value", ["c", "A", "", 3, None, ("a",), b"a"])
def test_check_choice_names_the_choices_it_missed(value):
    with pytest.raises(ValueError) as err:
        check_choice("x", value, ("a", "b"))
    assert str(err.value) == f"x must be one of a, b; got {value!r}"


def test_methods_are_euler_and_the_variants():
    assert METHODS == ("anderson", "averaged", "euler", "plain")
    assert set(METHODS) == {"euler", *VARIANTS}


class TestChoices:
    """Each choice-valued input refuses anything but its strings, by name, when it is built."""

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_fixed_point_variant(self, value):
        with pytest.raises(ValueError, match=r"^variant must be one of plain, averaged, anderson; "):
            FixedPointConfig(variant=value)

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_mask_polarity(self, value):
        with pytest.raises(ValueError, match="^polarity must be one of positive, negative; "):
            MaskNormConfig(polarity=value)

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_soft_mask_polarity(self, value):
        with pytest.raises(ValueError, match="^polarity must be one of positive, negative; "):
            soft_mask(np.zeros((2, 2)), value)

    @pytest.mark.parametrize("value", ["bogus", 3, None])
    def test_method(self, value):
        with pytest.raises(ValueError, match="^method must be one of anderson, averaged, euler, "):
            method_config(value, 20)

    @pytest.mark.parametrize("value", ["bogus", "3", "None"])
    def test_spec_kind(self, tmp_path, value):
        # A spec file holds strings only, so 3 and None arrive spelled out.
        spec = tmp_path / "p.cfg"
        spec.write_text(f"kind = {value}\n")
        with pytest.raises(ValueError) as err:
            load_predictor(spec)
        assert str(err.value) == (
            f"{spec}: kind must be one of constant, contractive, affine; got {value!r}"
        )


def test_check_instance_names_the_type_it_missed():
    assert check_instance("cfg", None, FixedPointConfig, optional=True) is None
    with pytest.raises(ValueError, match="^cfg must be a FixedPointConfig, got None$"):
        check_instance("cfg", None, FixedPointConfig)
    with pytest.raises(ValueError, match="^x must be an AttentionMap or None, got 'map'$"):
        check_instance("x", "map", AttentionMap, optional=True)


S5 = build_schedule().subsample(5)


def _first_map_call(pred, z, omega):
    f = fixed_point_map(S5, pred, z, 400, 200, PromptId.SOURCE, omega)
    return f(z)


# Every public way in to a guided evaluation, called with a guidance scale `omega`.
OMEGA_ENTRIES = {
    "guided_epsilon": lambda pred, z, omega: guided_epsilon(pred, z, PromptId.SOURCE, omega, 200),
    "fixed_point_map": _first_map_call,
    "invert_trajectory": lambda pred, z, omega: invert_trajectory(
        S5, pred, z, PromptId.SOURCE, omega, FixedPointConfig()),
    "round_trip": lambda pred, z, omega: round_trip(S5, pred, z, PromptId.SOURCE, omega, None),
    "sample_trajectory": lambda pred, z, omega: sample_trajectory(
        S5, pred, z, PromptId.SOURCE, omega),
}


class TestOmegaRule:
    """`guided_epsilon` alone reads omega, so every entry point refuses a bad one the same way."""

    @pytest.mark.parametrize("omega", [math.nan, math.inf, True, "7", None, np.ones(3)],
                             ids=["nan", "inf", "True", "str", "None", "field"])
    @pytest.mark.parametrize("entry", OMEGA_ENTRIES)
    def test_refused_by_name_before_any_call(self, entry, omega):
        counter = CallCounter(ContractivePredictor.default(4, 0))
        with pytest.raises(ValueError, match="^omega "):
            OMEGA_ENTRIES[entry](counter, np.ones(4), omega)
        assert counter.calls == 0

    @pytest.mark.parametrize("omega", [7, 7.0, np.float64(7.0), np.array(7.0), np.float32(7.0)])
    def test_every_spelling_of_a_scalar_guides_alike(self, omega):
        pred = ContractivePredictor.default(4, 0)
        z = np.linspace(-1.0, 1.0, 4)
        reference = guided_epsilon(pred, z, PromptId.SOURCE, 7.0, 200)
        np.testing.assert_array_equal(guided_epsilon(pred, z, PromptId.SOURCE, omega, 200),
                                      reference)

    @pytest.mark.parametrize("omega", [2**64, 10**400], ids=["2**64", "10**400"])
    def test_an_int_numpy_cannot_hold_is_refused_before_any_call(self, omega):
        counter = CallCounter(ContractivePredictor.default(4, 0))
        with pytest.raises(ValueError, match="^omega must hold real numbers, got dtype object$"):
            guided_epsilon(counter, np.ones(4), PromptId.SOURCE, omega, 200)
        assert counter.calls == 0


class TestSettingsTypes:
    """A settings object of the wrong type is refused by name where it is given."""

    @pytest.mark.parametrize(
        ("field", "value", "message"),
        [
            ("fixed_point", "anderson",
             "^fixed_point must be a FixedPointConfig or None, got 'anderson'$"),
            ("mask", "negative", "^mask must be a MaskNormConfig, got 'negative'$"),
            ("mask", None, "^mask must be a MaskNormConfig, got None$"),
            ("attention", np.ones((4, 4)), "^attention must be an AttentionMap or None, got array"),
        ],
    )
    def test_edit_config(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            EditConfig(**{field: value})

    @pytest.mark.parametrize("cfg", ["anderson", EditConfig(), {"iters": 6}])
    @pytest.mark.parametrize("run", [invert_trajectory, round_trip])
    def test_trajectory_cfg_before_any_call(self, run, cfg):
        counter = CallCounter(ContractivePredictor.default(4, 0))
        with pytest.raises(ValueError, match="^cfg must be a FixedPointConfig or None, got "):
            run(S5, counter, np.ones(4), PromptId.SOURCE, 1.0, cfg)
        assert counter.calls == 0

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (lambda p: invert_trajectory("s", p, np.ones(4), PromptId.SOURCE, 1.0, None),
             "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: invert_trajectory(S5, "pred", np.ones(4), PromptId.SOURCE, 1.0, None),
             "^pred must be a NoisePredictor, got 'pred'$"),
            (lambda p: round_trip("s", p, np.ones(4), PromptId.SOURCE, 1.0, None),
             "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: sample_trajectory("s", p, np.ones(4), PromptId.SOURCE, 1.0),
             "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: sample_trajectory(S5, "pred", np.ones(4), PromptId.SOURCE, 1.0),
             "^pred must be a NoisePredictor, got 'pred'$"),
            (lambda p: ddim_step("s", np.zeros(4), np.ones(4), 400, 200),
             "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: ddim_sigma("s", 400, 200), "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: max_inversion_coeff("s"), "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: fixed_point_map("s", p, np.ones(4), 400, 200, PromptId.SOURCE, 1.0),
             "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: fixed_point_map(S5, "pred", np.ones(4), 400, 200, PromptId.SOURCE, 1.0),
             "^pred must be a NoisePredictor, got 'pred'$"),
            (lambda p: edit("s", p, np.ones((4, 4)), PromptId.SOURCE, PromptId.TARGET,
                            EditConfig()),
             "^schedule must be a NoiseSchedule, got 's'$"),
            (lambda p: edit(S5, "pred", np.ones((4, 4)), PromptId.SOURCE, PromptId.TARGET,
                            EditConfig()),
             "^pred must be a NoisePredictor, got 'pred'$"),
            (lambda p: iterative_invert_step(
                fixed_point_map(S5, p, np.ones(4), 400, 200, PromptId.SOURCE, 1.0),
                np.ones(4), 400, "anderson"),
             "^cfg must be a FixedPointConfig or None, got 'anderson'$"),
            (lambda p: normalize_map(AttentionMap(np.ones((2, 2))), "x"),
             "^cfg must be a MaskNormConfig, got 'x'$"),
            (lambda p: normalize_map(np.ones((2, 2)), MaskNormConfig()),
             "^amap must be an AttentionMap, got array"),
            (lambda p: run_grid(None, p), "^grid must be an ExperimentGrid, got None$"),
            (lambda p: run_grid(ExperimentGrid(step_counts=(10,), omegas=(1.0,),
                                               methods=("plain",), dim=4), "pred"),
             "^pred must be a NoisePredictor, got 'pred'$"),
        ],
        ids=["invert_trajectory-schedule", "invert_trajectory-pred", "round_trip-schedule",
             "sample_trajectory-schedule", "sample_trajectory-pred", "ddim_step-schedule",
             "ddim_sigma-schedule", "max_inversion_coeff-schedule", "fixed_point_map-schedule",
             "fixed_point_map-pred", "edit-schedule", "edit-pred", "iterative_invert_step-cfg",
             "normalize_map-cfg", "normalize_map-amap", "run_grid-grid", "run_grid-pred"],
    )
    def test_schedule_predictor_and_settings_refused_on_entry(self, call, message):
        counter = CallCounter(ContractivePredictor.default(16, 0))
        with pytest.raises(ValueError, match=message):
            call(counter)
        assert counter.calls == 0

    @pytest.mark.parametrize("cfg", [None, FixedPointConfig(), "anderson"])
    def test_edit_cfg_before_any_call(self, cfg):
        counter = CallCounter(ContractivePredictor.default(16, 0))
        with pytest.raises(ValueError, match="^cfg must be an EditConfig, got "):
            edit(S5, counter, np.ones((4, 4)), PromptId.SOURCE, PromptId.TARGET, cfg)
        assert counter.calls == 0
