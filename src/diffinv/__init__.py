"""High-accuracy DDIM inversion via accelerated fixed-point iteration.

Deterministic DDIM sampling and its implicit inverse, solved per step as a
fixed-point problem with Anderson or averaged acceleration; per-pixel
blended classifier-free guidance from soft attention masks; masked
stochastic editing with best-of-n candidate selection; and a deterministic
benchmark harness with portable tensor and CSV file formats.
"""

from .editing import EditConfig, EditResult, default_scorer, edit, reconstruct
from .errors import DivergenceError, NumericsError
from .guidance import (
    AttentionMap,
    MaskNormConfig,
    Polarity,
    SoftMask,
    blended_scale_field,
    normalize_map,
    sigmoid,
    soft_mask,
    synthetic_attention,
)
from .inversion import (
    FixedPointConfig,
    FixedPointVariant,
    InversionReport,
    anderson_weights,
    euler_invert_step,
    fixed_point_map,
    invert_trajectory,
    iterative_invert_step,
    round_trip,
)
from .metrics import l2, mse, psnr, relative_l2
from .predictor import (
    AffinePredictor,
    CallCounter,
    ConstantPredictor,
    ContractivePredictor,
    NoisePredictor,
    PromptId,
    ZeroPredictor,
    guided_epsilon,
    load_predictor,
    spectral_norm,
)
from .sampler import (
    ddim_sigma,
    ddim_step,
    one_step_noise,
    sample_trajectory,
    stochastic_step,
)
from .schedule import (
    NoiseSchedule,
    build_schedule,
    load_alpha_bar,
    schedule_from_alpha_bar,
)

__all__ = [
    "AffinePredictor",
    "AttentionMap",
    "CallCounter",
    "ConstantPredictor",
    "ContractivePredictor",
    "DivergenceError",
    "EditConfig",
    "EditResult",
    "FixedPointConfig",
    "FixedPointVariant",
    "InversionReport",
    "MaskNormConfig",
    "NoisePredictor",
    "NoiseSchedule",
    "NumericsError",
    "Polarity",
    "PromptId",
    "SoftMask",
    "ZeroPredictor",
    "anderson_weights",
    "blended_scale_field",
    "build_schedule",
    "ddim_sigma",
    "ddim_step",
    "default_scorer",
    "edit",
    "euler_invert_step",
    "fixed_point_map",
    "guided_epsilon",
    "invert_trajectory",
    "iterative_invert_step",
    "l2",
    "load_alpha_bar",
    "load_predictor",
    "mse",
    "normalize_map",
    "one_step_noise",
    "psnr",
    "reconstruct",
    "relative_l2",
    "round_trip",
    "sample_trajectory",
    "schedule_from_alpha_bar",
    "sigmoid",
    "soft_mask",
    "spectral_norm",
    "stochastic_step",
    "synthetic_attention",
]
