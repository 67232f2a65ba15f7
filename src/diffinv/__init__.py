"""High-accuracy DDIM inversion via accelerated fixed-point iteration.

Deterministic DDIM sampling and its implicit inverse, solved per step as a
fixed-point problem with Anderson or averaged acceleration; per-pixel
blended classifier-free guidance from soft attention masks; masked
stochastic editing with best-of-n candidate selection; and a deterministic
benchmark harness with portable tensor and CSV file formats.
"""

from .editing import EditConfig, EditResult, edit
from .errors import DivergenceError, NumericsError
from .guidance import (
    AttentionMap,
    MaskNormConfig,
    SoftMask,
    blended_scale_field,
    normalize_map,
    sigmoid,
    soft_mask,
    synthetic_attention,
)
from .inversion import (
    FixedPointConfig,
    InversionReport,
    anderson_weights,
    fixed_point_map,
    invert_trajectory,
    iterative_invert_step,
    round_trip,
)
from .metrics import l2, psnr, relative_l2
from .predictor import (
    AffinePredictor,
    CallCounter,
    ConstantPredictor,
    ContractivePredictor,
    NoisePredictor,
    PromptId,
    guided_epsilon,
    load_predictor,
    spectral_norm,
)
from .sampler import ddim_sigma, ddim_step, sample_trajectory
from .schedule import NoiseSchedule, build_schedule, schedule_from_alpha_bar

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
    "InversionReport",
    "MaskNormConfig",
    "NoisePredictor",
    "NoiseSchedule",
    "NumericsError",
    "PromptId",
    "SoftMask",
    "anderson_weights",
    "blended_scale_field",
    "build_schedule",
    "ddim_sigma",
    "ddim_step",
    "edit",
    "fixed_point_map",
    "guided_epsilon",
    "invert_trajectory",
    "iterative_invert_step",
    "l2",
    "load_predictor",
    "normalize_map",
    "psnr",
    "relative_l2",
    "round_trip",
    "sample_trajectory",
    "schedule_from_alpha_bar",
    "sigmoid",
    "soft_mask",
    "spectral_norm",
    "synthetic_attention",
]
