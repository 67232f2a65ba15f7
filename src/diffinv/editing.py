"""Invert / reconstruct / edit pipeline with best-of-n stochastic candidates.

The pipeline builds one soft mask from the attention map, inverts the
input under the source prompt at a small guidance scale, reconstructs it
with the same settings, and then samples edited candidates under the target
prompt using a per-pixel guidance field blended by the mask between the
inversion scale and a larger editing scale.  With eta > 0 the candidate
passes are stochastic inside the masked region, and the candidate closest
to the input in relative L2 ranks first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_count, check_finite, check_instance, check_real
from .guidance import (
    AttentionMap,
    MaskNormConfig,
    SoftMask,
    blended_scale_field,
    normalize_map,
    soft_mask,
    spatial_shape,
    synthetic_attention,
)
from .inversion import FixedPointConfig, InversionReport, round_trip
from .metrics import relative_l2
from .predictor import NoisePredictor, PromptId
from .sampler import sample_trajectory
from .schedule import NoiseSchedule


@dataclass(frozen=True)
class EditConfig:
    """Settings for the full pipeline.

    omega is used for inversion and reconstruction, omega_e only inside the
    masked editing region; both are finite, with 0 <= omega <= omega_e.
    attention is the map the edit's one soft mask is built from; None
    builds a centered synthetic blob on the latent's spatial grid.  Each
    settings field has its type checked here: `attention` an AttentionMap
    or None, `mask` a MaskNormConfig, `fixed_point` a FixedPointConfig or
    None.
    """

    omega: float = 1.0
    omega_e: float = 7.0
    attention: AttentionMap | None = None
    mask: MaskNormConfig = field(default_factory=MaskNormConfig)
    fixed_point: FixedPointConfig | None = field(default_factory=FixedPointConfig)
    eta: float = 0.0
    n_candidates: int = 1
    seed: int = 0

    def __post_init__(self):
        check_count("n_candidates", self.n_candidates, 1)
        check_count("seed", self.seed, 0)
        check_real("omega", self.omega, 0.0)
        check_real("omega_e", self.omega_e, self.omega)
        check_real("eta", self.eta, 0.0)
        check_instance("attention", self.attention, AttentionMap, optional=True)
        check_instance("mask", self.mask, MaskNormConfig)
        check_instance("fixed_point", self.fixed_point, FixedPointConfig, optional=True)


@dataclass
class EditResult:
    """Candidates with scores plus everything needed to audit the run."""

    candidates: list[np.ndarray]
    scores: list[float]
    best_index: int
    reconstruction: np.ndarray
    mask: SoftMask
    report: InversionReport

    @property
    def best(self) -> np.ndarray:
        return self.candidates[self.best_index]


def edit(
    schedule: NoiseSchedule,
    pred: NoisePredictor,
    z_0,
    source_prompt: PromptId,
    target_prompt: PromptId,
    cfg: EditConfig,
) -> EditResult:
    """Run the three-branch pipeline and rank the edited candidates.

    The inversion and the reconstruction run once regardless of
    n_candidates; every candidate restarts sampling from the shared
    inverted noise vector.  With eta = 0 all candidates coincide with the
    single deterministic edit, so it is sampled once and copied.
    target == source with omega_e == omega and eta == 0 reproduces the
    reconstruction bit-exactly.  The candidate with the lowest relative L2
    to z_0 wins.  The mask does not depend on the inversion and is built
    first, so mask settings that cannot be applied raise MaskSettingsError
    (a ValueError) before any predictor call, as do a `z_0` entry that is
    not a finite real (ValueError naming z_0), a prompt that is not a
    PromptId other than NULL (ValueError naming source_prompt or
    target_prompt, by `PromptId.conditioning`), and a `schedule`, `pred` or
    `cfg` that is not a NoiseSchedule, NoisePredictor or EditConfig.
    """
    check_instance("schedule", schedule, NoiseSchedule)
    check_instance("pred", pred, NoisePredictor)
    check_instance("cfg", cfg, EditConfig)
    PromptId.conditioning("source_prompt", source_prompt)
    PromptId.conditioning("target_prompt", target_prompt)
    z_0 = check_finite(z_0, "z_0")
    attention = cfg.attention
    if attention is None:
        h, w = spatial_shape(z_0.shape)
        attention = synthetic_attention((h, w), blob_sigma=max(h, w) / 4.0)
    mask = soft_mask(normalize_map(attention, cfg.mask), cfg.mask.polarity)
    mask_array = mask.for_latent(z_0.shape)
    scale_field = blended_scale_field(mask_array, cfg.omega, cfg.omega_e)
    z_t, reconstruction, report = round_trip(
        schedule, pred, z_0, source_prompt, cfg.omega, cfg.fixed_point
    )

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_candidates)
    n_sampled = cfg.n_candidates if cfg.eta > 0.0 else 1
    candidates = [
        sample_trajectory(
            schedule,
            pred,
            z_t,
            target_prompt,
            scale_field,
            eta=cfg.eta,
            mask=mask_array,
            rng=np.random.default_rng(seed),
        )[-1]
        for seed in seeds[:n_sampled]
    ]
    candidates += [candidates[0].copy() for _ in range(cfg.n_candidates - n_sampled)]

    scores = [relative_l2(c, z_0) for c in candidates]
    return EditResult(
        candidates=candidates,
        scores=scores,
        best_index=int(np.argmin(scores)),
        reconstruction=reconstruction,
        mask=mask,
        report=report,
    )


def write_scores_csv(result: EditResult, path) -> None:
    """CSV of per-candidate scores, best candidate first column-flagged."""
    lines = ["candidate,score,is_best"]
    for k, score in enumerate(result.scores):
        lines.append(f"{k},{score:.9g},{1 if k == result.best_index else 0}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
