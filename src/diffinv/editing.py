"""Invert / reconstruct / edit pipeline with best-of-n stochastic candidates.

The pipeline inverts the input under the source prompt at a small guidance
scale, reconstructs it with the same settings (which also supplies the
per-step soft masks), and then samples edited candidates under the target
prompt using a per-pixel guidance field blended between the inversion
scale and a larger editing scale.  With eta > 0 the candidate passes are
stochastic inside the masked region and a pluggable scorer ranks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    masked editing region.  attention may be a static AttentionMap or a
    callable t -> AttentionMap for time-varying sources; None builds a
    centered synthetic blob on the latent's spatial grid.  scorer(candidate,
    z_0) ranks the candidates, lower is better; the default is the relative
    L2 distance to the input.
    """

    omega: float = 1.0
    omega_e: float = 7.0
    attention: AttentionMap | Callable[[int], AttentionMap] | None = None
    mask: MaskNormConfig = field(default_factory=MaskNormConfig)
    fixed_point: FixedPointConfig | None = field(default_factory=FixedPointConfig)
    eta: float = 0.0
    n_candidates: int = 1
    seed: int = 0
    scorer: Callable[[np.ndarray, np.ndarray], float] = relative_l2

    def __post_init__(self):
        if not 0.0 <= self.omega <= self.omega_e < math.inf:
            raise ValueError(
                f"need 0 <= omega <= omega_e < inf, got omega={self.omega}, "
                f"omega_e={self.omega_e}"
            )
        if self.n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {self.n_candidates}")
        if not 0.0 <= self.eta < math.inf:
            raise ValueError(f"need 0 <= eta < inf, got {self.eta}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EditResult:
    """Candidates with scores plus everything needed to audit the run."""

    candidates: list[np.ndarray]
    scores: list[float]
    best_index: int
    reconstruction: np.ndarray
    masks: list[SoftMask]
    report: InversionReport

    @property
    def best(self) -> np.ndarray:
        return self.candidates[self.best_index]


def _step_masks(schedule: NoiseSchedule, cfg: EditConfig, latent_shape):
    """Soft masks, latent-shaped mask arrays and blended scale fields per sampling step.

    Steps run in decreasing timestep order.  A static attention map is
    processed once and every step shares the result.
    """
    attention = cfg.attention
    if attention is None:
        h, w = spatial_shape(latent_shape)
        attention = synthetic_attention((h, w), blob_sigma=max(h, w) / 4.0)

    def stages(amap):
        mask = soft_mask(normalize_map(amap, cfg.mask), cfg.mask.polarity)
        array = mask.for_latent(latent_shape)
        return mask, array, blended_scale_field(array, cfg.omega, cfg.omega_e)

    steps = [t for t, _ in schedule.sampling_pairs()]
    if isinstance(attention, AttentionMap):
        return [[x] * len(steps) for x in stages(attention)]
    return [list(x) for x in zip(*(stages(attention(t)) for t in steps))]


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
    reconstruction bit-exactly.  The lowest score wins; an exception raised
    by the scorer reaches the caller.  The masks do not depend on the
    inversion and are built first, so mask settings that cannot be applied
    raise ValueError before any predictor call.
    """
    z_0 = np.asarray(z_0, dtype=np.float64)
    masks, mask_arrays, fields = _step_masks(schedule, cfg, z_0.shape)
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
            scale_fields=fields,
            eta=cfg.eta,
            masks=mask_arrays,
            rng=np.random.default_rng(seed),
        )[-1]
        for seed in seeds[:n_sampled]
    ]
    candidates += [candidates[0].copy() for _ in range(cfg.n_candidates - n_sampled)]

    scores = [float(cfg.scorer(c, z_0)) for c in candidates]
    return EditResult(
        candidates=candidates,
        scores=scores,
        best_index=int(np.argmin(scores)),
        reconstruction=reconstruction,
        masks=masks,
        report=report,
    )


def write_scores_csv(result: EditResult, path) -> None:
    """CSV of per-candidate scores, best candidate first column-flagged."""
    lines = ["candidate,score,is_best"]
    for k, score in enumerate(result.scores):
        lines.append(f"{k},{score:.9g},{1 if k == result.best_index else 0}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
