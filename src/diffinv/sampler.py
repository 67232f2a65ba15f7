"""DDIM sampling: one update step, deterministic or masked-stochastic, and its trajectory."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .predictor import NoisePredictor, PromptId, _check_broadcast, guided_epsilon
from .schedule import NoiseSchedule


def _as_state(x, name: str, error=ValueError) -> np.ndarray:
    """x as a float64 array, or `error` naming `name` when an entry is not finite."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise error(f"{name} contains non-finite entries")
    return x


def ddim_sigma(schedule: NoiseSchedule, t: int, t_prev: int) -> float:
    """Standard DDIM sampling noise scale for the step t -> t_prev.

    sigma_t = sqrt((1 - ab_prev) / (1 - ab_t)) * sqrt(1 - ab_t / ab_prev);
    zero when t_prev = 0 (the final, fully determined step).
    """
    ab_t = float(schedule.alpha_bar[t])
    ab_p = float(schedule.alpha_bar[t_prev])
    if ab_t >= 1.0:
        return 0.0
    return math.sqrt((1.0 - ab_p) / (1.0 - ab_t)) * math.sqrt(max(1.0 - ab_t / ab_p, 0.0))


def ddim_step(
    schedule: NoiseSchedule,
    pred_eps,
    z_t,
    t: int,
    t_prev: int,
    mask=None,
    eta: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One DDIM update from t down to t_prev, masked-stochastic for eta > 0.

    z0_hat = (z_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t)
    z_prev = sqrt(ab_prev) * z0_hat + sqrt(1 - ab_prev - v) * eps + sqrt(v) * noise

    with per-pixel variance v = eta * sigma_t^2 * mask.  eta = 0 is the
    deterministic update (v = 0), which ignores `mask` and `rng`; a zero
    mask reproduces it bit-exactly.  `mask` may be a scalar or any array
    broadcastable to the latent shape; None means fully stochastic (mask of
    ones).  eta must be >= 0, and eta > 0 draws its noise from `rng`, which
    is then required.  For eta in [0, 1] and masks in [0, 1] the mean's
    square-root argument is nonnegative.  t_prev may be 0 (alpha_bar = 1)
    and may equal t, in which case the coefficients cancel and the state is
    returned unchanged up to rounding.
    """
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta > 0.0 and rng is None:
        raise ValueError("eta > 0 needs a random generator: pass rng")
    if t_prev > t:
        raise ValueError(f"t_prev={t_prev} must not exceed t={t}")
    z_t = _as_state(z_t, "z_t")
    eps = _as_state(pred_eps, "pred_eps")
    if eps.shape != z_t.shape:
        raise ValueError(f"eps shape {eps.shape} does not match latent shape {z_t.shape}")
    ab_t = float(schedule.alpha_bar[t])
    ab_p = float(schedule.alpha_bar[t_prev])
    if eta == 0.0:
        c = math.sqrt(1.0 - ab_p)
    else:
        mask_arr = np.asarray(1.0 if mask is None else mask, dtype=np.float64)
        _check_broadcast(mask_arr.shape, z_t.shape, "mask")
        var = eta * ddim_sigma(schedule, t, t_prev) ** 2 * mask_arr
        sqrt_arg = 1.0 - ab_p - var
        if np.any(sqrt_arg < 0.0):
            raise NumericsError(
                f"negative square-root argument at step t={t} -> t_prev={t_prev}: "
                f"eta * sigma_t^2 * mask exceeds 1 - alpha_bar[{t_prev}]"
            )
        c = np.sqrt(sqrt_arg)
    z0_hat = (z_t - math.sqrt(1.0 - ab_t) * eps) / math.sqrt(ab_t)
    z_prev = math.sqrt(ab_p) * z0_hat + c * eps
    if eta == 0.0:
        return z_prev
    return z_prev + np.sqrt(var) * rng.standard_normal(z_t.shape)


def sample_trajectory(
    schedule: NoiseSchedule,
    pred: NoisePredictor,
    z_start,
    cond: PromptId,
    omega: float = 1.0,
    *,
    scale_fields=None,
    eta: float = 0.0,
    masks=None,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Run the sampler across the scheduled timesteps in decreasing order.

    Each step guides with the scalar `omega`, or with its entry of
    `scale_fields` (one per-pixel field per step, aligned with decreasing
    timesteps) when given, then takes a `ddim_step` with noise scale
    `eta`, its entry of `masks` (ones when absent) and the generator `rng`,
    which eta > 0 requires; eta = 0 is deterministic DDIM sampling.  Returns
    every state visited, starting with `z_start` and ending with the clean
    latent.  A non-finite noise prediction or state raises NumericsError
    naming the step.
    """
    pairs = schedule.sampling_pairs()
    if scale_fields is not None and len(scale_fields) != len(pairs):
        raise ValueError(
            f"need one scale field per step: got {len(scale_fields)} for {len(pairs)} steps"
        )
    if masks is not None and len(masks) != len(pairs):
        raise ValueError(f"need one mask per step: got {len(masks)} for {len(pairs)} steps")
    scales = [omega] * len(pairs) if scale_fields is None else scale_fields
    masks = [None] * len(pairs) if masks is None else masks
    z = _as_state(z_start, "z_start")
    states = [z]
    for (t, t_prev), scale, mask in zip(pairs, scales, masks):
        eps = guided_epsilon(pred, z, cond, scale, t)
        try:
            z = ddim_step(schedule, eps, z, t, t_prev, mask, eta, rng)
        except ValueError:
            # The step rejects non-finite input; here it came from the predictor
            # or an earlier step, which is a numeric failure.
            _as_state(eps, f"noise prediction at sampling step t={t}", NumericsError)
            _as_state(z, f"state entering sampling step t={t}", NumericsError)
            raise
        states.append(z)
    _as_state(z, "state after the last sampling step", NumericsError)
    return states
