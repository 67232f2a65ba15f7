"""Deterministic DDIM sampling, one-step noising, and masked stochastic steps."""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError
from .predictor import NoisePredictor, PromptId, guided_epsilon
from .schedule import NoiseSchedule


def _as_state(z, name: str) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} contains non-finite entries")
    return z


def _require_finite(x: np.ndarray, what: str) -> np.ndarray:
    """x, or NumericsError naming `what` when an entry is not finite."""
    if not np.all(np.isfinite(x)):
        raise NumericsError(f"{what} contains non-finite entries")
    return x


def _ddim_update(z_t, eps, ab_t: float, ab_to: float, c=None) -> np.ndarray:
    """sqrt(ab_to) * z0_hat + c * eps, with z0_hat = (z_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t).

    c defaults to sqrt(1 - ab_to), the deterministic DDIM update from the
    noise level ab_t to ab_to.
    """
    if c is None:
        c = math.sqrt(1.0 - ab_to)
    z0_hat = (z_t - math.sqrt(1.0 - ab_t) * eps) / math.sqrt(ab_t)
    return math.sqrt(ab_to) * z0_hat + c * eps


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


def _step_inputs(schedule: NoiseSchedule, pred_eps, z_t, t: int, t_prev: int):
    """The checked (z_t, eps, ab_t, ab_prev) of one sampling step from t down to t_prev."""
    if t_prev > t:
        raise ValueError(f"t_prev={t_prev} must not exceed t={t}")
    z_t = _as_state(z_t, "z_t")
    eps = _as_state(pred_eps, "pred_eps")
    if eps.shape != z_t.shape:
        raise ValueError(f"eps shape {eps.shape} does not match latent shape {z_t.shape}")
    ab_t = float(schedule.alpha_bar[t])
    ab_p = float(schedule.alpha_bar[t_prev])
    return z_t, eps, ab_t, ab_p


def ddim_step(
    schedule: NoiseSchedule, pred_eps, z_t, t: int, t_prev: int
) -> np.ndarray:
    """One deterministic DDIM update from t down to t_prev.

    z0_hat = (z_t - sqrt(1 - ab_t) * eps) / sqrt(ab_t)
    z_prev = sqrt(ab_prev) * z0_hat + sqrt(1 - ab_prev) * eps

    t_prev may be 0 (alpha_bar = 1) and may equal t, in which case the
    coefficients cancel and the state is returned unchanged up to rounding.
    """
    return _ddim_update(*_step_inputs(schedule, pred_eps, z_t, t, t_prev))


def one_step_noise(schedule: NoiseSchedule, z_0, t: int, noise) -> np.ndarray:
    """Jump straight from a clean latent to noise level t:
    sqrt(ab_t) * z_0 + sqrt(1 - ab_t) * noise."""
    z_0 = _as_state(z_0, "z_0")
    noise = _as_state(noise, "noise")
    if noise.shape != z_0.shape:
        raise ValueError(f"noise shape {noise.shape} does not match latent shape {z_0.shape}")
    ab_t = float(schedule.alpha_bar[t])
    return math.sqrt(ab_t) * z_0 + math.sqrt(1.0 - ab_t) * noise


def stochastic_step(
    schedule: NoiseSchedule,
    pred_eps,
    z_t,
    t: int,
    t_prev: int,
    mask=None,
    eta: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Masked stochastic DDIM update.

    Draws from a Gaussian whose per-pixel variance is eta * sigma_t^2 * mask
    and whose mean replaces sqrt(1 - ab_prev) with
    sqrt(1 - ab_prev - eta * sigma_t^2 * mask) elementwise:

        mean = sqrt(ab_prev) * z0_hat + sqrt(1 - ab_prev - v) * eps,  v = eta * sigma_t^2 * mask

    eta = 0 or a zero mask reproduces `ddim_step` bit-exactly.  `mask` may
    be a scalar or any array broadcastable to the latent shape; None means
    fully stochastic (mask of ones).  eta must be >= 0, and eta > 0 draws
    its noise from `rng`, which is then required.  For eta in [0, 1] and
    masks in [0, 1] the mean's square-root argument is nonnegative.
    """
    if not eta >= 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    if eta == 0.0:
        return ddim_step(schedule, pred_eps, z_t, t, t_prev)
    if rng is None:
        raise ValueError("eta > 0 needs a random generator: pass rng")
    z_t, eps, ab_t, ab_p = _step_inputs(schedule, pred_eps, z_t, t, t_prev)
    mask_arr = np.asarray(1.0 if mask is None else mask, dtype=np.float64)
    try:
        if np.broadcast_shapes(mask_arr.shape, z_t.shape) != z_t.shape:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"mask of shape {mask_arr.shape} does not broadcast to latent shape {z_t.shape}"
        ) from None
    sigma2 = ddim_sigma(schedule, t, t_prev) ** 2
    var = eta * sigma2 * mask_arr
    sqrt_arg = 1.0 - ab_p - var
    if np.any(sqrt_arg < 0.0):
        raise NumericsError(
            f"negative square-root argument at step t={t} -> t_prev={t_prev}: "
            f"eta * sigma_t^2 * mask exceeds 1 - alpha_bar[{t_prev}]"
        )
    mean = _ddim_update(z_t, eps, ab_t, ab_p, np.sqrt(sqrt_arg))
    return mean + np.sqrt(var) * rng.standard_normal(z_t.shape)


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
    timesteps) when given, then takes a `stochastic_step` with noise scale
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
            z = stochastic_step(schedule, eps, z, t, t_prev, mask, eta, rng)
        except ValueError:
            # The steps reject non-finite input; here it came from the predictor
            # or an earlier step, which is a numeric failure.
            _require_finite(eps, f"noise prediction at sampling step t={t}")
            _require_finite(z, f"state entering sampling step t={t}")
            raise
        states.append(z)
    _require_finite(z, "state after the last sampling step")
    return states
