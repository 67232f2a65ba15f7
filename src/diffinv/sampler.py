"""DDIM sampling: one update step, deterministic or masked-stochastic, and its trajectory."""

from __future__ import annotations

import math

import numpy as np

from .errors import (NumericsError, check_broadcast, check_finite, check_instance, check_real,
                     check_unit_interval)
from .predictor import NoisePredictor, PromptId, guided_epsilon
from .schedule import NoiseSchedule


def ddim_sigma(schedule: NoiseSchedule, t: int, t_prev: int) -> float:
    """Standard DDIM sampling noise scale for the step t -> t_prev.

    sigma_t = sqrt((1 - ab_prev) / (1 - ab_t)) * sqrt(1 - ab_t / ab_prev);
    zero when t_prev = 0 (the final, fully determined step).  The levels
    come from `schedule.levels`, whose timestep rule keeps ab_t <= ab_prev
    and so both square-root arguments >= 0.  A `schedule` that is not a
    NoiseSchedule raises ValueError naming it.
    """
    ab_t, ab_p = check_instance("schedule", schedule, NoiseSchedule).levels(t, t_prev)
    if ab_t >= 1.0:
        return 0.0
    return math.sqrt((1.0 - ab_p) / (1.0 - ab_t)) * math.sqrt(1.0 - ab_t / ab_p)


def _noise_settings(eta, mask, rng, latent_shape) -> tuple[float, np.ndarray | None]:
    """eta as a float and the noise mask as a float64 array, or ValueError naming the setting.

    eta must be a finite real >= 0.  eta = 0 reads neither `mask` nor `rng`
    and returns mask None; eta > 0 needs `rng`, a numpy.random.Generator,
    and a mask with entries in [0, 1] that broadcasts to the latent, None
    meaning ones.
    """
    eta = check_real("eta", eta, 0.0)
    if eta == 0.0:
        return eta, None
    if rng is None:
        raise ValueError("eta > 0 needs a random generator: pass rng")
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    mask = check_unit_interval(1.0 if mask is None else mask, "mask")
    check_broadcast(mask.shape, latent_shape, "mask")
    return eta, mask


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
    broadcastable to the latent shape with entries in [0, 1]; None means
    fully stochastic (mask of ones).  eta must be a finite real >= 0, and
    eta > 0 draws its noise from `rng`, which is then required; a setting
    that breaks these rules raises ValueError naming it, as do a `schedule`
    that is not a NoiseSchedule, a non-finite `z_t` and a `pred_eps` of the
    wrong shape or dtype.  These rules are checked first; then a non-finite
    prediction or result, or past eta = 1 a variance that exceeds
    1 - alpha_bar[t_prev], raises NumericsError naming the step
    (`pred_eps at sampling step t=...`, `state after ...`).
    The levels come from `schedule.levels`, whose timestep rule allows
    t_prev = 0 (alpha_bar = 1) and t_prev = t, in which case the
    coefficients cancel and the state is returned unchanged up to rounding.
    """
    ab_t, ab_p = check_instance("schedule", schedule, NoiseSchedule).levels(t, t_prev)
    z_t = check_finite(z_t, "z_t")
    if np.shape(pred_eps) != z_t.shape:
        raise ValueError(f"eps shape {np.shape(pred_eps)} does not match latent shape {z_t.shape}")
    eta, mask = _noise_settings(eta, mask, rng, z_t.shape)
    eps = check_finite(pred_eps, f"pred_eps at sampling step t={t}", NumericsError)
    if eta == 0.0:
        c = math.sqrt(1.0 - ab_p)
    else:
        var = eta * ddim_sigma(schedule, t, t_prev) ** 2 * mask
        sqrt_arg = 1.0 - ab_p - var
        if np.any(sqrt_arg < 0.0):
            raise NumericsError(
                f"negative square-root argument at step t={t} -> t_prev={t_prev}: "
                f"eta * sigma_t^2 * mask exceeds 1 - alpha_bar[{t_prev}]"
            )
        c = np.sqrt(sqrt_arg)
    z0_hat = (z_t - math.sqrt(1.0 - ab_t) * eps) / math.sqrt(ab_t)
    z_prev = math.sqrt(ab_p) * z0_hat + c * eps
    if eta > 0.0:
        z_prev = z_prev + np.sqrt(var) * rng.standard_normal(z_t.shape)
    return check_finite(z_prev, f"state after sampling step t={t}", NumericsError)


def sample_trajectory(
    schedule: NoiseSchedule,
    pred: NoisePredictor,
    z_start,
    cond: PromptId,
    omega,
    *,
    eta: float = 0.0,
    mask=None,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Run the sampler across the scheduled timesteps in decreasing order.

    Each step is one `ddim_step` on the `guided_epsilon` of the current
    state, with noise scale `eta`, the mask `mask` (ones when None) and the
    generator `rng`, which eta > 0 requires; eta = 0 is deterministic DDIM
    sampling and reads neither `mask` nor `rng`.  Returns every state
    visited, starting with `z_start` and ending with the clean latent.
    The types of `schedule` and `pred`, `z_start` and the noise settings
    are checked on entry, and `omega` and `cond` by `guided_epsilon`, so
    each bad one raises ValueError naming it before the first predictor
    call; each step's `ddim_step` checks its own inputs again.  A
    non-finite prediction or state is `ddim_step`'s NumericsError naming
    the step.
    """
    check_instance("schedule", schedule, NoiseSchedule)
    check_instance("pred", pred, NoisePredictor)
    z = check_finite(z_start, "z_start")
    eta, mask = _noise_settings(eta, mask, rng, z.shape)
    states = [z]
    for t, t_prev in schedule.sampling_pairs():
        eps = guided_epsilon(pred, z, cond, omega, t)
        z = ddim_step(schedule, eps, z, t, t_prev, mask, eta, rng)
        states.append(z)
    return states
