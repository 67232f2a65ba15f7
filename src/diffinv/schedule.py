"""Noise schedules for DDIM-style sampling and inversion.

A schedule holds the cumulative signal fractions alpha_bar[0..T] of a
variance-preserving diffusion plus the subset of timesteps an N-step run
actually visits.  alpha_bar[0] = 1 by convention, so coefficient lookups one
grid point before the first scheduled step stay well defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_count, check_finite

DEFAULT_BIG_T = 1000
DEFAULT_BETA_START = 0.00085
DEFAULT_BETA_END = 0.012


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative noise schedule and the active timestep grid.

    alpha_bar[t] is the product of (1 - beta_s) for s = 1..t, and big_t is
    the last index of alpha_bar.  `timesteps` is a strictly increasing
    subset of 1..big_t; a freshly built schedule uses the full grid until
    `subsample` narrows it.  Both arrays are copied and frozen, and every
    alpha_bar[t] for t >= 1 lies in (0, 1], so no coefficient lookup needs
    to check it again.
    """

    alpha_bar: np.ndarray
    timesteps: np.ndarray

    def __post_init__(self):
        alpha_bar = check_finite(self.alpha_bar, "alpha_bar").copy()  # caller's stays writable
        if alpha_bar.ndim != 1 or alpha_bar.size < 2:
            raise ValueError("alpha_bar must be 1-D with at least one step entry")
        if alpha_bar[0] != 1.0:
            raise ValueError("alpha_bar[0] must be exactly 1")
        core = alpha_bar[1:]
        if np.any(core <= 0.0) or np.any(core > 1.0):
            raise ValueError("alpha_bar entries for t >= 1 must lie in (0, 1]")
        if core.size > 1 and np.any(np.diff(core) >= 0.0):
            raise ValueError("alpha_bar must be strictly decreasing on 1..T")
        # Checked before the cast, which would truncate 1.5 or True silently.
        timesteps = np.asarray(self.timesteps)
        if timesteps.dtype.kind not in "iu" or timesteps.ndim != 1 or timesteps.size == 0:
            raise ValueError("timesteps must be a nonempty 1-D integer sequence")
        timesteps = timesteps.astype(np.int64)
        if timesteps[0] < 1 or timesteps[-1] > core.size:
            raise ValueError("timesteps must lie within [1, big_t]")
        if timesteps.size > 1 and np.any(np.diff(timesteps) <= 0):
            raise ValueError("timesteps must be strictly increasing and duplicate-free")
        alpha_bar.setflags(write=False)
        timesteps.setflags(write=False)
        object.__setattr__(self, "alpha_bar", alpha_bar)
        object.__setattr__(self, "timesteps", timesteps)

    @property
    def big_t(self) -> int:
        return int(self.alpha_bar.size - 1)

    def subsample(self, n_steps: int) -> "NoiseSchedule":
        """Select a uniform-stride grid of `n_steps` timesteps ending at big_t.

        The stride is floor(big_t / n_steps); the grid is anchored at the
        horizon so the last entry always equals big_t.  Idempotent for a
        fixed `n_steps`.
        """
        check_count("n_steps", n_steps, 1, self.big_t)
        stride = self.big_t // n_steps
        ts = self.big_t - stride * np.arange(n_steps - 1, -1, -1, dtype=np.int64)
        return NoiseSchedule(self.alpha_bar, ts)

    def inversion_pairs(self) -> list[tuple[int, int]]:
        """(t_prev, t) pairs in increasing order, starting from (0, first)."""
        ts = self.timesteps.tolist()
        return list(zip([0] + ts[:-1], ts))

    def sampling_pairs(self) -> list[tuple[int, int]]:
        """(t, t_prev) pairs in decreasing order, ending at (first, 0)."""
        return [(t, prev) for prev, t in reversed(self.inversion_pairs())]


def build_schedule() -> NoiseSchedule:
    """The scaled-linear beta schedule of public latent diffusion checkpoints.

    T = 1000 steps; beta_s interpolates linearly in sqrt space between
    0.00085 and 0.012, and alpha_bar[t] = prod_{s<=t} (1 - beta_s).  Other
    schedules come from `schedule_from_alpha_bar`.
    """
    lo, hi = math.sqrt(DEFAULT_BETA_START), math.sqrt(DEFAULT_BETA_END)
    betas = np.linspace(lo, hi, DEFAULT_BIG_T) ** 2
    return schedule_from_alpha_bar(np.cumprod(1.0 - betas))


def schedule_from_alpha_bar(values) -> NoiseSchedule:
    """Build a schedule from explicit alpha_bar values for t = 1..T.

    The t = 0 sentinel value of 1 is prepended automatically.
    """
    core = check_finite(values, "alpha_bar")
    if core.ndim != 1:
        raise ValueError("need a flat list of alpha_bar values")
    return NoiseSchedule(np.concatenate(([1.0], core)), np.arange(1, core.size + 1))


def inversion_eps_coeff(alpha_bar_t: float, alpha_bar_prev: float) -> float:
    """Coefficient on the noise prediction in the exact reverse of a DDIM step.

    Rearranging the DDIM update from t to t_prev for z_t gives

        z_t = sqrt(ab_t / ab_prev) * z_prev + coeff * eps,
        coeff = sqrt(1 - ab_t) - sqrt((1 - ab_prev) * ab_t / ab_prev).

    Both levels are read from a NoiseSchedule, which keeps ab_prev > 0.
    """
    return math.sqrt(1.0 - alpha_bar_t) - math.sqrt(
        (1.0 - alpha_bar_prev) * alpha_bar_t / alpha_bar_prev
    )
