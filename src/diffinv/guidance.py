"""Soft editing masks from attention maps and per-pixel guidance fields.

An attention map is normalized two-sidedly around a threshold: values below
it map affinely onto [-M, 0], values above onto [0, M].  A sigmoid then
turns the normalized map into a soft mask in (0, 1) whose polarity selects
whether high attention marks pixels to edit or to preserve.  The mask
finally blends two guidance scales into a per-pixel field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (MaskSettingsError, check_choice, check_count, check_finite, check_instance,
                     check_real, check_unit_interval)


# Whether high attention marks pixels to edit (positive) or keep (negative).
POLARITIES = ("positive", "negative")


@dataclass(frozen=True)
class AttentionMap:
    """Nonnegative 2-D saliency grid."""

    values: np.ndarray

    def __post_init__(self):
        values = check_finite(self.values, "attention map").copy()  # caller's stays writable
        if values.ndim != 2 or values.size == 0:
            raise ValueError("attention map must be a nonempty 2-D grid")
        if np.any(values < 0.0):
            raise ValueError("attention map entries must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MaskNormConfig:
    """Threshold and amplitude of the two-sided normalization, and the mask's polarity.

    delta=None resolves to the per-map arithmetic mean.  big_m sets the
    sigmoid input amplitude; 10 gives near-binary edges while keeping
    mid-range softness, and very large values approach a binary mask.
    polarity is one of `POLARITIES`.
    """

    delta: float | None = None
    big_m: float = 10.0
    polarity: str = "positive"

    def __post_init__(self):
        check_choice("polarity", self.polarity, POLARITIES)
        check_real("big_m", self.big_m, 0.0, strict=True)
        if self.delta is not None:
            check_real("delta", self.delta)


@dataclass(frozen=True)
class SoftMask:
    """Per-pixel editing weights in (0, 1) on the attention grid.

    Mathematically the entries are strictly inside (0, 1); for normalized
    inputs beyond |x| ~ 37 the sigmoid saturates to exactly 0 or 1 in
    float64, which is the intended near-binary limit.
    """

    values: np.ndarray

    def __post_init__(self):
        values = check_unit_interval(self.values, "soft mask").copy()  # caller's stays writable
        if values.ndim != 2 or values.size == 0:
            raise ValueError("soft mask must be a nonempty 2-D grid")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def for_latent(self, latent_shape) -> np.ndarray:
        """Resample to the latent's spatial grid, ready to broadcast.

        The last two axes of the latent are its spatial grid (a flat [D]
        latent counts as 1 x D, a 0-d one as 1 x 1); nearest-neighbor
        resampling bridges any resolution mismatch.
        """
        grid = nearest_resample(self.values, spatial_shape(latent_shape))
        if len(latent_shape) < 2:
            return grid.reshape(latent_shape)
        return grid


def spatial_shape(latent_shape) -> tuple[int, int]:
    """The latent's (h, w) grid: its last two axes, 1 x D for [D] and 1 x 1 for 0-d."""
    shape = (1, 1, *(int(s) for s in latent_shape))
    return shape[-2], shape[-1]


def nearest_resample(values: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resampling; integer upscales replicate blocks exactly."""
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    out_h, out_w = out_shape
    out_h = check_count("output grid height", out_h, 1)
    out_w = check_count("output grid width", out_w, 1)
    rows = np.minimum((np.floor((np.arange(out_h) + 0.5) * h / out_h)).astype(int), h - 1)
    cols = np.minimum((np.floor((np.arange(out_w) + 0.5) * w / out_w)).astype(int), w - 1)
    return values[np.ix_(rows, cols)]


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-x)).

    An input that is not an array of finite reals (bool, complex, string or
    NaN entries, say) raises ValueError naming the sigmoid input.
    """
    x = check_finite(x, "sigmoid input")
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def normalize_map(amap: AttentionMap, cfg: MaskNormConfig) -> np.ndarray:
    """Two-sided affine normalization around the threshold.

    [min, delta] maps onto [-M, 0] and [delta, max] onto [0, M]; a value
    exactly at the threshold maps to 0.  Empty partitions are skipped and a
    constant map returns all zeros.  Monotone within each partition and
    across the threshold.  A threshold so far from the map's values that the
    arithmetic overflows float64 raises MaskSettingsError (a ValueError)
    naming it; an `amap` or `cfg` that is not an AttentionMap or
    MaskNormConfig raises ValueError naming it.
    """
    v = check_instance("amap", amap, AttentionMap).values
    check_instance("cfg", cfg, MaskNormConfig)
    delta = float(v.mean()) if cfg.delta is None else float(cfg.delta)
    out = np.zeros_like(v)
    lo = float(v.min())
    hi = float(v.max())
    below = v < delta
    above = v > delta
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, by name
        if lo < delta:
            out[below] = cfg.big_m * (v[below] - delta) / (delta - lo)
        if hi > delta:
            out[above] = cfg.big_m * (v[above] - delta) / (hi - delta)
    if not np.isfinite(out).all():
        raise MaskSettingsError(
            f"mask threshold delta={delta:g} with big_m={cfg.big_m:g} overflows the "
            f"normalization of an attention map with values in [{lo:g}, {hi:g}]"
        )
    return out


def soft_mask(norm: np.ndarray, polarity: str) -> SoftMask:
    """Sigmoid of the normalized map; "negative" polarity flips it.

    The negative mask is computed as 1 - sigmoid(norm), identical to
    sigmoid(-norm) and bit-exactly complementary to the positive mask.  A
    polarity outside `POLARITIES` raises ValueError naming it.
    """
    check_choice("polarity", polarity, POLARITIES)
    s = sigmoid(check_finite(norm, "normalized map"))
    if polarity == "negative":
        return SoftMask(1.0 - s)
    return SoftMask(s)


def blended_scale_field(mask, omega: float, omega_e: float) -> np.ndarray:
    """Per-pixel guidance scale (omega_e - omega) * mask + omega for a mask array.

    Every entry lies between the two scales; a mask of 0 keeps the base
    scale and a mask of 1 applies the editing scale.  A mask entry outside
    [0, 1] or a scale that is not a finite real raises ValueError naming it.
    """
    mask = check_unit_interval(mask, "mask")
    omega = check_real("omega", omega)
    omega_e = check_real("omega_e", omega_e)
    return (omega_e - omega) * mask + omega


def synthetic_attention(shape, blob_sigma: float) -> AttentionMap:
    """Isotropic Gaussian bump, value 1 at the grid's center, as a stand-in map.

    v(k) = exp(-||k - center||^2 / (2 sigma^2)) on an h x w pixel grid whose
    center is ((h - 1) / 2, (w - 1) / 2).  h and w must be integers >= 1
    and sigma finite and > 0.
    """
    h = check_count("attention grid height", shape[0], 1)
    w = check_count("attention grid width", shape[1], 1)
    check_real("blob_sigma", blob_sigma, 0.0, strict=True)
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    dist2 = (yy - (h - 1) / 2.0) ** 2 + (xx - (w - 1) / 2.0) ** 2
    values = np.exp(-dist2 / (2.0 * blob_sigma**2))
    return AttentionMap(values)
