"""Soft editing masks from attention maps and per-pixel guidance fields.

An attention map is normalized two-sidedly around a threshold: values below
it map affinely onto [-M, 0], values above onto [0, M].  A sigmoid then
turns the normalized map into a soft mask in (0, 1) whose polarity selects
whether high attention marks pixels to edit or to preserve.  The mask
finally blends two guidance scales into a per-pixel field.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Polarity(enum.Enum):
    """Whether high attention marks pixels to edit (positive) or keep (negative)."""

    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class AttentionMap:
    """Nonnegative 2-D saliency grid."""

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)  # copy: caller's array stays writable
        if values.ndim != 2 or values.size == 0:
            raise ValueError("attention map must be a nonempty 2-D grid")
        if not np.all(np.isfinite(values)):
            raise ValueError("attention map contains non-finite entries")
        if np.any(values < 0.0):
            raise ValueError("attention map entries must be nonnegative")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class MaskNormConfig:
    """Threshold and amplitude of the two-sided normalization.

    delta=None resolves to the per-map arithmetic mean.  big_m sets the
    sigmoid input amplitude; 10 gives near-binary edges while keeping
    mid-range softness, and very large values approach a binary mask.
    """

    delta: float | None = None
    big_m: float = 10.0
    polarity: Polarity = Polarity.POSITIVE

    def __post_init__(self):
        if self.big_m <= 0.0:
            raise ValueError(f"big_m must be positive, got {self.big_m}")


@dataclass(frozen=True)
class SoftMask:
    """Per-pixel editing weights in (0, 1) on the attention grid.

    Mathematically the entries are strictly inside (0, 1); for normalized
    inputs beyond |x| ~ 37 the sigmoid saturates to exactly 0 or 1 in
    float64, which is the intended near-binary limit.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64)  # copy: caller's array stays writable
        if values.ndim != 2 or values.size == 0:
            raise ValueError("soft mask must be a nonempty 2-D grid")
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("soft mask entries must lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def for_latent(self, latent_shape) -> np.ndarray:
        """Resample to the latent's spatial grid, ready to broadcast.

        The last two axes of the latent are its spatial grid (a flat [D]
        latent counts as 1 x D); nearest-neighbor resampling bridges any
        resolution mismatch.
        """
        h, w = spatial_shape(latent_shape)
        grid = nearest_resample(self.values, (h, w))
        if len(latent_shape) == 1:
            return grid.reshape(latent_shape[0])
        return grid


def spatial_shape(latent_shape) -> tuple[int, int]:
    shape = tuple(int(s) for s in latent_shape)
    if len(shape) == 0:
        raise ValueError("latent shape must be nonempty")
    if len(shape) == 1:
        return 1, shape[0]
    return shape[-2], shape[-1]


def nearest_resample(values: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resampling; integer upscales replicate blocks exactly."""
    values = np.asarray(values, dtype=np.float64)
    h, w = values.shape
    out_h, out_w = out_shape
    if out_h < 1 or out_w < 1:
        raise ValueError("output shape must be positive")
    rows = np.minimum((np.floor((np.arange(out_h) + 0.5) * h / out_h)).astype(int), h - 1)
    cols = np.minimum((np.floor((np.arange(out_w) + 0.5) * w / out_w)).astype(int), w - 1)
    return values[np.ix_(rows, cols)]


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-x))."""
    x = np.asarray(x, dtype=np.float64)
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
    across the threshold.
    """
    v = amap.values
    delta = float(v.mean()) if cfg.delta is None else float(cfg.delta)
    out = np.zeros_like(v)
    lo = float(v.min())
    hi = float(v.max())
    below = v < delta
    above = v > delta
    if lo < delta:
        out[below] = cfg.big_m * (v[below] - delta) / (delta - lo)
    if hi > delta:
        out[above] = cfg.big_m * (v[above] - delta) / (hi - delta)
    return out


def soft_mask(norm: np.ndarray, polarity: Polarity) -> SoftMask:
    """Sigmoid of the normalized map; negative polarity flips it.

    The negative mask is computed as 1 - sigmoid(norm), identical to
    sigmoid(-norm) and bit-exactly complementary to the positive mask.
    """
    norm = np.asarray(norm, dtype=np.float64)
    if not np.all(np.isfinite(norm)):
        raise ValueError("normalized map contains non-finite entries")
    s = sigmoid(norm)
    if polarity is Polarity.NEGATIVE:
        return SoftMask(1.0 - s)
    return SoftMask(s)


def blended_scale_field(mask, omega: float, omega_e: float) -> np.ndarray:
    """Per-pixel guidance scale (omega_e - omega) * mask + omega.

    Every entry lies between the two scales; a mask of 0 keeps the base
    scale and a mask of 1 applies the editing scale.  Accepts a SoftMask
    or a plain array.
    """
    values = mask.values if isinstance(mask, SoftMask) else np.asarray(mask, dtype=np.float64)
    return (float(omega_e) - float(omega)) * values + float(omega)


def synthetic_attention(shape, blob_center=None, blob_sigma: float = 2.0) -> AttentionMap:
    """Isotropic Gaussian bump, value 1 at the center, as a stand-in map.

    v(k) = exp(-||k - center||^2 / (2 sigma^2)) on an h x w pixel grid.
    """
    h, w = (int(shape[0]), int(shape[1]))
    if h < 1 or w < 1:
        raise ValueError("attention grid shape must be positive")
    if blob_sigma <= 0.0:
        raise ValueError(f"blob_sigma must be positive, got {blob_sigma}")
    if blob_center is None:
        blob_center = ((h - 1) / 2.0, (w - 1) / 2.0)
    cy, cx = float(blob_center[0]), float(blob_center[1])
    if not (0.0 <= cy <= h - 1 and 0.0 <= cx <= w - 1):
        raise ValueError(f"blob center {blob_center} lies outside the {h}x{w} grid")
    yy = np.arange(h, dtype=np.float64)[:, None]
    xx = np.arange(w, dtype=np.float64)[None, :]
    dist2 = (yy - cy) ** 2 + (xx - cx) ** 2
    values = np.exp(-dist2 / (2.0 * blob_sigma**2))
    return AttentionMap(values)
