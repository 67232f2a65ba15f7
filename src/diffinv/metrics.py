"""Desk-scale reconstruction metrics on raw latents."""

from __future__ import annotations

import math

import numpy as np

_RMS_FLOOR = 1e-150  # keeps psnr finite for perfect reconstructions


def l2(x) -> float:
    """Euclidean norm of the flattened array, finite whenever the true norm fits float64.

    When the plain sum of squares overflows on finite entries, the entries
    are first divided by the largest |entry| (as `spectral_norm` does);
    otherwise the result is the plain `np.linalg.norm`, bit for bit: the
    square root of one `vdot`, which the solver pays once per iteration and
    which overflows to inf without a warning.
    """
    flat = np.asarray(x, dtype=np.float64).ravel()
    norm = math.sqrt(np.vdot(flat, flat))
    if norm == math.inf and np.isfinite(flat).all():
        peak = float(np.max(np.abs(flat)))
        norm = peak * float(np.linalg.norm(flat / peak))
    return norm


def _pair(candidate, reference) -> tuple[np.ndarray, np.ndarray]:
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError(f"shape mismatch: {candidate.shape} vs {reference.shape}")
    return candidate, reference


def relative_l2(candidate, reference) -> float:
    """||candidate - reference|| / ||reference||; absolute norm for a zero reference.

    Nonnegative and zero iff the inputs are identical.
    """
    candidate, reference = _pair(candidate, reference)
    diff = l2(candidate - reference)
    ref_norm = l2(reference)
    if ref_norm == 0.0:
        return diff
    return diff / ref_norm


def psnr(candidate, reference) -> float:
    """Peak signal-to-noise ratio in dB against the reference's value range.

    Computed in log form, 20 * (log10(peak) - log10(rms)), with the
    root-mean-square error taken from `l2` and floored at a tiny constant:
    identical inputs report a large finite value instead of infinity, and
    an error whose square overflows still reports a finite one.
    """
    candidate, reference = _pair(candidate, reference)
    peak = float(reference.max() - reference.min())
    if peak == 0.0:
        peak = 1.0
    rms = l2(candidate - reference) / math.sqrt(reference.size)
    return 20.0 * (math.log10(peak) - math.log10(max(rms, _RMS_FLOOR)))
