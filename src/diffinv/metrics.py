"""Desk-scale reconstruction metrics on raw latents."""

from __future__ import annotations

import math

import numpy as np

_MSE_FLOOR = 1e-300  # keeps psnr finite for perfect reconstructions


def l2(x) -> float:
    """Euclidean norm of the flattened array, finite whenever the true norm fits float64.

    When the plain sum of squares overflows on finite entries, the entries
    are first divided by the largest |entry| (as `spectral_norm` does);
    otherwise the result is the plain `np.linalg.norm`, bit for bit: the
    square root of one dot product, which the solver pays once per iteration.
    """
    flat = np.asarray(x, dtype=np.float64).ravel()
    with np.errstate(over="ignore"):
        norm = math.sqrt(flat.dot(flat))
    if norm == math.inf and np.isfinite(flat).all():
        peak = float(np.max(np.abs(flat)))
        norm = peak * float(np.linalg.norm(flat / peak))
    return norm


def mse(a, b) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def relative_l2(candidate, reference) -> float:
    """||candidate - reference|| / ||reference||; absolute norm for a zero reference.

    Nonnegative and zero iff the inputs are identical.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if candidate.shape != reference.shape:
        raise ValueError(f"shape mismatch: {candidate.shape} vs {reference.shape}")
    diff = l2(candidate - reference)
    ref_norm = l2(reference)
    if ref_norm == 0.0:
        return diff
    return diff / ref_norm


def psnr(candidate, reference) -> float:
    """Peak signal-to-noise ratio in dB against the reference's value range.

    The mean squared error is floored at a tiny constant so identical
    inputs report a large finite value instead of infinity.
    """
    err = max(mse(candidate, reference), _MSE_FLOOR)
    reference = np.asarray(reference, dtype=np.float64)
    peak = float(reference.max() - reference.min())
    if peak == 0.0:
        peak = 1.0
    return 10.0 * math.log10(peak**2 / err)
