"""Signal-to-noise ratio and the *in vivo* notion of privacy.

Paper §2.3: computing mutual information at every training step is far too
expensive, so Shredder trains against ``1/SNR`` with
``SNR = E[a²] / σ²(n)`` — expected squared activation over noise variance.
The numerator is a property of the frozen network and dataset, so it is
computed once and treated as a constant during noise training.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EstimatorError


def signal_power(activations: np.ndarray) -> float:
    """``E[a²]`` over a batch of clean activations at the cut point."""
    activations = np.asarray(activations)
    if activations.size == 0:
        raise EstimatorError("cannot compute signal power of an empty batch")
    return float(np.mean(np.square(activations, dtype=np.float64)))


def noise_variance(noise: np.ndarray) -> float:
    """``σ²(n)`` — population variance over the noise elements."""
    noise = np.asarray(noise)
    if noise.size == 0:
        raise EstimatorError("cannot compute the variance of an empty noise tensor")
    return float(noise.astype(np.float64).var())


def snr(activations: np.ndarray, noise: np.ndarray) -> float:
    """``SNR = E[a²] / σ²(n)`` (paper §2.3)."""
    variance = noise_variance(noise)
    if variance <= 0:
        raise EstimatorError("noise variance must be positive to compute SNR")
    return signal_power(activations) / variance


def in_vivo_privacy(activations: np.ndarray, noise: np.ndarray) -> float:
    """``1/SNR`` — the training-time privacy proxy."""
    return 1.0 / snr(activations, noise)


def noise_variance_members(noise: np.ndarray) -> np.ndarray:
    """Per-member ``σ²(n_m)`` over an ``(M, ...)`` noise bank.

    Each entry is :func:`noise_variance` of the member's slice, up to
    float64 rounding, and is computed from that slice alone, so a member's
    value does not depend on the bank size.
    """
    noise = np.asarray(noise)
    if noise.ndim < 2 or noise.size == 0:
        raise EstimatorError(
            f"expected a non-empty (M, ...) noise bank, got shape {noise.shape}"
        )
    # Two-pass variance, hand-rolled: this runs every training step and
    # np.var's dispatch overhead dominates on member-sized slices.  Each
    # row is squared and summed on its own; an ``ij,ij->i`` einsum picks
    # another kernel for one row than for several and rounds differently.
    flat = noise.reshape(noise.shape[0], -1)
    mean = flat.mean(axis=1, dtype=np.float64)
    centered = flat - mean[:, None]
    return np.square(centered, out=centered).sum(axis=1) / flat.shape[1]


def in_vivo_privacy_members(power: float, noise: np.ndarray) -> np.ndarray:
    """Per-member ``σ²(n_m) / E[a²]`` — the batched 1/SNR vector."""
    if power <= 0:
        raise EstimatorError(f"signal power must be positive, got {power}")
    return noise_variance_members(noise) / power
