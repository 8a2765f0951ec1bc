"""Activation quantisation for the edge→cloud wire.

The paper's §3.4 cost model charges 4 bytes per activation element
(float32).  A practical split-inference deployment would quantise the
communicated tensor — an 8-bit affine code cuts communication 4× — and
because Shredder's noisy activations already tolerate large perturbation,
quantisation error is essentially free accuracy-wise.  This module
provides the uniform affine quantiser used by the deployment runtime and
the communication-ablation benchmark.  The batched serving plane
(:class:`repro.serve.ControlPlane`) quantises each micro-batch's *stacked*
payload once — the code parameters travel in the batched frame header (see
:mod:`repro.edge.protocol`) and the cloud executor ingests the raw codes
directly: with the ``int8_ingest`` IR rewrite active
(:mod:`repro.edge.ir`) the uint8/uint16 codes feed the first conv/GEMM
as-is, the affine map folded into that op's epilogue, so no f32
dequantised copy of the payload is ever materialised; with rewrites
disabled the executor calls :func:`dequantize` internally, exactly like
the historical path.

Quantisation interacts with privacy in one direction only: it is a
deterministic, (almost) invertible per-element map, so it cannot *increase*
mutual information; the measured leakage of the dequantised tensor is the
relevant (and conservative) quantity.

Weights can be quantised too (:func:`quantize_weights`): per-output-channel
symmetric int8 codes with float32 scales, calibration-free (the scale is the
row absmax over 127).  Unlike activation quantisation this changes *what*
the model computes, so the ``int8_weights`` IR rewrite that consumes these
codes is opt-in (``weight_bits=8``) and gated on label agreement rather than
f32 closeness — see :mod:`repro.edge.ir`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ChannelError, ConfigurationError


@dataclass(frozen=True)
class QuantizationParams:
    """Affine code parameters shared by encoder and decoder.

    ``value ≈ scale * (code − zero_point)`` with codes in ``[0, 2**bits)``.
    """

    scale: float
    zero_point: int
    bits: int

    def __post_init__(self) -> None:
        if self.bits < 2 or self.bits > 16:
            raise ConfigurationError(f"bits must be in [2, 16], got {self.bits}")
        if self.scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {self.scale}")
        levels = 1 << self.bits
        if not 0 <= self.zero_point < levels:
            raise ConfigurationError(
                f"zero point {self.zero_point} outside [0, {levels})"
            )

    @property
    def levels(self) -> int:
        """Number of representable codes."""
        return 1 << self.bits

    @property
    def bytes_per_element(self) -> int:
        """Wire bytes per element (codes are packed into whole bytes)."""
        return (self.bits + 7) // 8


def calibrate(
    tensor: np.ndarray, bits: int = 8, percentile: float = 100.0
) -> QuantizationParams:
    """Derive affine parameters covering a calibration tensor's range.

    Args:
        tensor: Representative activations (e.g. the training-set
            activations at the cut point).
        bits: Code width.
        percentile: Range coverage; below 100 clips outliers symmetrically
            (e.g. 99.9 ignores the extreme tails, shrinking the step size).
    """
    tensor = np.asarray(tensor, dtype=np.float64)
    if tensor.size == 0:
        raise ConfigurationError("cannot calibrate on an empty tensor")
    if not 0 < percentile <= 100:
        raise ConfigurationError(f"percentile must be in (0, 100], got {percentile}")
    if percentile >= 100.0:
        low, high = float(tensor.min()), float(tensor.max())
    else:
        tail = (100.0 - percentile) / 2.0
        low, high = (float(v) for v in np.percentile(tensor, [tail, 100.0 - tail]))
    # Extend the range to include zero so that a valid integer zero point
    # always exists (the TF-Lite convention); also guards degenerate ranges.
    low, high = min(low, 0.0), max(high, 0.0)
    if high <= low:
        high = low + 1e-6
    levels = 1 << bits
    scale = (high - low) / (levels - 1)
    zero_point = int(round(-low / scale))
    zero_point = int(np.clip(zero_point, 0, levels - 1))
    return QuantizationParams(scale=scale, zero_point=zero_point, bits=bits)


def quantize(tensor: np.ndarray, params: QuantizationParams) -> np.ndarray:
    """Encode a float tensor to integer codes (dtype uint16, values fit
    the configured bit width)."""
    tensor = np.asarray(tensor, dtype=np.float64)
    codes = np.round(tensor / params.scale) + params.zero_point
    return np.clip(codes, 0, params.levels - 1).astype(np.uint16)


def dequantize(codes: np.ndarray, params: QuantizationParams) -> np.ndarray:
    """Decode integer codes back to float32 values."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= params.levels):
        raise ChannelError(
            f"codes outside [0, {params.levels}) for {params.bits}-bit params"
        )
    return ((codes.astype(np.float64) - params.zero_point) * params.scale).astype(
        np.float32
    )


def quantization_error(tensor: np.ndarray, params: QuantizationParams) -> float:
    """RMS round-trip error of quantising ``tensor``."""
    tensor = np.asarray(tensor, dtype=np.float64)
    round_trip = dequantize(quantize(tensor, params), params)
    return float(np.sqrt(np.mean(np.square(tensor - round_trip))))


def wire_bytes(shape: tuple[int, ...], params: QuantizationParams) -> int:
    """Payload bytes for a quantised tensor of the given shape."""
    return int(np.prod(shape)) * params.bytes_per_element


@dataclass(frozen=True)
class WeightQuantization:
    """Per-output-channel symmetric weight codes.

    ``weight[oc, k] ≈ scales[oc] * codes[oc, k]`` with int8 codes in
    ``[-qmax, qmax]`` and zero point 0 by construction (symmetric).  The
    codes matrix has the canonical GEMM layout ``(out_features, K)`` — the
    same shape :mod:`repro.edge.ir` lowers conv/linear weights to — so a
    quantised op swaps its weight pointer for the code plane and applies
    ``scales`` in the epilogue.
    """

    codes: np.ndarray  # int8, shape (out, K), C-contiguous
    scales: np.ndarray  # float32, shape (out,), strictly positive
    bits: int

    @property
    def qmax(self) -> int:
        """Largest code magnitude (127 for 8 bits)."""
        return (1 << (self.bits - 1)) - 1

    @property
    def code_bytes(self) -> int:
        """Bytes the code plane occupies (one byte per element)."""
        return int(self.codes.size)

    def dequantized(self) -> np.ndarray:
        """Reconstruct the float32 weight matrix (testing/reference only —
        the native backend never materialises this)."""
        return (
            self.scales[:, None].astype(np.float64) * self.codes.astype(np.float64)
        ).astype(np.float32)


def quantize_weights(weight: np.ndarray, bits: int = 8) -> WeightQuantization:
    """Per-output-channel symmetric quantisation of a 2-D weight matrix.

    Calibration-free post-training quantisation: each output channel's
    scale is ``absmax(row) / qmax`` so the row's extreme value maps exactly
    to ``±qmax`` and the representable grid is symmetric about zero (zero
    point 0, so no zero-point correction term is needed for the *weight*
    operand).  Rows that are identically zero get scale 1.0 and all-zero
    codes.  Round-trip error is bounded per element by ``scales[oc] / 2``.
    """
    if bits < 2 or bits > 8:
        raise ConfigurationError(f"weight bits must be in [2, 8], got {bits}")
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise ConfigurationError(
            f"quantize_weights expects a 2-D (out, K) matrix, got shape {weight.shape}"
        )
    qmax = (1 << (bits - 1)) - 1
    w64 = weight.astype(np.float64)
    absmax = np.max(np.abs(w64), axis=1)
    scales = absmax / qmax
    scales[absmax == 0.0] = 1.0  # zero rows quantise to zero codes exactly
    codes = np.clip(np.round(w64 / scales[:, None]), -qmax, qmax).astype(np.int8)
    return WeightQuantization(
        codes=np.ascontiguousarray(codes),
        scales=np.ascontiguousarray(scales.astype(np.float32)),
        bits=bits,
    )
