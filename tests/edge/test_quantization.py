"""Tests for the wire quantisation codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge import (
    QuantizationParams,
    WeightQuantization,
    calibrate,
    dequantize,
    quantization_error,
    quantize,
    quantize_weights,
    wire_bytes,
)
from repro.errors import ChannelError, ConfigurationError


class TestParams:
    def test_levels(self):
        assert QuantizationParams(0.1, 0, 8).levels == 256

    def test_bytes_per_element(self):
        assert QuantizationParams(0.1, 0, 8).bytes_per_element == 1
        assert QuantizationParams(0.1, 0, 12).bytes_per_element == 2

    def test_bad_bits(self):
        with pytest.raises(ConfigurationError):
            QuantizationParams(0.1, 0, 1)
        with pytest.raises(ConfigurationError):
            QuantizationParams(0.1, 0, 17)

    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            QuantizationParams(0.0, 0, 8)

    def test_bad_zero_point(self):
        with pytest.raises(ConfigurationError):
            QuantizationParams(0.1, 256, 8)


class TestCalibrate:
    def test_covers_full_range(self, rng):
        tensor = rng.uniform(-3.0, 5.0, size=(4, 8, 8))
        params = calibrate(tensor, bits=8)
        codes = quantize(tensor, params)
        decoded = dequantize(codes, params)
        step = params.scale
        assert np.abs(decoded - tensor).max() <= step / 2 + 1e-6

    def test_percentile_clips_outliers(self, rng):
        tensor = np.concatenate([rng.normal(size=10000), [1000.0]])
        clipped = calibrate(tensor, bits=8, percentile=99.0)
        full = calibrate(tensor, bits=8)
        assert clipped.scale < full.scale

    def test_constant_tensor(self):
        params = calibrate(np.full((4, 4), 2.0), bits=8)
        round_trip = dequantize(quantize(np.full((4, 4), 2.0), params), params)
        np.testing.assert_allclose(round_trip, 2.0, atol=1e-4)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            calibrate(np.array([]))

    def test_bad_percentile(self, rng):
        with pytest.raises(ConfigurationError):
            calibrate(rng.normal(size=8), percentile=0.0)


class TestRoundTrip:
    def test_error_bounded_by_half_step(self, rng):
        tensor = rng.normal(size=(2, 3, 5)).astype(np.float32)
        params = calibrate(tensor, bits=8)
        error = quantization_error(tensor, params)
        assert error <= params.scale  # RMS well under one step

    def test_more_bits_less_error(self, rng):
        tensor = rng.normal(size=(512,))
        coarse = quantization_error(tensor, calibrate(tensor, bits=4))
        fine = quantization_error(tensor, calibrate(tensor, bits=10))
        assert fine < coarse

    def test_codes_within_range(self, rng):
        tensor = rng.normal(size=(64,))
        params = calibrate(tensor, bits=6)
        codes = quantize(tensor, params)
        assert codes.min() >= 0
        assert codes.max() < params.levels

    def test_out_of_range_values_clip(self, rng):
        tensor = rng.normal(size=(64,))
        params = calibrate(tensor, bits=8)
        codes = quantize(tensor * 100.0, params)
        assert codes.max() == params.levels - 1

    def test_dequantize_rejects_bad_codes(self):
        params = QuantizationParams(0.1, 0, 4)
        with pytest.raises(ChannelError):
            dequantize(np.array([16]), params)


class TestWireSize:
    def test_wire_bytes_8bit(self):
        params = QuantizationParams(0.1, 0, 8)
        assert wire_bytes((16, 4, 4), params) == 256

    def test_compression_ratio_vs_float32(self):
        params = QuantizationParams(0.1, 0, 8)
        float_bytes = 16 * 4 * 4 * 4
        assert float_bytes / wire_bytes((16, 4, 4), params) == 4.0


class TestProperties:
    @given(
        seed=st.integers(0, 2**16),
        bits=st.integers(3, 12),
        span=st.floats(0.5, 50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_round_trip_error_below_one_step(self, seed, bits, span):
        rng = np.random.default_rng(seed)
        tensor = rng.uniform(-span, span, size=(64,))
        params = calibrate(tensor, bits=bits)
        decoded = dequantize(quantize(tensor, params), params)
        assert np.abs(decoded - tensor).max() <= params.scale / 2 + 1e-9 * span

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_quantize_is_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        tensor = rng.normal(size=(32,))
        params = calibrate(tensor, bits=8)
        once = dequantize(quantize(tensor, params), params)
        twice = dequantize(quantize(once, params), params)
        np.testing.assert_allclose(once, twice, atol=1e-6)


class TestWeightQuantization:
    """Property tests pinning the per-channel symmetric weight quantiser
    consumed by the opt-in ``int8_weights`` IR rewrite."""

    @given(
        seed=st.integers(0, 2**16),
        bits=st.integers(2, 8),
        rows=st.integers(1, 12),
        cols=st.integers(1, 48),
        span=st.floats(1e-3, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_error_within_half_scale_per_channel(
        self, seed, bits, rows, cols, span
    ):
        rng = np.random.default_rng(seed)
        weight = rng.uniform(-span, span, size=(rows, cols)).astype(np.float32)
        wq = quantize_weights(weight, bits=bits)
        err = np.abs(wq.dequantized().astype(np.float64) - weight.astype(np.float64))
        # Half a quantisation step per channel, plus slack for the scales
        # themselves being stored in float32.
        bound = wq.scales.astype(np.float64)[:, None] / 2.0
        slack = np.abs(weight).max(initial=0.0) * 1e-5 + 1e-12
        assert (err <= bound + slack).all()

    @given(
        seed=st.integers(0, 2**16),
        bits=st.integers(2, 8),
        rows=st.integers(1, 12),
        cols=st.integers(1, 48),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_and_scales_invariants(self, seed, bits, rows, cols):
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(rows, cols)).astype(np.float32)
        wq = quantize_weights(weight, bits=bits)
        qmax = (1 << (bits - 1)) - 1
        assert wq.qmax == qmax
        assert wq.codes.dtype == np.int8
        assert wq.codes.shape == weight.shape
        assert wq.codes.flags["C_CONTIGUOUS"]
        assert wq.codes.min() >= -qmax and wq.codes.max() <= qmax
        assert wq.scales.dtype == np.float32
        assert wq.scales.shape == (rows,)
        assert (wq.scales > 0).all()
        assert wq.code_bytes == rows * cols
        # Each row's absmax element maps exactly to ±qmax.
        hit = np.abs(wq.codes).max(axis=1)
        nonzero = np.abs(weight).max(axis=1) > 0
        assert (hit[nonzero] == qmax).all()

    @given(
        seed=st.integers(0, 2**16),
        bits=st.integers(2, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_symmetric_zero_point_negation(self, seed, bits):
        # Zero point is 0 by construction: negating the weights negates the
        # codes and leaves the scales untouched.  (np.round ties go to even,
        # which is itself sign-symmetric, so this holds exactly.)
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(6, 17)).astype(np.float32)
        pos = quantize_weights(weight, bits=bits)
        neg = quantize_weights(-weight, bits=bits)
        np.testing.assert_array_equal(neg.codes, -pos.codes)
        np.testing.assert_array_equal(neg.scales, pos.scales)

    def test_zero_rows_get_unit_scale_and_zero_codes(self):
        weight = np.zeros((3, 8), dtype=np.float32)
        weight[1] = np.linspace(-1.0, 1.0, 8)
        wq = quantize_weights(weight, bits=8)
        assert (wq.codes[0] == 0).all() and (wq.codes[2] == 0).all()
        assert wq.scales[0] == 1.0 and wq.scales[2] == 1.0
        assert np.abs(wq.codes[1]).max() == 127

    def test_dequantized_dtype_and_shape(self, rng):
        weight = rng.normal(size=(5, 9)).astype(np.float32)
        wq = quantize_weights(weight, bits=8)
        dq = wq.dequantized()
        assert dq.dtype == np.float32
        assert dq.shape == weight.shape

    def test_rejects_bad_bits(self, rng):
        weight = rng.normal(size=(2, 4))
        with pytest.raises(ConfigurationError):
            quantize_weights(weight, bits=1)
        with pytest.raises(ConfigurationError):
            quantize_weights(weight, bits=9)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ConfigurationError):
            quantize_weights(rng.normal(size=(4,)))
        with pytest.raises(ConfigurationError):
            quantize_weights(rng.normal(size=(2, 3, 4)))

    def test_is_weight_quantization_instance(self, rng):
        wq = quantize_weights(rng.normal(size=(2, 4)))
        assert isinstance(wq, WeightQuantization)
        assert wq.bits == 8
