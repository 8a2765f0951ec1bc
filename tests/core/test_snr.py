"""Tests for SNR and the in-vivo privacy proxy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    in_vivo_privacy,
    noise_variance,
    signal_power,
    snr,
)
from repro.errors import EstimatorError


class TestSignalPower:
    def test_known_value(self):
        assert signal_power(np.array([1.0, -1.0, 2.0, 0.0])) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(EstimatorError):
            signal_power(np.array([]))


class TestNoiseVariance:
    def test_matches_numpy(self, rng):
        noise = rng.laplace(0, 2, size=(4, 8, 8))
        assert noise_variance(noise) == pytest.approx(noise.var(), rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(EstimatorError):
            noise_variance(np.array([]))


class TestSNR:
    def test_paper_formula(self, rng):
        activations = rng.standard_normal((16, 4, 4)) * 3
        noise = rng.laplace(0, 1, size=(4, 4))
        expected = np.mean(activations.astype(np.float64) ** 2) / noise.var()
        assert snr(activations, noise) == pytest.approx(expected, rel=1e-6)

    def test_zero_variance_noise_rejected(self, rng):
        with pytest.raises(EstimatorError):
            snr(rng.standard_normal(10), np.ones(10))

    def test_in_vivo_is_reciprocal(self, rng):
        activations = rng.standard_normal((8, 4))
        noise = rng.laplace(0, 1, size=(8, 4))
        assert in_vivo_privacy(activations, noise) == pytest.approx(
            1.0 / snr(activations, noise)
        )

    @given(st.floats(min_value=0.2, max_value=8.0))
    @settings(max_examples=20, deadline=None)
    def test_privacy_monotone_in_noise_scale(self, scale):
        # Bigger noise ==> strictly more in-vivo privacy (lower SNR).
        rng = np.random.default_rng(0)
        activations = rng.standard_normal((32, 8))
        base = rng.laplace(0, 1.0, size=(32, 8))
        assert in_vivo_privacy(activations, base * (scale + 0.1)) > in_vivo_privacy(
            activations, base * scale
        )
