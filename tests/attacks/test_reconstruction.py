"""Tests for the reconstruction attacks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import (
    LinearInverter,
    NearestNeighbourInverter,
    evaluate_reconstruction,
)
from repro.errors import ConfigurationError, EstimatorError
from tests.oracles import reconstruct_reference


@pytest.fixture()
def linear_channel(rng):
    """Inputs leaked through a random linear map plus small noise."""
    inputs = rng.standard_normal((120, 1, 6, 6)).astype(np.float32)
    mixing = rng.standard_normal((36, 20)).astype(np.float32)
    activations = inputs.reshape(120, 36) @ mixing
    activations += 0.01 * rng.standard_normal(activations.shape).astype(np.float32)
    return inputs, activations


class TestNearestNeighbour:
    def test_recovers_exact_corpus_members(self, linear_channel):
        inputs, activations = linear_channel
        attack = NearestNeighbourInverter(inputs, activations)
        recon = attack.reconstruct(activations[:5])
        np.testing.assert_allclose(recon, inputs[:5])

    def test_validates_pairing(self, rng):
        with pytest.raises(ConfigurationError):
            NearestNeighbourInverter(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            NearestNeighbourInverter(np.zeros((0, 2)), np.zeros((0, 2)))

    def test_width_mismatch_rejected(self, linear_channel):
        inputs, activations = linear_channel
        attack = NearestNeighbourInverter(inputs, activations)
        with pytest.raises(EstimatorError):
            attack.reconstruct(np.zeros((2, 7)))

    def test_noise_degrades_nn_attack(self, linear_channel, rng):
        inputs, activations = linear_channel
        attack = NearestNeighbourInverter(inputs[:100], activations[:100])
        probe_inputs = inputs[100:]
        clean_recon = attack.reconstruct(activations[100:])
        noisy_obs = activations[100:] + 20.0 * rng.standard_normal(
            activations[100:].shape
        ).astype(np.float32)
        noisy_recon = attack.reconstruct(noisy_obs)
        clean = evaluate_reconstruction(probe_inputs, clean_recon, inputs[:100])
        noisy = evaluate_reconstruction(probe_inputs, noisy_recon, inputs[:100])
        assert noisy.mse >= clean.mse


class TestLinearInverter:
    def test_near_perfect_on_clean_linear_channel(self, linear_channel):
        inputs, activations = linear_channel
        attack = LinearInverter(ridge=1e-4).fit(inputs[:100], activations[:100])
        recon = attack.reconstruct(activations[100:])
        report = evaluate_reconstruction(inputs[100:], recon, inputs[:100])
        assert report.advantage > 0.2  # decodes much better than the mean

    def test_reconstruct_before_fit_rejected(self):
        with pytest.raises(EstimatorError):
            LinearInverter().reconstruct(np.zeros((2, 4)))

    def test_pairing_validated(self):
        with pytest.raises(ConfigurationError):
            LinearInverter().fit(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ConfigurationError):
            LinearInverter().fit(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_invalid_ridge(self):
        with pytest.raises(ConfigurationError):
            LinearInverter(ridge=0.0)

    def test_output_shape_matches_inputs(self, linear_channel):
        inputs, activations = linear_channel
        attack = LinearInverter().fit(inputs, activations)
        recon = attack.reconstruct(activations[:7])
        assert recon.shape == (7, 1, 6, 6)

    def test_heavy_noise_collapses_advantage(self, linear_channel, rng):
        inputs, activations = linear_channel
        noisy = activations + 100.0 * rng.standard_normal(activations.shape).astype(
            np.float32
        )
        attack = LinearInverter().fit(inputs[:100], noisy[:100])
        recon = attack.reconstruct(noisy[100:])
        report = evaluate_reconstruction(inputs[100:], recon, inputs[:100])
        assert abs(report.advantage) < 0.3


class TestAgainstRealSplitModel:
    def test_shredder_noise_blunts_linear_inversion(self, lenet_bundle, rng):
        # End-to-end: invert LeNet's conv0 activations with and without
        # strong per-sample noise; noise must reduce the decoder advantage.
        from repro.core import SplitInferenceModel

        split = SplitInferenceModel(lenet_bundle.model, cut="conv0")
        activations, _ = split.materialize_activations(lenet_bundle.test_set)
        images = lenet_bundle.test_set.images
        half = len(images) // 2
        sigma = 4.0 * float(np.abs(activations).std())
        noisy = activations + rng.laplace(0, sigma, size=activations.shape).astype(
            np.float32
        )

        clean_attack = LinearInverter().fit(images[:half], activations[:half])
        clean_report = evaluate_reconstruction(
            images[half:], clean_attack.reconstruct(activations[half:]), images[:half]
        )
        noisy_attack = LinearInverter().fit(images[:half], noisy[:half])
        noisy_report = evaluate_reconstruction(
            images[half:], noisy_attack.reconstruct(noisy[half:]), images[:half]
        )
        assert clean_report.advantage > 0.1
        assert noisy_report.advantage < clean_report.advantage


class TestVectorisedMatchingParity:
    def test_blocked_matches_reference_loop(self, rng):
        # Well-separated corpus: distance gaps are O(1), far above any
        # ulp-level difference between GEMM geometries, so the chosen
        # indices must agree exactly.
        corpus_inputs = rng.normal(size=(40, 1, 6, 6)).astype(np.float32)
        corpus_acts = rng.normal(size=(40, 17)).astype(np.float32)
        inverter = NearestNeighbourInverter(corpus_inputs, corpus_acts)
        observed = corpus_acts[:15] + rng.normal(0, 0.05, size=(15, 17)).astype(np.float32)
        np.testing.assert_array_equal(
            inverter.reconstruct(observed),
            reconstruct_reference(inverter, observed),
        )

    def test_blocking_boundaries_do_not_change_matches(self, rng, monkeypatch):
        from repro.attacks import _matching

        corpus_inputs = rng.normal(size=(10, 4)).astype(np.float32)
        corpus_acts = rng.normal(size=(10, 8)).astype(np.float32)
        observed = rng.normal(size=(23, 8)).astype(np.float32)
        inverter = NearestNeighbourInverter(corpus_inputs, corpus_acts)
        unblocked = inverter.match_indices(observed)
        # Force tiny blocks: matches must agree (distance gaps dominate
        # any blocking-dependent rounding).
        monkeypatch.setattr(_matching, "BLOCK_ELEMENTS", 16)
        blocked = inverter.match_indices(observed)
        np.testing.assert_array_equal(unblocked, blocked)
