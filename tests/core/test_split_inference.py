"""Tests for the split-inference runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import SplitInferenceModel
from repro.edge import EdgeDevice, _fastexec
from repro.errors import ModelError, TrainingError
from repro.models import build_model
from repro.nn import Tensor, TensorDataset, no_grad
from repro.privacy import estimate_leakage
from tests.helpers import randomise_batch_norms


@pytest.fixture()
def split(lenet_bundle):
    return SplitInferenceModel(lenet_bundle.model)


class TestConstruction:
    def test_default_cut_is_last_conv(self, lenet_bundle, split):
        assert split.cut == lenet_bundle.model.last_conv_cut()

    def test_explicit_cut(self, lenet_bundle):
        split = SplitInferenceModel(lenet_bundle.model, cut="conv0")
        assert split.cut == "conv0"

    def test_activation_shape_per_sample(self, split):
        assert len(split.activation_shape) == 3


class TestForwardPaths:
    def test_prediction_matches_full_model(self, lenet_bundle, split):
        images = lenet_bundle.test_set.images[:8]
        with no_grad():
            expected = lenet_bundle.model(Tensor(images)).numpy()
        np.testing.assert_allclose(split.predict(images), expected, rtol=1e-5, atol=1e-6)

    def test_zero_noise_is_identity(self, lenet_bundle, split):
        images = lenet_bundle.test_set.images[:4]
        clean = split.predict(images)
        zero = np.zeros((1, *split.activation_shape), dtype=np.float32)
        np.testing.assert_allclose(split.predict(images, zero), clean, rtol=1e-5, atol=1e-6)

    def test_noise_changes_logits(self, lenet_bundle, split, rng):
        images = lenet_bundle.test_set.images[:4]
        noise = rng.laplace(0, 5, size=(1, *split.activation_shape)).astype(np.float32)
        assert not np.allclose(split.predict(images, noise), split.predict(images))

    def test_per_sample_noise_accepted(self, lenet_bundle, split, rng):
        images = lenet_bundle.test_set.images[:4]
        noise = rng.laplace(0, 1, size=(4, *split.activation_shape)).astype(np.float32)
        out = split.predict(images, noise)
        assert out.shape == (4, 10)


class TestDatasetHelpers:
    def test_materialize_shapes(self, lenet_bundle, split):
        activations, labels = split.materialize_activations(lenet_bundle.test_set)
        assert len(activations) == len(lenet_bundle.test_set)
        assert activations.shape[1:] == split.activation_shape
        np.testing.assert_array_equal(labels, lenet_bundle.test_set.labels)

    def test_materialize_empty_rejected(self, split):
        empty = TensorDataset(np.zeros((0, 1, 28, 28), dtype=np.float32), np.zeros(0))
        with pytest.raises(TrainingError):
            split.materialize_activations(empty)

    def test_accuracy_matches_cached_path(self, lenet_bundle, split):
        direct = split.accuracy(lenet_bundle.test_set)
        activations, labels = split.materialize_activations(lenet_bundle.test_set)
        cached = split.accuracy_from_activations(activations, labels)
        assert direct == pytest.approx(cached)

    def test_accuracy_from_activations_validates_pairing(self, split, rng):
        with pytest.raises(ModelError):
            split.accuracy_from_activations(
                rng.standard_normal((4, *split.activation_shape)), np.zeros(5)
            )

    def test_huge_noise_destroys_accuracy(self, lenet_bundle, split, rng):
        activations, labels = split.materialize_activations(lenet_bundle.test_set)
        clean = split.accuracy_from_activations(activations, labels)
        wild = rng.laplace(0, 1000, size=(1, *split.activation_shape)).astype(np.float32)
        noisy = split.accuracy_from_activations(activations, labels, wild)
        assert noisy < clean


def _backbone_split(name: str, seed: int = 11):
    """A width-0.5 backbone with randomised BN statistics, left in training
    mode, plus a float32 dataset of its inputs."""
    rng = np.random.default_rng(seed)
    model = build_model(name, rng, width=0.5)
    randomise_batch_norms(model.net, rng)
    images = rng.normal(size=(9, *model.input_shape)).astype(np.float32)
    return SplitInferenceModel(model), TensorDataset(images, np.arange(9) % 10)


@pytest.fixture(params=["native", "numpy"])
def backend(request, monkeypatch):
    """Run the test on one executor backend: "auto" (the default that both
    the split and the edge device use) picks numpy when native is off."""
    if request.param == "native" and not _fastexec.available():
        pytest.skip("native kernels unavailable")
    if request.param == "numpy":
        monkeypatch.setattr(_fastexec, "available", lambda: False)
    return request.param


class TestExecutorMaterialisation:
    """Training activations are the edge device's activations."""

    @pytest.mark.parametrize("name", ["lenet", "svhn", "cifar", "alexnet"])
    def test_bitwise_equal_to_edge_device(self, name, backend):
        split, dataset = _backbone_split(name)
        activations, _ = split.materialize_activations(dataset)
        assert activations.dtype == np.float32
        channels = split.model.input_shape[0]
        device = EdgeDevice(
            split.local, np.zeros(channels, np.float32), np.ones(channels, np.float32)
        )
        sent = device.forward_batch([dataset.images]).tensor
        np.testing.assert_array_equal(activations, sent)

    def test_independent_of_batch_size(self, backend):
        split, dataset = _backbone_split("cifar")
        reference, _ = split.materialize_activations(dataset, batch_size=128)
        for batch_size in (1, 7):
            activations, _ = split.materialize_activations(dataset, batch_size=batch_size)
            np.testing.assert_array_equal(activations, reference)

    def test_training_mode_model_runs_eval_and_is_restored(self):
        split, dataset = _backbone_split("cifar")
        statistics = {k: v.copy() for k, v in split.model.state_dict().items()}
        assert split.model.training
        activations = split.activations(dataset.images)
        assert split.model.training
        assert all(module.training for module in split.model.net.layers())
        for name, array in split.model.state_dict().items():
            np.testing.assert_array_equal(array, statistics[name])
        split.model.eval()
        with no_grad():
            expected = split.local(Tensor(dataset.images)).numpy()
        np.testing.assert_allclose(activations, expected, atol=2e-4, rtol=2e-4)


class TestInformationInvariance:
    def test_fixed_noise_is_constant_shift(self, lenet_bundle, split, rng):
        # I(x; a + c) == I(x; a) for a constant tensor c: the reason the
        # paper needs noise *sampling* (§2.5) for deployment privacy.
        activations, _ = split.materialize_activations(lenet_bundle.test_set)
        images = lenet_bundle.test_set.images
        fixed = rng.laplace(0, 3, size=(1, *split.activation_shape)).astype(np.float32)
        original = estimate_leakage(images, activations, n_components=6).mi_bits
        shifted = estimate_leakage(images, activations + fixed, n_components=6).mi_bits
        assert shifted == pytest.approx(original, abs=0.15)

    def test_per_sample_noise_reduces_information(self, lenet_bundle, split, rng):
        activations, _ = split.materialize_activations(lenet_bundle.test_set)
        images = lenet_bundle.test_set.images
        sigma = 5.0 * np.abs(activations).mean()
        per_sample = rng.laplace(0, sigma, size=activations.shape).astype(np.float32)
        original = estimate_leakage(images, activations, n_components=6).mi_bits
        noisy = estimate_leakage(images, activations + per_sample, n_components=6).mi_bits
        assert noisy < original
