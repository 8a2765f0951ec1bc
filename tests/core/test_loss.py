"""Tests for the Shredder loss (Eq. 2 / Eq. 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import NoiseTensor, ShredderLoss
from repro.errors import ConfigurationError
from repro.nn import Tensor


@pytest.fixture()
def logits_and_targets(rng):
    logits = Tensor(rng.standard_normal((8, 5)).astype(np.float32), requires_grad=True)
    targets = rng.integers(0, 5, size=8)
    return logits, targets


class TestEq3L1Variant:
    def test_total_is_ce_minus_lambda_l1(self, logits_and_targets, rng):
        logits, targets = logits_and_targets
        noise = NoiseTensor.from_laplace((2, 3, 3), rng)
        loss = ShredderLoss(lambda_coeff=0.01)
        total, parts = loss(logits, targets, noise)
        assert parts.total == pytest.approx(
            parts.cross_entropy - 0.01 * parts.privacy_term, rel=1e-5
        )
        assert parts.privacy_term == pytest.approx(noise.magnitude_l1(), rel=1e-5)

    def test_lambda_zero_is_pure_cross_entropy(self, logits_and_targets, rng):
        logits, targets = logits_and_targets
        noise = NoiseTensor.from_laplace((2, 3, 3), rng)
        total, parts = ShredderLoss(0.0)(logits, targets, noise)
        assert parts.total == pytest.approx(parts.cross_entropy)

    def test_gradient_grows_noise_magnitude(self, logits_and_targets, rng):
        # The "anti weight decay" property: with no CE pressure the update
        # direction is -λ·sign(n) on the loss, so a gradient step makes
        # positive entries bigger and negative entries smaller (paper §2.4).
        logits, targets = logits_and_targets
        noise = NoiseTensor.from_laplace((2, 3, 3), rng, scale=1.0)
        loss = ShredderLoss(lambda_coeff=1.0)
        total, _ = loss(logits.detach(), targets, noise)  # CE has no noise path
        total.backward()
        np.testing.assert_allclose(noise.grad, -np.sign(noise.numpy()), rtol=1e-5)

    def test_larger_noise_lowers_loss(self, logits_and_targets, rng):
        logits, targets = logits_and_targets
        small = NoiseTensor.from_array(np.full((2, 2), 0.5))
        large = NoiseTensor.from_array(np.full((2, 2), 5.0))
        loss = ShredderLoss(lambda_coeff=0.1)
        total_small, _ = loss(logits, targets, small)
        total_large, _ = loss(logits, targets, large)
        assert total_large.item() < total_small.item()


class TestEq2InverseVarianceVariant:
    def test_total_is_ce_plus_lambda_inverse_variance(self, logits_and_targets, rng):
        logits, targets = logits_and_targets
        noise = NoiseTensor.from_laplace((2, 3, 3), rng)
        loss = ShredderLoss(lambda_coeff=0.01, variant="inverse_variance")
        total, parts = loss(logits, targets, noise)
        assert parts.privacy_term == pytest.approx(1.0 / noise.variance(), rel=1e-3)
        assert parts.total == pytest.approx(
            parts.cross_entropy + 0.01 * parts.privacy_term, rel=1e-4
        )

    def test_higher_variance_lowers_privacy_term(self, logits_and_targets, rng):
        logits, targets = logits_and_targets
        loss = ShredderLoss(0.01, variant="inverse_variance")
        _, narrow = loss(logits, targets, NoiseTensor.from_laplace((4, 4, 4), rng, scale=0.5))
        _, wide = loss(logits, targets, NoiseTensor.from_laplace((4, 4, 4), rng, scale=3.0))
        assert wide.privacy_term < narrow.privacy_term

    def test_gradient_increases_variance(self, logits_and_targets, rng):
        logits, targets = logits_and_targets
        noise = NoiseTensor.from_laplace((4, 4, 4), rng, scale=1.0)
        loss = ShredderLoss(1.0, variant="inverse_variance")
        before = noise.variance()
        total, _ = loss(logits.detach(), targets, noise)
        total.backward()
        noise.data -= 0.1 * noise.grad  # one SGD step
        assert noise.variance() > before


class TestValidation:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            ShredderLoss(-0.1)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            ShredderLoss(0.1, variant="l2")

