"""Tests for the trainable noise tensor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MultiNoiseTensor, NoiseTensor
from repro.errors import ConfigurationError
from tests.helpers import random_data_trainer


class TestLaplaceInit:
    def test_shape_has_broadcast_dim(self, rng):
        noise = NoiseTensor.from_laplace((4, 5, 5), rng)
        assert noise.shape == (1, 4, 5, 5)

    def test_location_parameter(self, rng):
        noise = NoiseTensor.from_laplace((64, 8, 8), rng, loc=3.0, scale=0.5)
        assert noise.numpy().mean() == pytest.approx(3.0, abs=0.1)

    def test_scale_parameter_controls_spread(self, rng):
        small = NoiseTensor.from_laplace((64, 8, 8), rng, scale=0.5)
        large = NoiseTensor.from_laplace((64, 8, 8), rng, scale=4.0)
        assert large.numpy().std() > small.numpy().std() * 3

    def test_laplace_variance(self, rng):
        # Var[Laplace(0, b)] = 2 b^2.
        b = 1.5
        noise = NoiseTensor.from_laplace((32, 16, 16), rng, scale=b)
        assert noise.variance() == pytest.approx(2 * b * b, rel=0.1)

    def test_requires_grad(self, rng):
        assert NoiseTensor.from_laplace((2, 3, 3), rng).requires_grad

    def test_invalid_shape(self, rng):
        with pytest.raises(ConfigurationError):
            NoiseTensor.from_laplace((0, 3, 3), rng)

    def test_invalid_scale(self, rng):
        with pytest.raises(ConfigurationError):
            NoiseTensor.from_laplace((2, 3, 3), rng, scale=0.0)


class TestFromArray:
    def test_adds_batch_dim(self):
        noise = NoiseTensor.from_array(np.zeros((2, 3, 3)))
        assert noise.shape == (1, 2, 3, 3)

    def test_keeps_existing_batch_dim(self):
        noise = NoiseTensor.from_array(np.zeros((1, 2, 3, 3)))
        assert noise.shape == (1, 2, 3, 3)

    def test_per_sample_strips_batch(self):
        noise = NoiseTensor.from_array(np.ones((2, 3, 3)))
        assert noise.per_sample.shape == (2, 3, 3)


class TestOwnsItsData:
    """Adam updates a noise parameter in place, so wrapping an array must
    copy it: the caller's draw stays the initial noise it was."""

    @pytest.mark.parametrize("wrap", ["init", "from_array", "bank"])
    def test_training_leaves_the_wrapped_draw_unchanged(self, wrap):
        shape = random_data_trainer("lenet").split.activation_shape
        members = 2 if wrap == "bank" else 1
        draw = np.random.default_rng(3).laplace(size=(members, *shape))
        draw = draw.astype(np.float32)
        original = draw.copy()

        def learn(initial):
            trainer = random_data_trainer("lenet")
            if wrap == "bank":
                results = trainer.train_many(MultiNoiseTensor(initial), 3)
                return np.stack([result.noise for result in results])
            if wrap == "init":
                return trainer.train(NoiseTensor(initial), 3).noise
            return trainer.train(NoiseTensor.from_array(initial[0]), 3).noise

        learn(draw)
        np.testing.assert_array_equal(draw, original)
        np.testing.assert_array_equal(learn(draw), learn(original.copy()))


class TestStatistics:
    def test_magnitude_l1(self):
        noise = NoiseTensor.from_array(np.array([[1.0, -2.0], [0.5, 0.0]]))
        assert noise.magnitude_l1() == pytest.approx(3.5)

    def test_variance_zero_for_constant(self):
        assert NoiseTensor.from_array(np.full((4, 4), 2.0)).variance() == 0.0

    def test_broadcast_addition_over_batch(self, rng):
        from repro.nn import Tensor

        noise = NoiseTensor.from_laplace((2, 3, 3), rng)
        batch = Tensor(np.zeros((5, 2, 3, 3), dtype=np.float32))
        out = batch + noise
        assert out.shape == (5, 2, 3, 3)
        np.testing.assert_allclose(out.numpy()[0], noise.per_sample)
        np.testing.assert_allclose(out.numpy()[4], noise.per_sample)

    def test_gradient_sums_over_batch(self, rng):
        from repro.nn import Tensor

        noise = NoiseTensor.from_laplace((1, 2, 2), rng)
        batch = Tensor(np.ones((7, 1, 2, 2), dtype=np.float32))
        (batch + noise).sum().backward()
        np.testing.assert_allclose(noise.grad, np.full((1, 1, 2, 2), 7.0))
