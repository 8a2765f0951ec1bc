"""Gradient and value tests for the NN kernels."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import signal

from repro.errors import ShapeError
from repro.nn import functional as F
from repro.nn.im2col import conv_output_size, extract_windows, fold_windows
from repro.nn.tensor import Tensor
from tests.helpers import assert_gradcheck, tensor64


class TestIm2col:
    def test_output_size(self):
        assert conv_output_size(28, 5, 1, 0) == 24
        assert conv_output_size(32, 3, 2, 1) == 16

    def test_output_size_invalid(self):
        with pytest.raises(ShapeError):
            conv_output_size(2, 5, 1, 0)

    def test_extract_windows_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        windows = extract_windows(x, (3, 3), (2, 2), (1, 1))
        assert windows.shape == (2, 3, 3, 3, 4, 4)

    def test_extract_windows_values(self, rng):
        x = rng.standard_normal((1, 1, 4, 4))
        windows = extract_windows(x, (2, 2), (1, 1), (0, 0))
        np.testing.assert_allclose(windows[0, 0, :, :, 1, 2], x[0, 0, 1:3, 2:4])

    def test_extract_windows_requires_nchw(self):
        with pytest.raises(ShapeError):
            extract_windows(np.zeros((4, 4)), (2, 2), (1, 1), (0, 0))

    def test_fold_is_adjoint_of_extract(self, rng):
        # <W(x), y> == <x, W^T(y)> for random x, y: the defining property.
        x = rng.standard_normal((2, 2, 6, 6))
        windows = extract_windows(x, (3, 3), (2, 2), (1, 1))
        y = rng.standard_normal(windows.shape)
        lhs = float((windows * y).sum())
        folded = fold_windows(y, x.shape, (3, 3), (2, 2), (1, 1))
        rhs = float((x * folded).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestLinear:
    def test_leading_axes_match_per_slice_calls(self, rng):
        # (M, rows, in) input: each slice's output and input gradient are
        # bitwise a 2-D call on that slice alone; one GEMM over all M·rows
        # rows rounds differently at this shape.
        x_data = rng.standard_normal((5, 8, 64)).astype(np.float32)
        w_data = rng.standard_normal((32, 64)).astype(np.float32)
        b_data = rng.standard_normal(32).astype(np.float32)
        grad = rng.standard_normal((5, 8, 32)).astype(np.float32)
        x = Tensor(x_data.copy(), requires_grad=True)
        weight = Tensor(w_data.copy(), requires_grad=True)
        bias = Tensor(b_data.copy(), requires_grad=True)
        out = F.linear(x, weight, bias)
        out.backward(grad)
        assert out.shape == (5, 8, 32)
        for m in range(5):
            piece = Tensor(x_data[m].copy(), requires_grad=True)
            alone = F.linear(piece, Tensor(w_data), Tensor(b_data))
            alone.backward(grad[m])
            np.testing.assert_array_equal(out.data[m], alone.data)
            np.testing.assert_array_equal(x.grad[m], piece.grad)

    def test_leading_axes_parameter_gradients_match_flattened_call(self, rng):
        x_data = rng.standard_normal((3, 6, 20)).astype(np.float32)
        grad = rng.standard_normal((3, 6, 7)).astype(np.float32)
        w_data = rng.standard_normal((7, 20)).astype(np.float32)
        b_data = rng.standard_normal(7).astype(np.float32)
        grads = []
        for shape in ((3, 6, 20), (18, 20)):
            weight = Tensor(w_data.copy(), requires_grad=True)
            bias = Tensor(b_data.copy(), requires_grad=True)
            out = F.linear(Tensor(x_data.reshape(shape)), weight, bias)
            out.backward(grad.reshape(*shape[:-1], 7))
            grads.append((weight.grad, bias.grad))
        for stacked, flat in zip(*grads):
            np.testing.assert_array_equal(stacked, flat)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ShapeError):
            F.linear(Tensor(np.zeros(4, np.float32)), Tensor(np.zeros((2, 4), np.float32)))


class TestConv2d:
    def test_matches_scipy_correlate(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w))
        expected = signal.correlate2d(x[0, 0], w[0, 0], mode="valid")
        np.testing.assert_allclose(out.numpy()[0, 0], expected, rtol=1e-5, atol=1e-6)

    def test_multichannel_sums_over_input_channels(self, rng):
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((1, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w))
        expected = signal.correlate2d(x[0, 0], w[0, 0], mode="valid") + signal.correlate2d(
            x[0, 1], w[0, 1], mode="valid"
        )
        np.testing.assert_allclose(out.numpy()[0, 0], expected, rtol=1e-5, atol=1e-6)

    def test_bias_broadcasts_per_channel(self, rng):
        x = rng.standard_normal((2, 1, 4, 4))
        w = rng.standard_normal((3, 1, 3, 3))
        b = np.array([1.0, 2.0, 3.0])
        with_bias = F.conv2d(Tensor(x), Tensor(w), Tensor(b))
        without = F.conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(
            with_bias.numpy() - without.numpy(),
            np.broadcast_to(b.reshape(1, 3, 1, 1), with_bias.shape).astype(np.float32),
            rtol=1e-5,
        )

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            F.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 3, 3, 3))))

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), ((1, 2), (2, 0))])
    def test_gradcheck_geometries(self, rng, stride, padding):
        x = tensor64(rng.standard_normal((2, 2, 6, 7)))
        w = tensor64(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        b = tensor64(rng.standard_normal(3) * 0.5)

        def loss():
            return (F.conv2d(x, w, b, stride, padding) ** 2).sum()

        assert_gradcheck(loss, x)
        assert_gradcheck(loss, w)
        assert_gradcheck(loss, b)

    def test_gradient_flows_through_additive_noise(self, rng):
        # The property Shredder depends on (paper section 2.1): d(out)/d(noise)
        # exists and equals the gradient w.r.t. the activation itself.
        a = Tensor(rng.standard_normal((1, 2, 5, 5)).astype(np.float64))
        noise = tensor64(np.zeros((1, 2, 5, 5)))
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float64))
        out = (F.conv2d(a + noise, w) ** 2).sum()
        out.backward()
        assert noise.grad is not None
        assert np.abs(noise.grad).max() > 0

        a2 = tensor64(a.numpy())
        out2 = (F.conv2d(a2, w) ** 2).sum()
        out2.backward()
        np.testing.assert_allclose(noise.grad, a2.grad, rtol=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2, 2)
        np.testing.assert_allclose(out.numpy()[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_overlapping_gradcheck(self, rng):
        x = tensor64(rng.standard_normal((2, 2, 6, 6)))
        assert_gradcheck(lambda: (F.max_pool2d(x, 3, 2) ** 2).sum(), x)

    def test_avg_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2, 2)
        np.testing.assert_allclose(out.numpy()[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self, rng):
        x = tensor64(rng.standard_normal((1, 2, 5, 5)))
        assert_gradcheck(lambda: (F.avg_pool2d(x, 3, 2) ** 2).sum(), x)

    def test_pool_default_stride_equals_kernel(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 6, 6)))
        assert F.max_pool2d(x, 3).shape == (1, 1, 2, 2)


class TestSoftmaxLosses:
    def test_softmax_sums_to_one(self, rng):
        x = Tensor(rng.standard_normal((4, 7)))
        probs = F.softmax(x).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-5)
        assert (probs >= 0).all()

    def test_softmax_shift_invariance(self, rng):
        x = rng.standard_normal((3, 5))
        p1 = F.softmax(Tensor(x)).numpy()
        p2 = F.softmax(Tensor(x + 100.0)).numpy()
        np.testing.assert_allclose(p1, p2, atol=1e-6)

    def test_log_softmax_stable_at_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0]]))
        out = F.log_softmax(x).numpy()
        assert np.isfinite(out).all()

    def test_log_softmax_gradcheck(self, rng):
        x = tensor64(rng.standard_normal((3, 4)))
        assert_gradcheck(lambda: (F.log_softmax(x) ** 2).sum(), x)

    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.standard_normal((6, 4))
        targets = rng.integers(0, 4, size=6)
        loss = F.cross_entropy(Tensor(logits), targets).item()
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(6), targets].mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_cross_entropy_gradcheck(self, rng):
        logits = tensor64(rng.standard_normal((5, 3)))
        targets = rng.integers(0, 3, size=5)
        assert_gradcheck(lambda: F.cross_entropy(logits, targets), logits)

    def test_cross_entropy_shape_checks(self):
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=int))
        with pytest.raises(ShapeError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(5, dtype=int))

    def test_nll_matches_cross_entropy(self, rng):
        logits = rng.standard_normal((4, 3))
        targets = rng.integers(0, 3, size=4)
        ce = F.cross_entropy(Tensor(logits), targets).item()
        nll = F.nll_loss(F.log_softmax(Tensor(logits)), targets).item()
        assert ce == pytest.approx(nll, rel=1e-5)

    def test_mse_loss(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0])).item()
        assert loss == pytest.approx(2.5)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeError):
            F.mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestDropout:
    def test_eval_mode_is_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        out = F.dropout(x, 0.5, training=False, rng=rng)
        assert out is x

    def test_preserves_expectation(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.numpy().mean() == pytest.approx(1.0, abs=0.02)

    def test_zeroed_fraction(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        zero_fraction = (out.numpy() == 0).mean()
        assert zero_fraction == pytest.approx(0.3, abs=0.02)

    def test_invalid_probability(self, rng):
        with pytest.raises(ShapeError):
            F.dropout(Tensor([1.0]), 1.0, training=True, rng=rng)


class TestNormalisation:
    def test_lrn_reduces_magnitude(self, rng):
        x = Tensor(np.abs(rng.standard_normal((1, 8, 4, 4))) + 1.0)
        out = F.local_response_norm(x)
        assert (np.abs(out.numpy()) <= np.abs(x.numpy())).all()

    def test_lrn_gradcheck(self, rng):
        x = tensor64(rng.standard_normal((1, 6, 3, 3)))
        assert_gradcheck(lambda: (F.local_response_norm(x, size=3) ** 2).sum(), x)

    def test_lrn_requires_nchw(self):
        with pytest.raises(ShapeError):
            F.local_response_norm(Tensor(np.zeros((3, 4))))

    def test_batch_norm_normalises_training_batch(self, rng):
        x = Tensor(rng.standard_normal((8, 3, 5, 5)).astype(np.float64) * 4 + 2)
        gamma = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        beta = Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
        mean = np.zeros(3)
        var = np.ones(3)
        out = F.batch_norm2d(x, gamma, beta, mean, var, training=True)
        np.testing.assert_allclose(out.numpy().mean(axis=(0, 2, 3)), 0, atol=1e-6)
        np.testing.assert_allclose(out.numpy().std(axis=(0, 2, 3)), 1, atol=1e-4)

    def test_batch_norm_updates_running_stats(self, rng):
        x = Tensor(rng.standard_normal((8, 2, 4, 4)) + 5.0)
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        mean = np.zeros(2, dtype=np.float32)
        var = np.ones(2, dtype=np.float32)
        F.batch_norm2d(x, gamma, beta, mean, var, training=True, momentum=0.5)
        assert (mean > 1.0).all()

    def test_batch_norm_eval_uses_running_stats(self, rng):
        x = Tensor(np.full((2, 1, 2, 2), 3.0))
        gamma = Tensor(np.ones(1), requires_grad=True)
        beta = Tensor(np.zeros(1), requires_grad=True)
        mean = np.array([3.0], dtype=np.float32)
        var = np.array([1.0], dtype=np.float32)
        out = F.batch_norm2d(x, gamma, beta, mean, var, training=False)
        np.testing.assert_allclose(out.numpy(), 0.0, atol=1e-3)
