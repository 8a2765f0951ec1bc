"""Unit tests for the autograd Tensor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GradientError, ShapeError
from repro.nn.tensor import (
    Tensor,
    as_tensor,
    concatenate,
    is_grad_enabled,
    no_grad,
    ones,
    stack,
    unbroadcast,
    zeros,
)
from tests.helpers import assert_gradcheck, tensor64


class TestConstruction:
    def test_default_dtype_is_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_int_input_cast_to_float(self):
        t = Tensor(np.arange(4))
        assert t.dtype == np.float32

    def test_shape_ndim_size(self):
        t = zeros((2, 3, 4))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_repr_mentions_grad(self):
        t = Tensor([1.0], requires_grad=True, name="noise")
        assert "requires_grad" in repr(t)
        assert "noise" in repr(t)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_vector_raises(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()

    def test_len(self):
        assert len(ones((5, 2))) == 5


class TestArithmetic:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.numpy(), [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.numpy(), [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).numpy(), [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).numpy(), [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * 3.0).numpy(), [6.0])
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).numpy(), [2.0])
        np.testing.assert_allclose((3.0 / Tensor([6.0])).numpy(), [0.5])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).numpy(), [-1.0, 2.0])

    def test_pow_scalar_only(self):
        with pytest.raises(ShapeError):
            Tensor([1.0]) ** Tensor([2.0])  # type: ignore[operator]

    def test_matmul_shape_check(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3, 4))).matmul(Tensor(np.zeros((4, 2))))


_SCALAR_OPS = {
    "add": lambda t, s: t + s,
    "radd": lambda t, s: s + t,
    "sub": lambda t, s: t - s,
    "rsub": lambda t, s: s - t,
    "mul": lambda t, s: t * s,
    "rmul": lambda t, s: s * t,
    "truediv": lambda t, s: t / s,
    "rtruediv": lambda t, s: s / t,
}


class TestScalarOperandDtype:
    """A Python scalar operand takes the tensor's float dtype: NumPy 2
    would promote a float32 tensor combined with a float64 0-d array."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scalar", [3, 1e-5], ids=["int", "float"])
    @pytest.mark.parametrize("op", list(_SCALAR_OPS), ids=list(_SCALAR_OPS))
    def test_result_keeps_tensor_dtype(self, op, scalar, dtype):
        t = Tensor(np.array([0.5, 2.0, -4.0], dtype=dtype), requires_grad=True)
        out = _SCALAR_OPS[op](t, scalar)
        assert out.dtype == dtype
        expected = _SCALAR_OPS[op](t.data, dtype(scalar))
        np.testing.assert_array_equal(out.numpy(), expected)
        out.sum().backward()
        assert t.grad.dtype == dtype


class TestBackward:
    def test_backward_requires_grad(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            (t * 2).backward()

    def test_backward_with_explicit_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t * 3).backward(np.array([1.0, 1.0], dtype=np.float32))
        np.testing.assert_allclose(t.grad, [3.0, 3.0])

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        (t * 2).sum().backward()
        np.testing.assert_allclose(t.grad, [4.0])

    def test_zero_grad(self):
        t = Tensor([1.0], requires_grad=True)
        (t * 2).sum().backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_accumulation(self):
        # y = x*x + x*x must give dy/dx = 4x, exercising shared subgraphs.
        x = tensor64([3.0])
        a = x * x
        (a + a).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_reused_tensor_in_two_ops(self):
        x = tensor64([2.0])
        y = (x * 3) + (x * 5)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_detach_stops_gradient(self):
        x = tensor64([2.0])
        y = (x.detach() * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [2.0])


class TestBroadcasting:
    def test_unbroadcast_prepended_axes(self):
        grad = np.ones((4, 3))
        reduced = unbroadcast(grad, (3,))
        np.testing.assert_allclose(reduced, [4.0, 4.0, 4.0])

    def test_unbroadcast_stretched_axes(self):
        grad = np.ones((4, 3))
        reduced = unbroadcast(grad, (4, 1))
        np.testing.assert_allclose(reduced, np.full((4, 1), 3.0))

    def test_unbroadcast_incompatible_raises(self):
        with pytest.raises(ShapeError):
            unbroadcast(np.ones((4, 3)), (2,))

    def test_broadcast_add_gradients(self):
        a = tensor64(np.ones((2, 3)))
        b = tensor64(np.ones((3,)))
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])

    def test_broadcast_mul_gradcheck(self, rng):
        a = tensor64(rng.standard_normal((2, 1, 3)))
        b = tensor64(rng.standard_normal((4, 3)))
        assert_gradcheck(lambda: (a * b).sum(), a)
        assert_gradcheck(lambda: (a * b).sum(), b)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "op",
        [
            lambda t: t.exp(),
            lambda t: (t + 3.0).log(),
            lambda t: (t + 3.0).sqrt(),
            lambda t: t.tanh(),
            lambda t: t.sigmoid(),
            lambda t: t.square(),
            lambda t: t * t * t,
            lambda t: (t * 2.0 + 1.0) ** 3,
        ],
        ids=["exp", "log", "sqrt", "tanh", "sigmoid", "square", "cube", "pow"],
    )
    def test_gradcheck_elementwise(self, rng, op):
        t = tensor64(rng.uniform(-1.0, 1.0, size=(3, 4)))
        assert_gradcheck(lambda: op(t).sum(), t)

    def test_abs_gradient_away_from_zero(self, rng):
        t = tensor64(rng.uniform(0.5, 1.5, size=(5,)) * rng.choice([-1, 1], size=5))
        assert_gradcheck(lambda: t.abs().sum(), t)

    def test_relu_masks_negative(self):
        t = tensor64([-1.0, 2.0])
        t.relu().sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0])

    def test_clip_gradient_zero_outside(self):
        t = tensor64([-2.0, 0.5, 2.0])
        t.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self, rng):
        t = tensor64(rng.standard_normal((2, 3, 4)))
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1, 4)
        assert_gradcheck(lambda: (t.sum(axis=1, keepdims=True) ** 2).sum(), t)

    def test_sum_tuple_axis(self, rng):
        t = tensor64(rng.standard_normal((2, 3, 4)))
        assert t.sum(axis=(0, 2)).shape == (3,)
        assert_gradcheck(lambda: (t.sum(axis=(0, 2)) ** 2).sum(), t)

    def test_mean_matches_numpy(self, rng):
        data = rng.standard_normal((3, 5))
        np.testing.assert_allclose(
            Tensor(data).mean(axis=0).numpy(), data.mean(axis=0), rtol=1e-6
        )

    def test_mean_gradcheck(self, rng):
        t = tensor64(rng.standard_normal((4, 3)))
        assert_gradcheck(lambda: (t.mean(axis=0) ** 2).sum(), t)

    def test_var_matches_numpy(self, rng):
        data = rng.standard_normal((6, 3)).astype(np.float64)
        np.testing.assert_allclose(
            Tensor(data).var(axis=0).numpy(), data.var(axis=0), rtol=1e-6, atol=1e-9
        )

    def test_max_gradient_routes_to_argmax(self):
        t = tensor64([[1.0, 5.0], [7.0, 2.0]])
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        t = tensor64([[2.0, 2.0]])
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.5, 0.5]])


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self, rng):
        t = tensor64(rng.standard_normal((2, 6)))
        assert_gradcheck(lambda: (t.reshape(3, 4) ** 2).sum(), t)

    def test_reshape_tuple_argument(self):
        t = Tensor(np.zeros((2, 6)))
        assert t.reshape((3, 4)).shape == (3, 4)

    def test_flatten_batch(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.flatten_batch().shape == (2, 12)

    def test_transpose_gradcheck(self, rng):
        t = tensor64(rng.standard_normal((2, 3, 4)))
        assert_gradcheck(lambda: (t.transpose(2, 0, 1) ** 2).sum(), t)

    def test_t_property(self, rng):
        data = rng.standard_normal((2, 3))
        np.testing.assert_allclose(Tensor(data).T.numpy(), data.T)

    def test_getitem_gradient_scatters(self):
        t = tensor64([1.0, 2.0, 3.0])
        t[1:].sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0])

    def test_getitem_fancy_index_accumulates(self):
        t = tensor64([1.0, 2.0])
        t[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 1.0])

    def test_pad2d_shape_and_grad(self, rng):
        t = tensor64(rng.standard_normal((1, 1, 2, 2)))
        padded = t.pad2d(1)
        assert padded.shape == (1, 1, 4, 4)
        assert_gradcheck(lambda: (t.pad2d(1) ** 2).sum(), t)

    def test_pad2d_zero_is_identity(self):
        t = Tensor(np.ones((1, 1, 2, 2)))
        assert t.pad2d(0) is t


class TestMatmul:
    def test_matmul_gradcheck(self, rng):
        a = tensor64(rng.standard_normal((3, 4)))
        b = tensor64(rng.standard_normal((4, 2)))
        assert_gradcheck(lambda: (a @ b).sum(), a)
        assert_gradcheck(lambda: (a @ b).sum(), b)

    def test_matmul_value(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).numpy(), a @ b, rtol=1e-6)


class TestConcatenateStack:
    def test_concatenate_values(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((1, 3))
        out = concatenate([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_allclose(out.numpy(), np.concatenate([a, b]), rtol=1e-6)

    def test_concatenate_gradients(self):
        a = tensor64([[1.0], [2.0]])
        b = tensor64([[3.0]])
        (concatenate([a, b], axis=0) * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [[2.0], [2.0]])
        np.testing.assert_allclose(b.grad, [[2.0]])

    def test_stack_gradients(self):
        a, b = tensor64([1.0, 2.0]), tensor64([3.0, 4.0])
        stack([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = t * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()
