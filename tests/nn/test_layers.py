"""Tests for the layer library."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    LocalResponseNorm,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    Tensor,
)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(8, 3, rng=rng)
        assert layer(Tensor(rng.standard_normal((5, 8)))).shape == (5, 3)

    def test_no_bias(self, rng):
        layer = Linear(4, 2, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_deterministic_init_with_seed(self):
        a = Linear(4, 2, rng=np.random.default_rng(7))
        b = Linear(4, 2, rng=np.random.default_rng(7))
        np.testing.assert_allclose(a.weight.numpy(), b.weight.numpy())

    def test_zero_input_gives_bias(self, rng):
        layer = Linear(4, 2, rng=rng)
        out = layer(Tensor(np.zeros((1, 4))))
        np.testing.assert_allclose(out.numpy()[0], layer.bias.numpy(), rtol=1e-6)


class TestConv2dLayer:
    def test_output_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        assert layer(Tensor(rng.standard_normal((2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_parameter_count(self, rng):
        layer = Conv2d(3, 8, 5, rng=rng)
        assert layer.num_parameters() == 8 * 3 * 5 * 5 + 8

    def test_repr_contains_geometry(self, rng):
        assert "k=(3, 3)" in repr(Conv2d(1, 1, 3, rng=rng))


class TestPoolingLayers:
    def test_max_pool_shape(self, rng):
        assert MaxPool2d(2)(Tensor(rng.standard_normal((1, 2, 8, 8)))).shape == (
            1,
            2,
            4,
            4,
        )

    def test_avg_pool_shape(self, rng):
        assert AvgPool2d(2)(Tensor(rng.standard_normal((1, 2, 8, 8)))).shape == (
            1,
            2,
            4,
            4,
        )

    def test_global_avg_pool(self, rng):
        out = GlobalAvgPool2d()(Tensor(np.ones((2, 3, 4, 4))))
        assert out.shape == (2, 3)
        np.testing.assert_allclose(out.numpy(), 1.0)

    def test_pools_have_no_parameters(self):
        assert MaxPool2d(2).num_parameters() == 0


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, Tanh, Sigmoid])
    def test_shapes_preserved(self, rng, layer_cls):
        x = Tensor(rng.standard_normal((3, 4)))
        assert layer_cls()(x).shape == (3, 4)

    def test_relu_clamps(self):
        out = ReLU()(Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.numpy(), [0.0, 2.0])

    def test_sigmoid_range(self, rng):
        out = Sigmoid()(Tensor(rng.standard_normal(100) * 10)).numpy()
        assert ((out > 0) & (out < 1)).all()


class TestDropoutLayer:
    def test_train_vs_eval(self, rng):
        layer = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((10, 10)))
        train_out = layer(x)
        layer.eval()
        eval_out = layer(x)
        assert (train_out.numpy() == 0).any()
        np.testing.assert_allclose(eval_out.numpy(), 1.0)


class TestBatchNormLayer:
    def test_buffers_in_state_dict(self):
        bn = BatchNorm2d(4)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_eval_after_training_is_stable(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(rng.standard_normal((16, 2, 4, 4)) * 3 + 1)
        for _ in range(20):
            bn(x)
        bn.eval()
        out = bn(x).numpy()
        assert abs(out.mean()) < 0.5

    def test_lrn_layer_forward(self, rng):
        lrn = LocalResponseNorm(size=5)
        x = Tensor(rng.standard_normal((1, 8, 3, 3)))
        assert lrn(x).shape == (1, 8, 3, 3)

    @pytest.mark.parametrize("layer", [BatchNorm2d(8), LocalResponseNorm(size=5)],
                             ids=["batch_norm", "lrn"])
    def test_eval_forward_keeps_float32(self, layer, rng):
        # eps and k are Python scalars; they must not promote the output.
        x = Tensor(rng.standard_normal((2, 8, 3, 3)).astype(np.float32))
        assert layer.eval()(x).dtype == np.float32


class TestSequential:
    def test_positional_autonaming(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        assert model.layer_names() == ["0", "1", "2"]

    def test_named_layers(self, rng):
        model = Sequential(("fc1", Linear(4, 8, rng=rng)), ("act", ReLU()))
        assert model.layer_names() == ["fc1", "act"]
        assert isinstance(model["fc1"], Linear)

    def test_duplicate_names_rejected(self, rng):
        with pytest.raises(ValueError):
            Sequential(("a", ReLU()), ("a", ReLU()))

    def test_forward_composition(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU())
        x = Tensor(rng.standard_normal((2, 4)))
        manual = model[1](model[0](x))
        np.testing.assert_allclose(model(x).numpy(), manual.numpy())

    def test_slice_shares_parameters(self, rng):
        model = Sequential(("fc1", Linear(4, 4, rng=rng)), ("fc2", Linear(4, 2, rng=rng)))
        head = model.slice(0, 1)
        assert head["fc1"].weight is model["fc1"].weight

    def test_len_and_iter(self, rng):
        model = Sequential(ReLU(), ReLU())
        assert len(model) == 2
        assert len(list(model)) == 2

    def test_train_eval_propagates(self, rng):
        model = Sequential(("drop", Dropout(0.5, rng=rng)))
        model.eval()
        assert not model["drop"].training
        model.train()
        assert model["drop"].training

    def test_cnn_pipeline_shapes(self, rng):
        model = Sequential(
            ("conv0", Conv2d(1, 4, 3, padding=1, rng=rng)),
            ("relu0", ReLU()),
            ("pool0", MaxPool2d(2)),
            ("flatten", Flatten()),
            ("fc", Linear(4 * 4 * 4, 10, rng=rng)),
        )
        out = model(Tensor(rng.standard_normal((2, 1, 8, 8))))
        assert out.shape == (2, 10)
