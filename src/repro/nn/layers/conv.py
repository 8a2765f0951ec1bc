"""2-D convolution layer."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.im2col import _pair
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Conv2d(Module):
    """2-D cross-correlation with optional bias.

    Forward lowers to im2col + batched matmul; the weight-gradient
    contraction in the backward pass is *tiled* over large batches
    (:func:`repro.nn.functional._conv2d_grad_w`), bounding the transient
    im2col copy.

    Args:
        in_channels / out_channels: Channel counts.
        kernel_size / stride / padding: Geometry (int or pair).
        bias: Whether to learn a per-output-channel bias.
        rng: Randomness for initialisation.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | tuple[int, int],
        stride: int | tuple[int, int] = 1,
        padding: int | tuple[int, int] = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = _pair(kernel_size)
        self.stride = _pair(stride)
        self.padding = _pair(padding)
        kh, kw = self.kernel_size
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels, kh, kw), rng),
            name="weight",
        )
        fan_in = in_channels * kh * kw
        self.bias = (
            Parameter(init.uniform_bias((out_channels,), fan_in, rng), name="bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.stride, self.padding)

    def __repr__(self) -> str:
        return (
            f"Conv2d({self.in_channels} -> {self.out_channels}, "
            f"k={self.kernel_size}, s={self.stride}, p={self.padding})"
        )
