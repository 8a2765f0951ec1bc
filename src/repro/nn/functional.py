"""Differentiable neural-network operations on :class:`~repro.nn.tensor.Tensor`.

These are the NN-specific kernels built on top of the autograd engine:
convolution (via im2col), pooling, dropout, stable softmax / log-softmax,
cross entropy, and local response normalisation.  All functions record tape
entries so that gradients flow back to their inputs — in particular through
an additive noise tensor inserted between two halves of a split network,
which is the derivative Shredder's optimisation needs (paper eq. in §2.1).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.im2col import (
    _pair,
    conv_output_size,
    extract_windows,
    fold_windows,
)
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

#: Elements per materialised im2col tile in the blocked conv2d weight
#: gradient (~8 MB of float32).  Above :data:`GRADW_WHOLE_BATCH_ELEMENTS`
#: the contraction walks the batch in tiles of
#: ``ceil(GRADW_TILE_ELEMENTS / (K * OH * OW))`` samples, bounding the
#: transient copy a whole-batch contraction would materialise at once.
GRADW_TILE_ELEMENTS = 1 << 21

#: Whole-batch window tensors up to this many elements (~16 MB float32)
#: contract in one BLAS-backed einsum — at small scale one big GEMM beats
#: tile accumulation; past it, bounded tiles win on memory always and on
#: time for the wide shallow layers that dominate backbone pre-training.
GRADW_WHOLE_BATCH_ELEMENTS = 4 << 20


def _conv2d_grad_w(
    x_data: np.ndarray,
    grad3: np.ndarray,
    kernel: tuple[int, int],
    stride: tuple[int, int],
    padding: tuple[int, int],
) -> np.ndarray:
    """Blocked ``grad_w`` contraction: ``sum_n g_n @ cols_n^T``.

    Args:
        x_data: ``(N, C_in, H, W)`` forward input.
        grad3: ``(N, C_out, OH*OW)`` output gradient.
        kernel / stride / padding: Conv geometry.

    Returns:
        ``(C_out, C_in*KH*KW)`` weight gradient (caller reshapes).

    Small batches contract in one BLAS einsum over the free strided window
    view.  Past :data:`GRADW_WHOLE_BATCH_ELEMENTS` the im2col panel is
    instead copied tile-by-tile into a bounded buffer for one
    ``tensordot`` each — peak transient memory is
    :data:`GRADW_TILE_ELEMENTS` floats instead of the whole batch's
    windows, and the per-tile partials are accumulated in ascending tile
    order.
    """
    n = len(x_data)
    kh, kw = kernel
    c_in = x_data.shape[1]
    m = grad3.shape[2]
    per_sample = c_in * kh * kw * m
    if n * per_sample <= GRADW_WHOLE_BATCH_ELEMENTS:
        windows = extract_windows(x_data, kernel, stride, padding)
        grad4 = grad3.reshape(n, grad3.shape[1], windows.shape[4], windows.shape[5])
        grad_w = np.einsum("nopq,ncijpq->ocij", grad4, windows, optimize=True)
        return grad_w.reshape(grad3.shape[1], c_in * kh * kw)
    tile = max(1, GRADW_TILE_ELEMENTS // max(1, per_sample))

    def contract(start: int) -> np.ndarray:
        windows = extract_windows(
            x_data[start : start + tile], kernel, stride, padding
        )
        nt = windows.shape[0]
        cols = windows.reshape(nt, c_in * kh * kw, m)  # copies the view
        return np.tensordot(
            grad3[start : start + tile], cols, axes=([0, 2], [0, 2])
        )

    grad_w = contract(0)
    for start in range(tile, n, tile):
        grad_w += contract(start)
    return grad_w


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` over the last axis of ``x``.

    Fused into one tape node (the composed transpose/matmul/add chain costs
    three nodes per call, which dominates small-layer forward passes).
    Leading axes beyond the row axis run as one matmul per ``(N, in)``
    slice, so a slice's output and input gradient are bitwise those of a
    2-D call on it alone; one GEMM over all rows would round by the row
    count.

    Args:
        x: ``(..., N, in_features)`` input.
        weight: ``(out_features, in_features)`` weight matrix.
        bias: Optional ``(out_features,)`` bias.
    """
    if x.ndim < 2:
        raise ShapeError(f"linear expects (..., N, in_features) input, got {x.shape}")
    out_data = x.data @ weight.data.T
    if bias is not None:
        out_data += bias.data

    parents = (x, weight) + ((bias,) if bias is not None else ())

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x.accumulate_grad(grad @ weight.data)
        rows = grad.reshape(-1, grad.shape[-1])
        if weight.requires_grad:
            weight.accumulate_grad(rows.T @ x.data.reshape(-1, x.shape[-1]))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(rows.sum(axis=0))

    return Tensor._make(out_data, parents, backward)


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int | tuple[int, int] = 1,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """2-D cross-correlation over an NCHW input.

    Args:
        x: ``(N, C_in, H, W)`` input tensor.
        weight: ``(C_out, C_in, KH, KW)`` filter bank.
        bias: Optional ``(C_out,)`` bias.
        stride / padding: Geometry (int or pair).

    Returns:
        ``(N, C_out, OH, OW)`` output tensor.
    """
    stride = _pair(stride)
    padding = _pair(padding)
    n, c_in, h, w = x.shape
    c_out, c_w, kh, kw = weight.shape
    if c_w != c_in:
        raise ShapeError(
            f"conv2d channel mismatch: input has {c_in}, weight expects {c_w}"
        )
    oh = conv_output_size(h, kh, stride[0], padding[0])
    ow = conv_output_size(w, kw, stride[1], padding[1])

    windows = extract_windows(x.data, (kh, kw), stride, padding)
    # (N, C*KH*KW, OH*OW) columns; reshape copies the strided view.
    cols = windows.reshape(n, c_in * kh * kw, oh * ow)
    w_mat = weight.data.reshape(c_out, c_in * kh * kw)
    out_data = np.matmul(w_mat, cols).reshape(n, c_out, oh, ow)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, c_out, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])
    # The im2col matrix is deliberately NOT captured by the closure: keeping
    # one (N, C*KH*KW, OH*OW) copy per conv alive for the life of the tape
    # dominates peak training memory.  The backward pass re-derives the
    # windows as a free strided view of x.data and contracts it directly.
    del cols, windows

    def backward(grad: np.ndarray) -> None:
        g = grad.reshape(n, c_out, oh * ow)
        if weight.requires_grad:
            grad_w = _conv2d_grad_w(x.data, g, (kh, kw), stride, padding)
            weight.accumulate_grad(grad_w.reshape(c_out, c_in, kh, kw))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_cols = np.matmul(w_mat.T, g)  # (N, C*KH*KW, OH*OW)
            grad_windows = grad_cols.reshape(n, c_in, kh, kw, oh, ow)
            x.accumulate_grad(
                fold_windows(grad_windows, x.shape, (kh, kw), stride, padding)
            )

    return Tensor._make(out_data, parents, backward)


def max_pool2d(
    x: Tensor,
    kernel: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """Max pooling over NCHW input; gradient routes to the (first) argmax."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    kh, kw = kernel
    windows = extract_windows(x.data, kernel, stride, padding)
    oh, ow = windows.shape[4], windows.shape[5]
    flat = windows.reshape(n, c, kh * kw, oh, ow)
    idx = flat.argmax(axis=2)
    out_data = np.take_along_axis(flat, idx[:, :, None, :, :], axis=2)[:, :, 0, :, :]

    def backward(grad: np.ndarray) -> None:
        grad_flat = np.zeros((n, c, kh * kw, oh, ow), dtype=grad.dtype)
        np.put_along_axis(grad_flat, idx[:, :, None, :, :], grad[:, :, None, :, :], axis=2)
        grad_windows = grad_flat.reshape(n, c, kh, kw, oh, ow)
        x.accumulate_grad(fold_windows(grad_windows, x.shape, kernel, stride, padding))

    return Tensor._make(out_data, (x,), backward)


def avg_pool2d(
    x: Tensor,
    kernel: int | tuple[int, int],
    stride: int | tuple[int, int] | None = None,
    padding: int | tuple[int, int] = 0,
) -> Tensor:
    """Average pooling over NCHW input."""
    kernel = _pair(kernel)
    stride = kernel if stride is None else _pair(stride)
    padding = _pair(padding)
    n, c, h, w = x.shape
    kh, kw = kernel
    windows = extract_windows(x.data, kernel, stride, padding)
    out_data = windows.mean(axis=(2, 3))
    oh, ow = out_data.shape[2], out_data.shape[3]
    scale = 1.0 / (kh * kw)

    def backward(grad: np.ndarray) -> None:
        tiled = np.broadcast_to(
            grad[:, :, None, None, :, :] * scale, (n, c, kh, kw, oh, ow)
        ).astype(grad.dtype)
        x.accumulate_grad(fold_windows(tiled, x.shape, kernel, stride, padding))

    return Tensor._make(np.ascontiguousarray(out_data), (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exps = shifted.exp()
    return exps / exps.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits and integer class labels.

    This is the first term of Shredder's loss (paper eq. 2 and 3).  The
    backward pass uses the fused ``(softmax - onehot) / N`` form for
    stability and speed.

    Args:
        logits: ``(N, M)`` unnormalised scores.
        targets: ``(N,)`` integer labels in ``[0, M)``.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects (N, M) logits, got {logits.shape}")
    if targets.shape != (logits.shape[0],):
        raise ShapeError(
            f"targets shape {targets.shape} does not match batch {logits.shape[0]}"
        )
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    losses = -log_probs[np.arange(n), targets]
    out_data = np.asarray(losses.mean(), dtype=logits.data.dtype)

    def backward(grad: np.ndarray) -> None:
        probs = np.exp(log_probs)
        probs[np.arange(n), targets] -= 1.0
        logits.accumulate_grad(grad * probs / n)

    return Tensor._make(out_data, (logits,), backward)


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log likelihood given log-probabilities."""
    targets = np.asarray(targets)
    n = log_probs.shape[0]
    picked = log_probs[np.arange(n), targets]
    return -picked.sum() * (1.0 / n)


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error between two tensors of identical shape."""
    target = as_tensor(target)
    if prediction.shape != target.shape:
        raise ShapeError(
            f"mse_loss shape mismatch: {prediction.shape} vs {target.shape}"
        )
    diff = prediction - target.detach()
    return (diff * diff).mean()


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale kept by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return x * Tensor(mask)


def local_response_norm(
    x: Tensor, size: int = 5, alpha: float = 1e-4, beta: float = 0.75, k: float = 2.0
) -> Tensor:
    """AlexNet-style local response normalisation across channels.

    ``b_c = a_c / (k + alpha/size * sum_{c'} a_{c'}^2) ** beta`` with the sum
    over a window of ``size`` channels centred at ``c``.  Implemented with
    differentiable primitives (square, pad, slice, power) so the backward
    pass comes from the tape rather than a hand-derived formula.
    """
    if x.ndim != 4:
        raise ShapeError(f"local_response_norm expects NCHW input, got {x.shape}")
    n, c, h, w = x.shape
    squared = x.square()
    half = size // 2
    # Sum the channel window by accumulating shifted slices of the padded
    # squared activations; each slice is a differentiable __getitem__.
    padded = _pad_channels(squared, half, size - 1 - half)
    window = padded[:, 0:c, :, :]
    for offset in range(1, size):
        window = window + padded[:, offset : offset + c, :, :]
    denom = (window * (alpha / size) + k) ** (-beta)
    return x * denom


def _pad_channels(x: Tensor, before: int, after: int) -> Tensor:
    """Zero-pad the channel dimension of an NCHW tensor (differentiable)."""
    if before == 0 and after == 0:
        return x
    n, c, h, w = x.shape
    pads = ((0, 0), (before, after), (0, 0), (0, 0))
    out_data = np.pad(x.data, pads)

    def backward(grad: np.ndarray) -> None:
        x.accumulate_grad(grad[:, before : before + c, :, :])

    return Tensor._make(out_data, (x,), backward)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the channel dimension of an NCHW tensor.

    When ``training`` the batch statistics are used (and running statistics
    updated in place); otherwise the running statistics are used.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm2d expects NCHW input, got {x.shape}")
    c = x.shape[1]
    axes = (0, 2, 3)
    if training:
        mean = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.data.reshape(c)
        running_var *= 1.0 - momentum
        running_var += momentum * var.data.reshape(c)
        x_hat = (x - mean) / (var + eps).sqrt()
    else:
        mean_t = Tensor(running_mean.reshape(1, c, 1, 1))
        var_t = Tensor(running_var.reshape(1, c, 1, 1))
        x_hat = (x - mean_t) / (var_t + eps).sqrt()
    return x_hat * gamma.reshape(1, c, 1, 1) + beta.reshape(1, c, 1, 1)
