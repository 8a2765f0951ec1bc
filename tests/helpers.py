"""Shared numerical helpers for the test suite."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core import NoiseTrainer, ShredderLoss, SplitInferenceModel
from repro.models import build_model
from repro.nn import TensorDataset
from repro.nn.layers.norm import BatchNorm2d
from repro.nn.tensor import Tensor


def tensor64(array, requires_grad: bool = True) -> Tensor:
    """Create a float64 tensor (for tight numeric gradient checks)."""
    return Tensor(np.asarray(array, dtype=np.float64), requires_grad=requires_grad)


def numeric_gradient(
    f: Callable[[], Tensor], x: Tensor, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` w.r.t. ``x.data``."""
    grad = np.zeros_like(x.data, dtype=np.float64)
    flat = x.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        hi = f().item()
        flat[i] = original - eps
        lo = f().item()
        flat[i] = original
        grad_flat[i] = (hi - lo) / (2.0 * eps)
    return grad


def assert_gradcheck(
    f: Callable[[], Tensor], x: Tensor, tol: float = 1e-6, eps: float = 1e-5
) -> None:
    """Assert the analytic gradient of ``f`` w.r.t. ``x`` matches numerics."""
    x.zero_grad()
    loss = f()
    loss.backward()
    assert x.grad is not None, "no gradient reached the input"
    numeric = numeric_gradient(f, x, eps=eps)
    error = np.abs(numeric - x.grad).max()
    assert error < tol, f"gradcheck failed: max error {error:.3e} >= {tol:.0e}"


def randomise_batch_norms(net, rng: np.random.Generator):
    """Draw every BatchNorm2d's running statistics, gamma and beta at
    random, in place; returns ``net``.  With the default statistics BN is
    nearly the identity, so a swapped operand would go unnoticed."""
    for module in net.layers():
        if isinstance(module, BatchNorm2d):
            c = module.num_features
            module.running_mean[:] = rng.normal(size=c)
            module.running_var[:] = rng.uniform(0.2, 3.0, size=c)
            module.gamma.data[:] = rng.normal(1.0, 0.5, size=c)
            module.beta.data[:] = rng.normal(0.0, 0.5, size=c)
    return net


def random_data_trainer(network: str = "lenet", seed: int = 0) -> NoiseTrainer:
    """A noise trainer over an untrained ``build_model`` backbone at width
    0.5, in eval mode, with random train and eval sets."""
    rng = np.random.default_rng(seed)
    model = build_model(network, rng, width=0.5).eval()
    images = rng.standard_normal((48, *model.input_shape)).astype(np.float32)
    labels = rng.integers(0, 10, size=48)
    return NoiseTrainer(
        SplitInferenceModel(model),
        TensorDataset(images[:32], labels[:32]),
        TensorDataset(images[32:], labels[32:]),
        loss=ShredderLoss(1e-3),
        batch_size=8,
        eval_every=4,
        rng=np.random.default_rng(seed),
    )


def mixed_flag_trainer(seed: int = 0) -> NoiseTrainer:
    """A :func:`random_data_trainer` lenet whose parameters alternate
    between ``requires_grad`` on and off."""
    trainer = random_data_trainer("lenet", seed)
    for index, parameter in enumerate(trainer.split.model.parameters()):
        parameter.requires_grad = index % 2 == 0
    return trainer


def requires_grad_flags(model) -> list[bool]:
    """Every parameter's ``requires_grad``, in parameter order."""
    return [parameter.requires_grad for parameter in model.parameters()]
