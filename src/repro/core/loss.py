"""Shredder's loss functions (paper Eq. 2 and Eq. 3).

Eq. 2:  ``CE(y, p) + λ · 1/σ²(n)``   — penalise *small* noise variance.
Eq. 3:  ``CE(y, p) − λ · Σ_i |n_i|`` — the "anti-weight-decay" form the
paper actually trains with: the update is the opposite of L2/L1 weight
decay, growing the noise magnitude instead of shrinking it.

``λ`` is the knob trading accuracy for privacy (§2.4): too large and the
noise growth swamps accuracy recovery; too small and privacy stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.noise_tensor import MultiNoiseTensor, NoiseTensor
from repro.errors import ConfigurationError
from repro.nn import Tensor
from repro.nn import functional as F

_VARIANTS = ("l1", "inverse_variance")


@dataclass(frozen=True)
class LossParts:
    """Decomposition of one loss evaluation (for curves and debugging)."""

    total: float
    cross_entropy: float
    privacy_term: float
    lambda_coeff: float


class ShredderLoss:
    """Accuracy/privacy loss over (logits, targets, noise).

    Args:
        lambda_coeff: The privacy knob ``λ`` (paper uses 0.01 / 0.001 /
            0.0001 depending on network size).
        variant: ``"l1"`` for Eq. 3 (default, what the paper trains with)
            or ``"inverse_variance"`` for Eq. 2.
    """

    def __init__(self, lambda_coeff: float, variant: str = "l1") -> None:
        if lambda_coeff < 0:
            raise ConfigurationError(f"lambda must be non-negative, got {lambda_coeff}")
        if variant not in _VARIANTS:
            raise ConfigurationError(
                f"unknown variant {variant!r}; options: {_VARIANTS}"
            )
        self.lambda_coeff = float(lambda_coeff)
        self.variant = variant
        # Per-step constants of :meth:`many_arrays`, memoised on the λ
        # vector (λ only changes when a schedule decays).
        self._many_lambdas: tuple[float, ...] | None = None
        self._many_vec: np.ndarray | None = None
        self._many_coeff: np.ndarray | None = None
        self._many_rows: np.ndarray | None = None

    def __call__(
        self, logits: Tensor, targets: np.ndarray, noise: NoiseTensor
    ) -> tuple[Tensor, LossParts]:
        """Evaluate the loss.

        Returns:
            The differentiable total loss plus a float decomposition.
        """
        cross_entropy = F.cross_entropy(logits, targets)
        if self.variant == "l1":
            privacy = noise.abs().sum()
            total = cross_entropy - privacy * self.lambda_coeff
        else:
            mean = noise.mean()
            variance = (noise * noise).mean() - mean * mean
            privacy = 1.0 / (variance + 1e-12)
            total = cross_entropy + privacy * self.lambda_coeff
        parts = LossParts(
            total=total.item(),
            cross_entropy=cross_entropy.item(),
            privacy_term=privacy.item(),
            lambda_coeff=self.lambda_coeff,
        )
        return total, parts

    def many_arrays(
        self,
        logits: Tensor,
        targets: np.ndarray,
        noise: MultiNoiseTensor,
        lambdas: Sequence[float],
    ) -> tuple[Tensor, np.ndarray, np.ndarray, float]:
        """Per-member loss of one batched training step.

        ``logits[m]`` holds member ``m``'s mini-batch scores and
        ``targets[m]`` its labels.  The total is ``Σ_m CE_m − λ_m Σ|n_m|``
        (or the Eq. 2 analogue), so differentiating it gives each member's
        noise slice exactly the gradient of its own independent loss.
        Each member's rows are reduced on their own, so a member's values
        do not depend on how many members the bank holds.

        Args:
            logits: ``(M, B, classes)`` member-stacked scores.
            targets: ``(M, B)`` labels.
            noise: The ``(M, *activation_shape)`` noise bank.
            lambdas: One λ per member (per-member schedules may diverge).

        Returns:
            The differentiable total, the raw per-member cross-entropy and
            privacy-term arrays, and the privacy term's sign in the total,
            so the trainer records history columns without per-member
            objects.
        """
        m = noise.n_members
        if len(lambdas) != m:
            raise ConfigurationError(
                f"need one lambda per member: {m} members, {len(lambdas)} lambdas"
            )
        # The whole loss is ONE fused tape node (values and hand-derived
        # gradients below) rather than a chain of small tensors: it sits
        # inside the per-step hot loop, where dispatch overhead on tiny
        # intermediates is the dominant cost.  λ-derived constants are
        # memoised — λ only changes when a schedule decays.
        lambda_key = tuple(float(value) for value in lambdas)
        member_shape = (m,) + (1,) * (noise.ndim - 1)
        if lambda_key != self._many_lambdas:
            if min(lambda_key) < 0:
                raise ConfigurationError("lambdas must be non-negative")
            self._many_lambdas = lambda_key
            self._many_vec = np.asarray(lambda_key, dtype=np.float64)
            # Matches the tensor-op chain bit for bit: λ is cast to
            # float32 when it reaches the leaf.
            self._many_coeff = (-self._many_vec).astype(np.float32).reshape(
                member_shape
            )
        lambda_vec = self._many_vec
        coeff = self._many_coeff

        if logits.ndim != 3 or logits.shape[0] != m:
            raise ConfigurationError(
                f"expected ({m}, rows, classes) logits, got shape {logits.shape}"
            )
        per_member, classes = logits.shape[1:]
        n = m * per_member
        # Group-mean cross entropy (same arithmetic as F.cross_entropy,
        # fused here to share intermediates; the buffers backward needs
        # stay freshly allocated, z is recycled).
        z = logits.data - logits.data.max(axis=2, keepdims=True)
        exp_z = np.exp(z)
        denom = exp_z.sum(axis=2, keepdims=True)
        log_probs = np.subtract(z, np.log(denom), out=z)
        if self._many_rows is None or len(self._many_rows) != n:
            self._many_rows = np.arange(n)
        rows = self._many_rows
        targets = np.asarray(targets).reshape(n)
        losses = log_probs.reshape(n, classes)[rows, targets]
        cross_entropies = -losses.reshape(m, per_member).mean(axis=1)

        flat = noise.data.reshape(m, -1)
        if self.variant == "l1":
            privacy = np.abs(flat, dtype=np.float64).sum(axis=1)
            reg_value = -float(np.dot(lambda_vec, privacy))
            grad_noise = coeff * np.sign(noise.data)
            sign = -1.0
        else:
            mean = flat.mean(axis=1, dtype=np.float64)
            variance = np.square(flat, dtype=np.float64).mean(axis=1) - mean * mean
            privacy = 1.0 / (variance + 1e-12)
            reg_value = float(np.dot(lambda_vec, privacy))
            # d(1/(var+eps))/dn = -(2/K)(n - mean)/(var+eps)^2 per member.
            k_elements = flat.shape[1]
            scale = (
                lambda_vec * (-2.0 / k_elements) * privacy * privacy
            ).reshape(member_shape)
            centered = noise.data - mean.astype(np.float32).reshape(member_shape)
            grad_noise = (scale * centered).astype(np.float32)
            sign = 1.0

        total_value = float(cross_entropies.sum(dtype=np.float64)) + reg_value

        def backward(grad: np.ndarray) -> None:
            probs = np.divide(exp_z, denom, out=exp_z)
            probs.reshape(n, classes)[rows, targets] -= 1.0
            probs *= grad / per_member
            logits.accumulate_grad(probs)
            noise.accumulate_grad(grad * grad_noise)

        total = Tensor._make(np.asarray(total_value), (logits, noise), backward)
        return total, cross_entropies, privacy, sign
