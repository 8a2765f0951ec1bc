"""Split-inference wrapper: local half, noise injection, remote half.

This is the runtime object of Figure 2: the user input ``x`` runs through
the local network on the edge producing ``a``, noise is added (``a' = a+n``)
and the remote network computes the prediction from the noisy activation.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError, TrainingError
from repro.models.base import SplittableModel
from repro.nn import DataLoader, Dataset, Sequential, Tensor, no_grad


class SplitInferenceModel:
    """A backbone split at a cut point, with optional noise at the seam.

    Args:
        model: The frozen backbone.
        cut: Cut-point name (defaults to the paper's choice — the last
            convolution layer).
    """

    def __init__(self, model: SplittableModel, cut: str | None = None) -> None:
        self.model = model
        self.cut = cut or model.last_conv_cut()
        local, remote = model.split(self.cut)
        self.local: Sequential = local
        self.remote: Sequential = remote
        self.activation_shape = model.activation_shape(self.cut)[1:]

    # ------------------------------------------------------------------
    # Forward paths
    # ------------------------------------------------------------------
    def activations(self, images: np.ndarray) -> np.ndarray:
        """Clean activations ``a = L(x, θ₁)``, computed as the edge computes them.

        The eval-mode local half runs through a
        :class:`~repro.edge.executor.BatchInvariantExecutor` with the
        defaults :class:`~repro.edge.device.EdgeDevice` uses.  For float32
        ``images`` the result is float32, batch-invariant, and bitwise
        equal to ``EdgeDevice.forward_batch`` on the same normalised
        images, so noise is learned on exactly the tensor the device
        sends.  Other float inputs run the modules' own forwards and keep
        their dtype.  The executor is built per call: its segmentation
        follows the training flags and its lowered BatchNorm constants the
        current statistics.  The model's training flag is restored
        afterwards, and the caller owns the result.
        """
        # Lazy: repro.edge imports repro.core.sampler.
        from repro.edge.executor import BatchInvariantExecutor

        was_training = self.model.training
        self.model.eval()
        try:
            return BatchInvariantExecutor(self.local)(images)
        finally:
            self.model.train(was_training)

    def predict_from_activations(
        self, activations: np.ndarray, noise: np.ndarray | None = None
    ) -> np.ndarray:
        """Cloud-side logits from (possibly noisy) activations."""
        data = activations if noise is None else activations + noise
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                logits = self.remote(Tensor(data))
        finally:
            self.model.train(was_training)
        return logits.numpy()

    def predict(self, images: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
        """End-to-end logits with noise injected at the cut."""
        return self.predict_from_activations(self.activations(images), noise)

    # ------------------------------------------------------------------
    # Dataset-level helpers
    # ------------------------------------------------------------------
    def materialize_activations(
        self, dataset: Dataset, batch_size: int = 128
    ) -> tuple[np.ndarray, np.ndarray]:
        """Precompute activations and labels for a whole dataset.

        The local network is frozen and independent of the noise, so noise
        training can run entirely on cached activations — this is the big
        CPU saving that makes the reproduction tractable.  Each batch goes
        through :meth:`activations`, so the rows are the edge device's
        float32 activations and do not depend on ``batch_size``.
        """
        if len(dataset) == 0:
            raise TrainingError("cannot materialise activations of an empty dataset")
        batches = []
        labels = []
        for images, batch_labels in DataLoader(dataset, batch_size=batch_size):
            batches.append(self.activations(images))
            labels.append(batch_labels)
        return np.concatenate(batches), np.concatenate(labels)

    def accuracy(
        self,
        dataset: Dataset,
        noise: np.ndarray | None = None,
        batch_size: int = 128,
    ) -> float:
        """Top-1 accuracy with optional noise at the cut."""
        correct = 0
        total = 0
        for images, labels in DataLoader(dataset, batch_size=batch_size):
            logits = self.predict(images, noise)
            correct += int((logits.argmax(axis=1) == labels).sum())
            total += len(labels)
        return correct / total

    def accuracy_from_activations(
        self,
        activations: np.ndarray,
        labels: np.ndarray,
        noise: np.ndarray | None = None,
        batch_size: int = 256,
    ) -> float:
        """Accuracy computed from cached activations (fast path)."""
        if len(activations) != len(labels):
            raise ModelError("activations and labels must be paired")
        per_sample = noise is not None and len(noise) == len(labels) and len(noise) > 1
        correct = 0
        for start in range(0, len(labels), batch_size):
            stop = start + batch_size
            batch_noise = noise[start:stop] if per_sample else noise
            logits = self.predict_from_activations(activations[start:stop], batch_noise)
            correct += int((logits.argmax(axis=1) == labels[start:stop]).sum())
        return correct / len(labels)

    def accuracy_from_activations_multi(
        self,
        activations: np.ndarray,
        labels: np.ndarray,
        member_noise: np.ndarray,
        batch_size: int = 256,
    ) -> np.ndarray:
        """Per-member accuracies under an ``(M, *activation_shape)`` bank.

        Evaluating a noise collection member-by-member costs M full remote
        passes; here each activation chunk is tiled across all members and
        pushed through the remote half once, amortising per-op overhead the
        same way batched training does.

        Args:
            activations: ``(N, *activation_shape)`` cached activations.
            labels: ``(N,)`` paired labels.
            member_noise: ``(M, *activation_shape)`` noise bank.
            batch_size: Total rows per remote pass (shared by the members).

        Returns:
            ``(M,)`` array of top-1 accuracies.
        """
        if len(activations) != len(labels):
            raise ModelError("activations and labels must be paired")
        member_noise = np.asarray(member_noise, dtype=np.float32)
        if member_noise.ndim < 2 or member_noise.shape[1:] != activations.shape[1:]:
            raise ModelError(
                f"noise bank shape {member_noise.shape} does not match "
                f"activations {activations.shape}"
            )
        m = len(member_noise)
        chunk = max(1, batch_size // m)
        correct = np.zeros(m, dtype=np.int64)
        for start in range(0, len(labels), chunk):
            stop = min(start + chunk, len(labels))
            rows = stop - start
            # (M, rows, ...) -> one (M*rows, ...) remote pass.
            tiled = activations[None, start:stop] + member_noise[:, None]
            logits = self.predict_from_activations(
                tiled.reshape(m * rows, *activations.shape[1:])
            )
            predictions = logits.argmax(axis=1).reshape(m, rows)
            correct += (predictions == labels[start:stop]).sum(axis=1)
        return correct / len(labels)

    def __repr__(self) -> str:
        return (
            f"SplitInferenceModel({self.model.model_name}, cut={self.cut}, "
            f"activation={self.activation_shape})"
        )
