"""Input-reconstruction attacks against the communicated activations.

Two standard adversaries that try to invert ``a' = L(x) + n`` back to the
input image, given an attack corpus of (input, activation) pairs — the
threat model of a cloud provider or eavesdropper that has access to some
labelled traffic:

* :class:`NearestNeighbourInverter` — returns the input whose activation
  is closest to the observation (a strong non-parametric baseline).
* :class:`LinearInverter` — ridge-regression decoder from activation space
  back to pixel space (the classic linear model-inversion attack).

Shredder's success criterion: with sampled noise the attacks' advantage
should collapse toward zero while classification accuracy survives.
"""

from __future__ import annotations

import numpy as np

from repro.attacks._matching import iter_distance_blocks
from repro.attacks.metrics import (
    ReconstructionReport,
    mean_squared_error,
    peak_signal_to_noise_ratio,
)
from repro.errors import ConfigurationError, EstimatorError


def _flatten(batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch)
    return batch.reshape(len(batch), -1).astype(np.float64)


class NearestNeighbourInverter:
    """Reconstruct inputs by nearest-neighbour search in activation space.

    Candidate matching runs as blocked matrix ops (the ``||a-b||²``
    expansion) rather than a per-sample Python loop; the loop form is kept
    in ``tests/oracles.py`` for parity testing.

    Args:
        corpus_inputs: ``(N, ...)`` attacker-known inputs.
        corpus_activations: ``(N, ...)`` matching observed activations.
    """

    def __init__(self, corpus_inputs: np.ndarray, corpus_activations: np.ndarray) -> None:
        if len(corpus_inputs) != len(corpus_activations):
            raise ConfigurationError("corpus inputs/activations must be paired")
        if len(corpus_inputs) == 0:
            raise ConfigurationError("attack corpus must not be empty")
        self._inputs = np.asarray(corpus_inputs)
        self._activations = _flatten(corpus_activations)
        self._corpus_norms = (self._activations**2).sum(axis=1)

    def _check_width(self, observed: np.ndarray) -> None:
        if observed.shape[1] != self._activations.shape[1]:
            raise EstimatorError(
                f"activation width {observed.shape[1]} does not match the "
                f"corpus width {self._activations.shape[1]}"
            )

    def match_indices(self, activations: np.ndarray) -> np.ndarray:
        """Corpus index of the nearest activation per observation."""
        observed = _flatten(activations)
        self._check_width(observed)
        best = np.empty(len(observed), dtype=np.int64)
        for start, distances in iter_distance_blocks(
            observed, self._activations, self._corpus_norms
        ):
            best[start : start + len(distances)] = distances.argmin(axis=1)
        return best

    def reconstruct(self, activations: np.ndarray) -> np.ndarray:
        """Best-match inputs for each observed activation."""
        return self._inputs[self.match_indices(activations)]


class LinearInverter:
    """Ridge-regression decoder from activations to pixels.

    Fits ``X ≈ A W + b`` on the attack corpus by solving the regularised
    normal equations; reconstruction quality on held-out traffic measures
    how much linearly-decodable input information the channel leaks.

    Args:
        ridge: L2 regularisation strength (stabilises the solve when the
            corpus is smaller than the activation width).
    """

    def __init__(self, ridge: float = 1e-2) -> None:
        if ridge <= 0:
            raise ConfigurationError(f"ridge must be positive, got {ridge}")
        self.ridge = ridge
        self._weights: np.ndarray | None = None
        self._bias: np.ndarray | None = None
        self._input_shape: tuple[int, ...] | None = None

    def fit(self, corpus_inputs: np.ndarray, corpus_activations: np.ndarray) -> "LinearInverter":
        """Fit the decoder on the attack corpus."""
        if len(corpus_inputs) != len(corpus_activations):
            raise ConfigurationError("corpus inputs/activations must be paired")
        if len(corpus_inputs) < 2:
            raise ConfigurationError("attack corpus needs at least 2 samples")
        inputs = _flatten(corpus_inputs)
        activations = _flatten(corpus_activations)
        self._input_shape = np.asarray(corpus_inputs).shape[1:]
        a_mean = activations.mean(axis=0)
        x_mean = inputs.mean(axis=0)
        a_centered = activations - a_mean
        x_centered = inputs - x_mean
        gram = a_centered.T @ a_centered
        gram[np.diag_indices_from(gram)] += self.ridge * len(inputs)
        self._weights = np.linalg.solve(gram, a_centered.T @ x_centered)
        self._bias = x_mean - a_mean @ self._weights
        return self

    def reconstruct(self, activations: np.ndarray) -> np.ndarray:
        """Decode observed activations back to input space."""
        if self._weights is None:
            raise EstimatorError("LinearInverter must be fitted first")
        decoded = _flatten(activations) @ self._weights + self._bias
        return decoded.reshape(len(decoded), *self._input_shape).astype(np.float32)


def evaluate_reconstruction(
    truth_inputs: np.ndarray,
    reconstructions: np.ndarray,
    corpus_inputs: np.ndarray,
) -> ReconstructionReport:
    """Score reconstructions against the mean-image baseline."""
    mean_image = np.asarray(corpus_inputs).mean(axis=0, keepdims=True)
    baseline = np.broadcast_to(mean_image, np.asarray(truth_inputs).shape)
    return ReconstructionReport(
        mse=mean_squared_error(truth_inputs, reconstructions),
        psnr_db=peak_signal_to_noise_ratio(truth_inputs, reconstructions),
        baseline_mse=mean_squared_error(truth_inputs, baseline),
    )
