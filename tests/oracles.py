"""Reference implementations the fast paths are checked against.

Each oracle is the straightforward form of a computation the library
runs faster: the per-point KSG and Kozachenko-Leonenko loops, the
per-observation attack loops, the PCA fitted by an economy SVD, the
plain noise-training step, which pushes each member's noisy rows through
the whole remote half on their own, and the one-tensor noise-training
loop with its member-at-a-time collection.
Parity tests compare the library with them, and
``benchmarks/bench_hotpaths.py`` times the estimator oracles and the
member-at-a-time collection as its "before" side.  This module imports
only numpy, scipy and ``repro`` so that the benchmark can run where
pytest is not installed.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from repro.attacks.reconstruction import NearestNeighbourInverter, _flatten
from repro.attacks.reidentification import ReidentificationAttack
from repro.core import NoiseCollection, ShredderLoss, ShredderPipeline, noise_variance
from repro.core.noise_tensor import MultiNoiseTensor, NoiseTensor
from repro.core.trainer import (
    NoiseTrainer,
    NoiseTrainingHistory,
    NoiseTrainingResult,
    _frozen_eval,
    _HoistedRemote,
)
from repro.errors import EstimatorError, TrainingError
from repro.nn import Adam, Sequential, Tensor, stack
from repro.privacy.entropy import _LN2, _validate_samples, unit_ball_log_volume
from repro.privacy.mutual_information import _RADIUS_TOL, _jittered, _paired
from repro.privacy.reduction import PCAReducer


def ksg_mutual_information_reference(
    x: np.ndarray,
    y: np.ndarray,
    k: int = 3,
    jitter: float = 1e-10,
    jitter_rng: np.random.Generator | int | None = None,
) -> float:
    """The pre-vectorisation KSG implementation (per-point Python loop).

    Retained verbatim as the parity baseline for the fast backends and as
    the "before" side of the hot-path benchmark.  ``jitter_rng`` matches
    :func:`ksg_mutual_information` so parity checks can pin the jitter.
    """
    x, y = _paired(x, y, k)
    n = len(x)
    if k < 1 or k >= n:
        raise EstimatorError(f"k must be in [1, N); got k={k}, N={n}")
    x, y = _jittered(x, y, jitter, jitter_rng)
    joint = np.concatenate([x, y], axis=1)
    joint_tree = cKDTree(joint)
    distances, _ = joint_tree.query(joint, k=k + 1, p=np.inf)
    radius = distances[:, k]
    x_tree = cKDTree(x)
    y_tree = cKDTree(y)
    nx = np.array(
        [
            len(x_tree.query_ball_point(x[i], radius[i] - _RADIUS_TOL, p=np.inf)) - 1
            for i in range(n)
        ]
    )
    ny = np.array(
        [
            len(y_tree.query_ball_point(y[i], radius[i] - _RADIUS_TOL, p=np.inf)) - 1
            for i in range(n)
        ]
    )
    nats = (
        digamma(k)
        + digamma(n)
        - float(np.mean(digamma(nx + 1) + digamma(ny + 1)))
    )
    return max(nats, 0.0) / _LN2


def kl_entropy_reference(
    samples: np.ndarray, k: int = 3, jitter: float = 1e-10
) -> float:
    """The pre-vectorisation KL estimator (single unparallelised query).

    Retained verbatim as the parity baseline for :func:`kl_entropy` and as
    the "before" side of the hot-path benchmark.
    """
    samples = _validate_samples(samples, minimum=k + 2)
    n, d = samples.shape
    if k < 1 or k >= n:
        raise EstimatorError(f"k must be in [1, N); got k={k}, N={n}")
    if jitter:
        rng = np.random.default_rng(0)
        samples = samples + rng.normal(0.0, jitter, size=samples.shape)
    tree = cKDTree(samples)
    distances, _ = tree.query(samples, k=k + 1)
    eps = np.maximum(distances[:, k], 1e-300)
    nats = (
        digamma(n)
        - digamma(k)
        + unit_ball_log_volume(d)
        + d * float(np.mean(np.log(eps)))
    )
    return nats / _LN2


def rank_candidates_reference(
    attack: ReidentificationAttack, observed: np.ndarray
) -> np.ndarray:
    """Per-observation loop form of
    :meth:`ReidentificationAttack.rank_candidates` (pre-vectorisation
    reference).

    Kept for parity tests and benchmarking.
    """
    flat = attack._flat_observed(observed)
    pool_norms = (attack._pool**2).sum(axis=1)
    ranking = np.empty((len(flat), attack.pool_size), dtype=np.int64)
    for index, row in enumerate(flat):
        cross = attack._pool @ row
        distances = (row @ row) + pool_norms - 2.0 * cross
        ranking[index] = np.argsort(distances, kind="stable")
    return ranking


def reconstruct_reference(
    inverter: NearestNeighbourInverter, activations: np.ndarray
) -> np.ndarray:
    """Per-sample loop form of :meth:`NearestNeighbourInverter.reconstruct`
    (pre-vectorisation reference).

    Kept for parity tests and benchmarking; computes each observation's
    distances to the whole corpus one sample at a time.
    """
    observed = _flatten(activations)
    inverter._check_width(observed)
    best = np.empty(len(observed), dtype=np.int64)
    for index, row in enumerate(observed):
        deltas = inverter._activations - row[None, :]
        best[index] = (deltas**2).sum(axis=1).argmin()
    return inverter._inputs[best]


class SVDPCAReducer(PCAReducer):
    """:class:`PCAReducer` fitted by the economy SVD of the centred data.

    The former exact path of ``PCAReducer.fit``; the library now takes the
    same components from a Gram or scatter eigendecomposition.  Whitening
    and ``transform`` are inherited unchanged.
    """

    def fit(self, data: np.ndarray) -> "SVDPCAReducer":
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise EstimatorError(f"expected (N, D) data, got shape {data.shape}")
        n, d = data.shape
        if n < 2:
            raise EstimatorError("need at least 2 samples to fit PCA")
        k = min(self.n_components, d, n - 1)
        self.mean_ = data.mean(axis=0)
        centered = data - self.mean_
        # Economy SVD; components are right singular vectors.
        _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        self.components_ = vt[:k]
        variance = (singular_values[:k] ** 2) / max(n - 1, 1)
        self.explained_variance_ = variance
        self.scales_ = np.sqrt(np.maximum(variance, 1e-12))
        return self


def plain_step_reference(
    remote: Sequential,
    activations: np.ndarray,
    indices: np.ndarray,
    bank: MultiNoiseTensor,
) -> Tensor:
    """``(M, rows, classes)`` logits of one noise-training step without the
    hoisted head.

    Row ``m`` of the ``(M, rows)`` matrix ``indices`` picks member ``m``'s
    rows of ``activations``; they get ``bank[m]`` added and run through the
    whole ``remote`` half on their own, as a one-member step would run
    them before the remote half's first ``Linear`` was hoisted out of the
    step.
    """
    return stack([
        remote(Tensor(activations[rows]) + bank[member : member + 1])
        for member, rows in enumerate(indices)
    ])


def train_reference(
    trainer: NoiseTrainer, noise: NoiseTensor, iterations: int
) -> NoiseTrainingResult:
    """The one-tensor loop ``NoiseTrainer.train`` ran before it became a
    one-member ``train_many``.

    Each step reads the privacy with ``noise_variance``, asks the
    trainer's own schedule (not a clone) for λ, and takes the tape loss
    ``ShredderLoss.__call__``; ``noise`` is trained in place and each
    accuracy probe runs the single-noise ``accuracy_from_activations``.
    """
    if iterations <= 0:
        raise TrainingError(f"iterations must be positive, got {iterations}")
    trainer._check_noise_shape(noise.per_sample.shape)
    optimizer = Adam([noise], lr=trainer.lr)
    history = NoiseTrainingHistory()
    n = len(trainer.train_labels)
    plan = trainer._batch_plan(iterations)
    with _frozen_eval(trainer.split.model):
        remote = _HoistedRemote(trainer.split.remote, trainer.train_activations)
        for step, batch in enumerate(plan):
            privacy = noise_variance(noise.data) / trainer.signal_power
            lambda_now = trainer.schedule.coefficient(step, privacy)
            loss_fn = ShredderLoss(lambda_now, trainer.loss.variant)

            logits = remote(batch[None], noise).reshape(len(batch), -1)
            total, parts = loss_fn(logits, trainer.train_labels[batch], noise)
            if not np.isfinite(parts.total):
                raise TrainingError(
                    f"noise training diverged at iteration {step} "
                    f"(loss={parts.total})"
                )
            optimizer.zero_grad()
            total.backward()
            optimizer.step()

            history.iterations.append(step)
            history.losses.append(parts.total)
            history.cross_entropies.append(parts.cross_entropy)
            history.in_vivo_privacies.append(privacy)
            history.lambdas.append(lambda_now)
            if step % trainer.eval_every == 0 or step == iterations - 1:
                probe = trainer._probe_indices(final=step == iterations - 1)
                rows = slice(None) if probe is None else probe
                accuracy = trainer.split.accuracy_from_activations(
                    trainer.eval_activations[rows], trainer.eval_labels[rows], noise.data
                )
                history.accuracies.append(accuracy)
                history.accuracy_iterations.append(step)

    final_privacy = noise_variance(noise.data) / trainer.signal_power
    return NoiseTrainingResult(
        noise=noise.data.copy(),
        history=history,
        final_in_vivo_privacy=final_privacy,
        final_accuracy=history.accuracies[-1],
        signal_power=trainer.signal_power,
        epochs=iterations * trainer.batch_size / n,
    )


def collect_reference(
    pipeline: ShredderPipeline, n_members: int, iterations: int
) -> NoiseCollection:
    """Member-at-a-time ``ShredderPipeline.collect``: :func:`train_reference`
    once per member, member ``i`` from ``pipeline.new_noise(seed_tag=i)``
    and under its own clone of the trainer's schedule."""
    trainer = pipeline.trainer
    collection = NoiseCollection(pipeline.split.activation_shape)
    shared_schedule = trainer.schedule
    try:
        for index in range(n_members):
            trainer.schedule = shared_schedule.clone()
            result = train_reference(
                trainer, pipeline.new_noise(seed_tag=index), iterations
            )
            collection.add(
                result.noise, result.final_accuracy, result.final_in_vivo_privacy
            )
    finally:
        trainer.schedule = shared_schedule
    return collection
