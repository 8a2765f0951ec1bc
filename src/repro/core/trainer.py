"""Gradient-based noise training (the paper's core algorithm).

The training loop of §2.4/§3.2: freeze the network, cast the noise as a
trainable tensor at the cut point, and minimise
``CE(R(a + n), y) − λ Σ|n_i|`` with Adam.  Because the local half is frozen
and not a function of the noise, its activations are precomputed once and
the loop only evaluates the remote half — mathematically identical to
running the full network (``∂L/∂n`` does not involve ``L(x, θ₁)``).

The trainer freezes the network itself: for the length of a training
call every backbone parameter has ``requires_grad`` off, so the backward
pass computes only the noise's gradient, and the backbone is in eval
mode, so BatchNorm uses its running statistics and Dropout is the
identity, as at deployment.  Afterwards each parameter gets its own flag
back and the model its own training flag, also on error.

The precomputed activations come from
:meth:`~repro.core.split.SplitInferenceModel.activations`: the edge
executor's float32 output, bitwise equal to what
:class:`~repro.edge.device.EdgeDevice` sends for the same normalised
input, so the noise is learned on exactly the tensor it is added to at
deployment.  The remote half runs on ``repro.nn``, whose tape training
needs.

With the weights frozen, the remote half's first affine layer splits as
``W(a + n) + b = (W a + b) + W n``, and only ``W n`` changes from step to
step.  Where the remote half starts with ``Flatten`` (and ``Dropout``,
the identity in eval mode) and then a ``Linear`` — the paper's default
cut of every backbone — each call computes ``pre = W a + b`` once for
all training rows, and a step runs the rest of the remote half on
``pre[rows] + W n`` instead of pushing every row through ``W``.  ``pre``
is computed per call, so an in-place weight update between calls reaches
the next one.  Where the remote half starts with any other module (a
``Conv2d``), nothing is hoisted: ``pre`` is the activations, the
projection is the identity and the step is the plain ``R(a + n)``, bit
for bit.  At ``Linear``-head cuts the two forms round differently and
agree to float32 precision, not bitwise.  Accuracy probes stay on the
plain remote forward (``SplitInferenceModel.accuracy_from_activations_multi``),
so ``final_accuracy`` does not depend on the hoist: an untrained
backbone's near-tied logits could flip an argmax under merely
float32-close logits.

There is one training loop, :meth:`NoiseTrainer.train_many`, which
trains all M members of a §2.5 noise collection at once; the paper's
single tensor, :meth:`NoiseTrainer.train`, is that loop with one member,
so the two share everything: the batch plan, a clone of the λ schedule
per member, a copy of the caller's noise, the fused loss and the probes.
The remote half is frozen and identical for every member, so each step
runs the M members' mini-batches through ONE forward/backward.
Per-member batch orders are drawn from the shared RNG in member order —
the stream M calls of ``train`` consume — and the summed per-member loss
hands each member's noise slice exactly its own gradient.

A member's result does not depend on how many members train beside it,
bit for bit, because nothing rounds rows of different members together.
The noise projection is one ``(1 × in)·(in × out)`` product per member.
From the remote half's first ``Linear`` on, the rows keep a member axis,
``(M, rows, F)``, and every ``Linear`` runs one matmul per member
(``F.linear`` takes leading axes): one ``(M·rows)``-row GEMM would round
by its row count, as BLAS picks its kernel by shape.  Only the conv
modules in front of that ``Linear`` (``Conv2d``-head cuts) see the rows
folded to ``(M·rows, ...)``, and ``repro.nn`` runs a conv as one product
per sample.  The loss and the privacy column reduce each member on its
own.  So ``train(noise)`` equals member 0 of any bank that starts from
``noise`` and draws the same batches, in its noise and in its loss,
cross-entropy, privacy and λ columns.  The accuracy probes run the plain
remote forward over every member's eval rows at once, whose logits do
round by the bank size; only a near-tied argmax can show it.

Intermediate held-out accuracy probes can run on a rotating eval subset
(``eval_subset``) instead of the full eval set — probing only reads, so the
trained noise is unchanged while collection training stops paying the
full-eval-set cost every ``eval_every`` steps (the final probe stays
full-set).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.core.activation_cache import materialize_activations_cached
from repro.core.loss import ShredderLoss
from repro.core.noise_tensor import MultiNoiseTensor, NoiseTensor
from repro.core.schedules import ConstantLambda, LambdaSchedule
from repro.core.snr import in_vivo_privacy_members, signal_power
from repro.core.split import SplitInferenceModel
from repro.errors import TrainingError
from repro.nn import Adam, Dataset, Dropout, Flatten, Linear, Module, Sequential, Tensor


@dataclass
class NoiseTrainingHistory:
    """Per-iteration training curves (Figure 4's raw material)."""

    iterations: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    cross_entropies: list[float] = field(default_factory=list)
    in_vivo_privacies: list[float] = field(default_factory=list)
    lambdas: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)
    accuracy_iterations: list[int] = field(default_factory=list)


@dataclass
class NoiseTrainingResult:
    """Outcome of one noise-training run.

    Attributes:
        noise: The trained per-batch-broadcast noise ``(1, C, H, W)``.
        history: Training curves.
        final_in_vivo_privacy: ``σ²(n)/E[a²]`` at the end.
        final_accuracy: Noisy accuracy on the held-out activations.
        signal_power: The constant ``E[a²]`` used during training.
        epochs: Equivalent passes over the training activations.
    """

    noise: np.ndarray
    history: NoiseTrainingHistory
    final_in_vivo_privacy: float
    final_accuracy: float
    signal_power: float
    epochs: float


def _member_noisy_batch(gathered: np.ndarray, projected: Tensor) -> Tensor:
    """Member-stacked noisy rows as one fused tape node.

    Forward: broadcast-add each member's projected noise ``projected[m]``
    to its own ``(rows, ...)`` block of the ``(M, rows, ...)`` rows
    gathered from ``pre``.  Backward: the adjoint of the broadcast — sum
    the incoming gradient over each member's rows — lands on
    ``projected``.  One tape node instead of a broadcast/add chain; this
    runs once per training step.
    """
    out = gathered + projected.data[:, None]

    def backward(grad: np.ndarray) -> None:
        projected.accumulate_grad(grad.sum(axis=1))

    return Tensor._make(out, (projected,), backward)


def _member_projection(noise: Tensor, weight: np.ndarray) -> Tensor:
    """Each member's flattened noise times ``weightᵀ``, as one tape node.

    Forward ``(x[:, None, :] @ Wᵀ)[:, 0]`` and adjoint
    ``(g[:, None, :] @ W)[:, 0]`` run one ``(1, in)`` product per member,
    so member ``m``'s row is the same call whatever the bank size; one
    ``(M, in)`` product would round by ``M`` (BLAS picks its kernel by
    the row count), and ``train_many`` would drift from ``train``.
    """
    m = noise.shape[0]
    out = (noise.data.reshape(m, 1, -1) @ weight.T)[:, 0]

    def backward(grad: np.ndarray) -> None:
        noise.accumulate_grad((grad[:, None, :] @ weight)[:, 0].reshape(noise.shape))

    return Tensor._make(out, (noise,), backward)


class _HoistedRemote:
    """The remote half as one call's training steps run it.

    The remote half splits at its first ``Linear``.  Where only
    ``Flatten``/``Dropout`` modules come before it, the head through that
    ``Linear`` is hoisted: ``pre`` is the head applied once to
    ``activations``, bias included, and a step adds each member's noise,
    projected by the head's weight, to its rows of ``pre``.  Otherwise
    ``pre`` is the activations, a step adds each member's noise to its
    rows, and the modules in front of the ``Linear`` (``folded``) run on
    the rows folded to ``(M·rows, ...)``.  The rest of the remote half
    runs on ``(M, rows, F)`` rows, so each member's rows go through every
    ``Linear`` as a matmul of their own.  Valid only while the backbone is
    frozen and in eval mode, where ``Dropout`` is the identity.
    """

    def __init__(self, remote: Sequential, activations: np.ndarray) -> None:
        layers = remote.layers()
        first = next(
            (index for index, module in enumerate(layers) if isinstance(module, Linear)),
            len(layers),
        )
        self.linear: Linear | None = None
        self.folded = Sequential()
        self.pre = activations
        if first < len(layers) and all(
            isinstance(module, (Flatten, Dropout)) for module in layers[:first]
        ):
            self.linear, first = layers[first], first + 1
            self.pre = remote.slice(0, first)(Tensor(activations)).data
        else:
            self.folded = remote.slice(0, first)
        self.rest = remote.slice(first, len(remote))

    def __call__(self, indices: np.ndarray, noise: Tensor) -> Tensor:
        """``(M, rows, classes)`` logits of the ``(M, rows)`` training rows
        ``indices``, member ``m``'s rows under the noise ``noise[m]``."""
        if self.linear is not None:
            noise = _member_projection(noise, self.linear.weight.data)
        noisy = _member_noisy_batch(self.pre[indices], noise)
        if len(self.folded):
            m, rows = indices.shape
            folded = self.folded(noisy.reshape(m * rows, *noisy.shape[2:]))
            noisy = folded.reshape(m, rows, *folded.shape[1:])
        return self.rest(noisy)


@contextmanager
def _frozen_eval(model: Module) -> Iterator[None]:
    """Hold ``model`` frozen and in eval mode for the block, then restore
    each parameter's ``requires_grad`` and the model's training flag, also
    on error.

    Noise training never updates the weights (paper §2.1), so weight
    gradients are work nothing reads; the noise's gradient is unchanged.
    Eval mode trains the noise on the network as it is deployed, and is
    what makes the hoisted head exact across ``Dropout``.
    """
    parameters = model.parameters()
    flags = [parameter.requires_grad for parameter in parameters]
    was_training = model.training
    for parameter in parameters:
        parameter.requires_grad = False
    model.eval()
    try:
        yield
    finally:
        model.train(was_training)
        for parameter, flag in zip(parameters, flags):
            parameter.requires_grad = flag


class _StreamingEvalPlan:
    """Rotating eval-subset index stream for cheap accuracy probes.

    Each probe takes the next ``subset`` indices of a shuffled permutation
    of the eval set, re-shuffling when exhausted — over many probes the
    whole set is covered (streaming), while each individual probe costs
    ``subset / n`` of a full evaluation.  The plan owns its generator so
    probing never perturbs the training batch stream (which is what keeps
    subset-eval runs bit-identical in their trained noise to full-eval
    runs).
    """

    def __init__(self, n: int, subset: int, rng: np.random.Generator) -> None:
        if subset < 1:
            raise TrainingError(f"eval subset must be >= 1, got {subset}")
        self.n = n
        self.subset = min(subset, n)
        self._rng = rng
        self._order = rng.permutation(n)
        self._cursor = 0

    def indices(self) -> np.ndarray:
        """The next probe's eval-set indices."""
        if self._cursor + self.subset > self.n:
            self._order = self._rng.permutation(self.n)
            self._cursor = 0
        window = self._order[self._cursor : self._cursor + self.subset]
        self._cursor += self.subset
        return window


class NoiseTrainer:
    """Trains noise tensors for a split model.

    Args:
        split: The split backbone.  Its weights are never updated, and
            ``train``/``train_many`` switch their gradients off for the call.
        train_set: Dataset whose activations drive the optimisation.
        eval_set: Held-out dataset for accuracy tracking.
        loss: The Shredder loss (λ inside is overridden by ``schedule``).
        schedule: λ schedule; defaults to the loss's constant λ.
        lr: Adam learning rate for the noise tensor.
        batch_size: Mini-batch size over cached activations.
        eval_every: Iterations between held-out accuracy measurements.
        rng: Randomness for batching (noise init happens outside).
        eval_subset: When set, intermediate ``eval_every`` accuracy probes
            use a rotating subset of this many held-out samples instead of
            the full eval set (the final probe always runs on the full set,
            so ``final_accuracy`` stays unbiased).  Subset probing never
            touches the batching RNG, so the trained noise is unchanged.
        eval_rng: Randomness for the subset rotation (fixed default seed).
    """

    def __init__(
        self,
        split: SplitInferenceModel,
        train_set: Dataset,
        eval_set: Dataset,
        loss: ShredderLoss,
        schedule: LambdaSchedule | None = None,
        lr: float = 1e-2,
        batch_size: int = 32,
        eval_every: int = 20,
        rng: np.random.Generator | None = None,
        eval_subset: int | None = None,
        eval_rng: np.random.Generator | None = None,
    ) -> None:
        self.split = split
        self.loss = loss
        self.schedule = schedule or ConstantLambda(loss.lambda_coeff)
        self.lr = lr
        self.batch_size = batch_size
        self.eval_every = eval_every
        self._rng = rng or np.random.default_rng()
        self.eval_subset = eval_subset
        self._eval_rng = eval_rng or np.random.default_rng(0)
        self._eval_plan: _StreamingEvalPlan | None = None
        # Each ``train``/``train_many`` call holds the backbone frozen and
        # in eval mode and then restores the caller's flags.  Construction
        # also leaves the model in eval mode, as it is served.
        split.model.eval()
        # Materialisation goes through the process-wide activation cache:
        # repeated pipelines over the same (model, cut, dataset) — λ sweeps,
        # benchmark suites — skip the local-half forward pass entirely.
        self.train_activations, self.train_labels = materialize_activations_cached(
            split, train_set
        )
        self.eval_activations, self.eval_labels = materialize_activations_cached(
            split, eval_set
        )
        # E[a²] is a constant of the frozen network (paper §2.4: "the
        # numerator in our SNR formulation is constant").
        self.signal_power = signal_power(self.train_activations)

    # ------------------------------------------------------------------
    # Accuracy probing (streaming subset evaluator)
    # ------------------------------------------------------------------
    def _probe_indices(self, final: bool) -> np.ndarray | None:
        """Eval rows for one accuracy probe (``None`` = whole eval set)."""
        if (
            final
            or self.eval_subset is None
            or self.eval_subset >= len(self.eval_labels)
        ):
            return None
        if self._eval_plan is None:
            self._eval_plan = _StreamingEvalPlan(
                len(self.eval_labels), self.eval_subset, self._eval_rng
            )
        return self._eval_plan.indices()

    def _probe_accuracies(
        self, bank_data: np.ndarray, batch_size: int, final: bool
    ) -> np.ndarray:
        """One accuracy probe per member of a noise bank."""
        indices = self._probe_indices(final)
        if indices is None:
            activations, labels = self.eval_activations, self.eval_labels
        else:
            activations = self.eval_activations[indices]
            labels = self.eval_labels[indices]
        return self.split.accuracy_from_activations_multi(
            activations, labels, bank_data, batch_size=batch_size
        )

    # ------------------------------------------------------------------
    # Batch planning
    # ------------------------------------------------------------------
    def _batch_plan(self, iterations: int) -> np.ndarray:
        """Draw one run's mini-batch index sequence from the shared RNG.

        Replicates the lazy shuffled-epoch logic the training loop always
        used (an initial permutation, re-shuffled whenever a full batch no
        longer fits), consuming the RNG identically — so M sequential
        ``train`` calls and one ``train_many(M)`` call see member-for-member
        identical batches.

        Returns:
            ``(iterations, batch_size)`` index matrix (row = one step).
            When ``batch_size > n`` every step is a fresh whole-set
            permutation and the rows have length ``n`` instead.
        """
        n = len(self.train_labels)
        batch = self.batch_size
        if batch > n:
            # Degenerate geometry: the loop re-shuffles every step and the
            # batch is the whole (permuted) training set.
            self._rng.permutation(n)  # the unused initial permutation
            return np.stack([self._rng.permutation(n) for _ in range(iterations)])
        per_epoch = n // batch
        epochs = -(-iterations // per_epoch)
        # One permutation per epoch with the ragged tail discarded — the
        # exact index stream the lazy loop produces, drawn in one shot.
        flat = np.concatenate(
            [self._rng.permutation(n)[: per_epoch * batch] for _ in range(epochs)]
        )
        return flat.reshape(-1, batch)[:iterations]

    def _check_noise_shape(self, per_sample_shape: tuple[int, ...]) -> None:
        if per_sample_shape != self.split.activation_shape:
            raise TrainingError(
                f"noise shape {per_sample_shape} does not match the "
                f"activation shape {self.split.activation_shape} at cut "
                f"{self.split.cut!r}"
            )

    # ------------------------------------------------------------------
    # Training (paper §2.4, and §2.5 for M members in one loop)
    # ------------------------------------------------------------------
    def train(self, noise: NoiseTensor, iterations: int) -> NoiseTrainingResult:
        """Run ``iterations`` Adam steps on a copy of ``noise`` and measure
        curves: :meth:`train_many` with one member."""
        return self.train_many([noise], iterations)[0]

    def train_many(
        self,
        noises: Sequence[NoiseTensor] | MultiNoiseTensor,
        iterations: int,
    ) -> list[NoiseTrainingResult]:
        """Train M noise members simultaneously in one loop.

        Every step gathers each member's mini-batch of ``pre`` rows (the
        activations through the hoisted head, see the module docstring)
        into an ``(M, B, ...)`` batch, adds each member's projected noise
        to its own rows, runs the rest of the remote half forward and
        backward once, and applies one Adam step to the ``(M, ...)`` noise
        bank.  The summed per-member loss (see
        :meth:`ShredderLoss.many_arrays`) gives each slice exactly its own
        gradient, and no row of one member is rounded together with
        another's, so member ``m`` ends bit for bit as :meth:`train` would
        leave it from the same initialisation and batch stream, while all
        per-op overhead is paid once for M members.

        Per-member λ schedules are independent clones of ``self.schedule``,
        so decay-on-target members trigger individually.  A list of
        members is copied into a new bank; a ready-made bank is trained in
        place.

        Args:
            noises: Per-member initialisations, or a ready-made bank.
            iterations: Adam steps (each trains every member once).

        Returns:
            One :class:`NoiseTrainingResult` per member, in input order.
        """
        if iterations <= 0:
            raise TrainingError(f"iterations must be positive, got {iterations}")
        if isinstance(noises, MultiNoiseTensor):
            bank = noises
        else:
            if len(noises) == 0:
                raise TrainingError("train_many needs at least one noise member")
            bank = MultiNoiseTensor.from_members(list(noises))
        self._check_noise_shape(bank.activation_shape)
        m = bank.n_members
        n = len(self.train_labels)
        batch = self.batch_size
        schedules = [self.schedule.clone() for _ in range(m)]
        # Member-major draws replicate the RNG stream of one-member runs;
        # (iterations, M, rows) so each step is a single 2-D gather.
        plan_matrix = np.stack(
            [self._batch_plan(iterations) for _ in range(m)], axis=1
        )

        optimizer = Adam([bank], lr=self.lr)
        # History columns are recorded as arrays and unpacked once at the
        # end: per-member Python bookkeeping inside the step loop would
        # cost as much as the optimiser step itself.
        ce_col = np.empty((iterations, m))
        privacy_col = np.empty((iterations, m))
        reg_col = np.empty((iterations, m))
        lambda_col = np.empty((iterations, m))
        reg_sign = 1.0
        eval_steps: list[int] = []
        eval_rows: list[np.ndarray] = []
        with _frozen_eval(self.split.model):
            remote = _HoistedRemote(self.split.remote, self.train_activations)
            for step in range(iterations):
                privacies = in_vivo_privacy_members(self.signal_power, bank.data)
                lambdas = [
                    schedule.coefficient(step, privacy)
                    for schedule, privacy in zip(schedules, privacies)
                ]
                privacy_col[step] = privacies
                lambda_col[step] = lambdas
                indices = plan_matrix[step]
                logits = remote(indices, bank)
                total, cross_entropies, reg_terms, reg_sign = self.loss.many_arrays(
                    logits, self.train_labels[indices], bank, lambdas
                )
                if not math.isfinite(float(total.data)):
                    raise TrainingError(
                        f"noise training diverged at iteration {step} "
                        f"(member losses {cross_entropies + reg_sign * np.asarray(lambdas) * reg_terms})"
                    )
                optimizer.zero_grad()
                total.backward()
                optimizer.step()

                ce_col[step] = cross_entropies
                reg_col[step] = reg_terms
                if step % self.eval_every == 0 or step == iterations - 1:
                    # Fewer, fuller remote passes are the whole point of the
                    # multi-member evaluator; cap total rows to bound memory
                    # on wide activations.
                    eval_steps.append(step)
                    eval_rows.append(
                        self._probe_accuracies(
                            bank.data,
                            batch_size=min(4096, 1024 * m),
                            final=step == iterations - 1,
                        )
                    )

        totals_col = ce_col + reg_sign * lambda_col * reg_col
        accuracy_matrix = np.stack(eval_rows)
        steps = list(range(iterations))
        final_privacies = in_vivo_privacy_members(self.signal_power, bank.data)
        results = []
        for i in range(m):
            history = NoiseTrainingHistory(
                iterations=steps.copy(),
                losses=totals_col[:, i].tolist(),
                cross_entropies=ce_col[:, i].tolist(),
                in_vivo_privacies=privacy_col[:, i].tolist(),
                lambdas=lambda_col[:, i].tolist(),
                accuracies=accuracy_matrix[:, i].tolist(),
                accuracy_iterations=eval_steps.copy(),
            )
            results.append(
                NoiseTrainingResult(
                    noise=bank.member(i).copy(),
                    history=history,
                    final_in_vivo_privacy=float(final_privacies[i]),
                    final_accuracy=history.accuracies[-1],
                    signal_power=self.signal_power,
                    epochs=iterations * batch / n,
                )
            )
        return results
