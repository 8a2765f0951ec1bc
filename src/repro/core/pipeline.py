"""End-to-end Shredder pipeline — the library's main entry point.

``ShredderPipeline`` ties everything together for one backbone and cut:

1. split the frozen pre-trained network at the cut point,
2. initialise a noise tensor from ``Laplace(mu, b)``,
3. train it with the Eq. 3 loss (λ knob, optional decay-on-target),
4. optionally build a noise collection (§2.5) — by default all members
   train simultaneously in one batched loop (``NoiseTrainer.train_many``),
   which matches member-at-a-time training numerically at a fraction of
   the wall clock,
5. measure clean/noisy accuracy and the input↔activation mutual
   information with and without noise (the Table 1 quantities),
6. ``deploy()`` the trained collection on a one-deployment serving
   control plane (:class:`repro.serve.ControlPlane`), with the
   sequential Figure 2 path retained as the bit-for-bit reference — or
   ``deploy_many()`` several named deployments onto one shared-pool
   plane.

Activations of the frozen local half are materialised through the shared
:mod:`repro.core.activation_cache`, so repeated pipelines over the same
(backbone, cut, dataset) triple skip that forward pass entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.config import Config, get_scale
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.edge.channel import Channel
from repro.core.distribution import FittedNoiseDistribution
from repro.core.loss import ShredderLoss
from repro.core.noise_tensor import NoiseTensor
from repro.core.sampler import NoiseCollection, NoiseSample
from repro.core.schedules import LambdaSchedule
from repro.core.split import SplitInferenceModel
from repro.core.trainer import NoiseTrainer, NoiseTrainingResult
from repro.models.zoo import PretrainedBundle
from repro.privacy.metrics import (
    LeakageEstimate,
    estimate_leakage,
    information_loss_percent,
)


@dataclass
class ShredderReport:
    """The Table 1 row for one (network, cut, λ, init) configuration.

    Attributes:
        model_name: Backbone name.
        cut: Cut-point name.
        clean_accuracy: Frozen backbone accuracy, no noise.
        noisy_accuracy: Accuracy with the trained noise injected.
        accuracy_loss_percent: ``clean − noisy`` in percentage points.
        original_mi_bits: I(x; a) without noise (the zero-leakage line).
        shredded_mi_bits: I(x; a′) with trained noise.
        mi_loss_percent: Percent reduction (Table 1's headline metric).
        final_in_vivo_privacy: 1/SNR of the trained noise.
        noise_elements: Trainable noise parameters.
        model_parameters: Backbone weight count.
        params_ratio_percent: noise / model parameters × 100 (Table 1).
        epochs: Equivalent training epochs of noise training (Table 1).
    """

    model_name: str
    cut: str
    clean_accuracy: float
    noisy_accuracy: float
    accuracy_loss_percent: float
    original_mi_bits: float
    shredded_mi_bits: float
    mi_loss_percent: float
    final_in_vivo_privacy: float
    noise_elements: int
    model_parameters: int
    params_ratio_percent: float
    epochs: float


class ShredderPipeline:
    """Runs Shredder for one pre-trained backbone.

    Args:
        bundle: A :class:`~repro.models.zoo.PretrainedBundle` (frozen model
            plus its normalised data splits).
        cut: Cut point; defaults to the last conv layer (paper default).
        lambda_coeff: The λ knob of Eq. 3.
        init_loc / init_scale: Laplace initialisation ``mu`` and ``b``.
        schedule: Optional λ schedule (decay-on-target etc.).
        lr: Adam learning rate for the noise.
        config: Seed/scale configuration.
        eval_subset: When set, the trainer's intermediate accuracy probes
            use a rotating held-out subset of this size instead of the full
            eval set (final probes stay full-set; see
            :class:`~repro.core.trainer.NoiseTrainer`).
    """

    def __init__(
        self,
        bundle: PretrainedBundle,
        cut: str | None = None,
        lambda_coeff: float = 1e-3,
        init_loc: float = 0.0,
        init_scale: float = 1.0,
        schedule: LambdaSchedule | None = None,
        lr: float = 1e-2,
        config: Config | None = None,
        eval_subset: int | None = None,
    ) -> None:
        self.bundle = bundle
        self.config = config or Config(scale=get_scale())
        self.split = SplitInferenceModel(bundle.model, cut)
        self.lambda_coeff = lambda_coeff
        self.init_loc = init_loc
        self.init_scale = init_scale
        self.lr = lr
        self.trainer = NoiseTrainer(
            self.split,
            bundle.train_set,
            bundle.test_set,
            loss=ShredderLoss(lambda_coeff),
            schedule=schedule,
            lr=lr,
            batch_size=self.config.scale.batch_size,
            rng=np.random.default_rng(self.config.child_seed("noise-batches")),
            eval_subset=eval_subset,
            eval_rng=np.random.default_rng(self.config.child_seed("eval-subset")),
        )

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def new_noise(self, seed_tag: object = 0) -> NoiseTensor:
        """A fresh Laplace-initialised noise tensor."""
        rng = np.random.default_rng(self.config.child_seed("noise-init", seed_tag))
        return NoiseTensor.from_laplace(
            self.split.activation_shape, rng, loc=self.init_loc, scale=self.init_scale
        )

    def train_noise(
        self, iterations: int | None = None, seed_tag: object = 0
    ) -> NoiseTrainingResult:
        """Train one noise tensor (paper §2.4)."""
        iterations = iterations or self.config.scale.noise_iterations
        return self.trainer.train(self.new_noise(seed_tag), iterations)

    def collect(
        self,
        n_members: int,
        iterations: int | None = None,
        batched: bool = True,
    ) -> NoiseCollection:
        """Build a §2.5 noise collection.

        By default all members train simultaneously in one batched loop
        (:meth:`NoiseTrainer.train_many`): member ``i`` starts from the
        same ``seed_tag=i`` initialisation and consumes the same batch
        stream as the sequential loop would, so the resulting collection
        matches repeated :meth:`train_noise` calls within floating-point
        tolerance — at a fraction of the wall clock.

        Every member trains under its own clone of the λ schedule in both
        modes (one member hitting its decay target must not decay λ for
        the others), which keeps the two paths numerically equivalent for
        stateful schedules as well.

        Args:
            n_members: Collection size.
            iterations: Training steps per member (scale default).
            batched: ``False`` forces the original member-at-a-time loop
                (kept for parity testing and benchmarking).
        """
        iterations = iterations or self.config.scale.noise_iterations
        collection = NoiseCollection(self.split.activation_shape)
        if batched and n_members > 1:
            noises = [self.new_noise(seed_tag=index) for index in range(n_members)]
            for result in self.trainer.train_many(noises, iterations):
                collection.add(
                    result.noise, result.final_accuracy, result.final_in_vivo_privacy
                )
            return collection
        shared_schedule = self.trainer.schedule
        try:
            for index in range(n_members):
                self.trainer.schedule = shared_schedule.clone()
                result = self.train_noise(iterations, seed_tag=index)
                collection.add(
                    result.noise, result.final_accuracy, result.final_in_vivo_privacy
                )
        finally:
            self.trainer.schedule = shared_schedule
        return collection

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def _noise_for_eval(
        self, noise: np.ndarray | NoiseCollection | FittedNoiseDistribution | None
    ) -> np.ndarray | None:
        """Resolve a noise source to per-sample tensors for the eval set.

        A :class:`NoiseCollection` or :class:`FittedNoiseDistribution` is
        sampled once per test inference (§2.5 deployment); a plain array is
        broadcast as-is (note a single fixed tensor is a constant shift and
        leaves MI unchanged — use a collection or fitted distribution to
        measure deployment-time privacy).
        """
        if noise is None:
            return None
        if isinstance(noise, (NoiseCollection, FittedNoiseDistribution)):
            rng = np.random.default_rng(self.config.child_seed("noise-sampling"))
            return noise.sample_batch(rng, len(self.trainer.eval_labels))
        return np.asarray(noise, dtype=np.float32)

    def measure_leakage(
        self,
        noise: np.ndarray | NoiseCollection | FittedNoiseDistribution | None = None,
    ) -> LeakageEstimate:
        """I(x; a′) on the (shuffled) test set, as in §3."""
        scale = self.config.scale
        test = self.bundle.test_set
        activations = self.trainer.eval_activations
        resolved = self._noise_for_eval(noise)
        if resolved is not None:
            activations = activations + resolved
        return estimate_leakage(
            test.images,
            activations,
            n_components=scale.mi_components,
            max_samples=scale.mi_samples,
            rng=np.random.default_rng(self.config.child_seed("mi-subsample")),
        )

    def noisy_accuracy(
        self, noise: np.ndarray | NoiseCollection | FittedNoiseDistribution
    ) -> float:
        """Held-out accuracy under the given noise source."""
        return self.split.accuracy_from_activations(
            self.trainer.eval_activations,
            self.trainer.eval_labels,
            self._noise_for_eval(noise),
        )

    def clean_accuracy(self) -> float:
        """Held-out accuracy of the frozen backbone without noise."""
        return self.split.accuracy_from_activations(
            self.trainer.eval_activations, self.trainer.eval_labels
        )

    def report(
        self, collection: NoiseCollection, epochs: float | None = None
    ) -> ShredderReport:
        """Assemble the Table 1 row for a trained noise collection.

        Args:
            collection: Noise distribution to deploy (per-inference draws).
            epochs: Equivalent training epochs per member (for the Table 1
                row); defaults to the collection's bookkeeping being absent,
                i.e. 0.0 when unknown.
        """
        clean = self.clean_accuracy()
        noisy = self.noisy_accuracy(collection)
        original = self.measure_leakage(None)
        shredded = self.measure_leakage(collection)
        noise_elements = int(np.prod(self.split.activation_shape))
        model_parameters = self.bundle.model.num_parameters()
        return ShredderReport(
            model_name=self.bundle.model.model_name,
            cut=self.split.cut,
            clean_accuracy=clean,
            noisy_accuracy=noisy,
            accuracy_loss_percent=100.0 * (clean - noisy),
            original_mi_bits=original.mi_bits,
            shredded_mi_bits=shredded.mi_bits,
            mi_loss_percent=information_loss_percent(
                original.mi_bits, shredded.mi_bits
            ),
            final_in_vivo_privacy=collection.mean_in_vivo_privacy(),
            noise_elements=noise_elements,
            model_parameters=model_parameters,
            params_ratio_percent=100.0 * noise_elements / model_parameters,
            epochs=epochs if epochs is not None else 0.0,
        )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(
        self,
        noise: NoiseCollection | None = None,
        *,
        batched: bool = True,
        batch_window: int = 8,
        workers: int = 1,
        batch_timeout: float = 0.005,
        deadline_aware: bool = True,
        isolate_sessions: bool = False,
        channel: Channel | None = None,
        quantize_bits: int | None = None,
        weight_bits: int | None = None,
        kernel_backend: str = "auto",
        rng: np.random.Generator | None = None,
        max_pending: int | None = None,
        admission_rate_rps: float | None = None,
        shuffle: bool = False,
        shuffle_seed: int | None = None,
    ):
        """Stand up serving for this pipeline's split backbone.

        By default this returns a :class:`repro.serve.ControlPlane`
        hosting one deployment, built from one
        :class:`repro.serve.DeploymentSpec` exactly as :meth:`deploy_many`
        builds each of its tenants: a request queue and batcher in front
        of one stacked edge/cloud round trip per micro-batch, served by
        ``workers`` cloud threads.  Every request method of the plane
        (``submit``, ``infer_stream``, ``report_for``, ...) defaults to
        that sole deployment.  ``batched=False`` returns the sequential
        reference path (:class:`repro.edge.InferenceSession`), the oracle
        the batched plane is tested against.  Both produce bit-identical
        predictions on the same request stream when given identically
        seeded generators.

        The bundle's datasets are already normalised, so the device is
        configured with identity normalisation.

        Args:
            noise: Trained collection (e.g. from :meth:`collect`); ``None``
                deploys the privacy-free baseline.
            batched: The batched plane, or the sequential path.
            batch_window: Requests stacked per micro-batch.
            workers: Cloud worker threads.
            batch_timeout: Longest the head request waits for its window
                to fill.
            deadline_aware: Close windows on request SLO slack; ``False``
                is the fixed-window policy.
            isolate_sessions: Batch-composition policy: ``True`` never
                mixes two sessions in one micro-batch (the mixing index
                reads 0); default ``False`` (``mixed``).
            channel: Link model (default: fast clean link).
            quantize_bits: When set, calibrate an affine quantiser on the
                held-out (noisy) activations and quantise each stacked
                uplink payload once (batched only).
            weight_bits: ``8`` serves every half on int8-quantised
                weights (the opt-in ``int8_weights`` IR rewrite,
                label-agreement-gated).  Available on both paths — the
                sequential reference quantises identically, so parity
                holds within the weight regime.
            kernel_backend: Forward-executor backend for every half of the
                deployment — ``"auto"`` (compiled C kernels when a system
                compiler is available; the default), ``"native"``
                (require them), or ``"numpy"``.  Both paths use the
                selected backend, keeping batched / sequential parity
                intact (see :mod:`repro.edge.executor`).
            rng: Noise-sampling randomness; defaults to a config-derived
                seed so deployments are reproducible.
            max_pending / admission_rate_rps: Admission-control knobs
                (batched only).  Over capacity the plane's ``submit``
                raises a typed :class:`~repro.errors.AdmissionError`.
            shuffle / shuffle_seed: Enable the seeded cross-session row
                shuffling stage (batched only; see
                :class:`repro.serve.scheduler.Shuffler`).  Parity is
                preserved — the recorded inverse restores per-request
                order bit-exactly.
        """
        from repro.edge import InferenceSession
        from repro.serve import ControlPlane, DeploymentSpec

        rng = rng or np.random.default_rng(self.config.child_seed("serving"))
        if not batched:
            if (
                quantize_bits is not None
                or shuffle
                or workers != 1
                or max_pending is not None
                or admission_rate_rps is not None
            ):
                raise ConfigurationError(
                    "quantize_bits / shuffle / workers / max_pending / "
                    "admission_rate_rps are batched-serving features; "
                    "deploy(batched=True) to use them"
                )
            channels = self.bundle.model.input_shape[0]
            return InferenceSession(
                self.bundle.model, self.split.cut,
                np.zeros(channels, dtype=np.float32),
                np.ones(channels, dtype=np.float32),
                noise, channel=channel, rng=rng,
                kernel_backend=kernel_backend, weight_bits=weight_bits,
            )
        spec = DeploymentSpec(
            noise=noise,
            batch_window=batch_window,
            batch_timeout=batch_timeout,
            deadline_aware=deadline_aware,
            isolate_sessions=isolate_sessions,
            quantize_bits=quantize_bits,
            weight_bits=weight_bits,
            rng=rng,
            max_pending=max_pending,
            admission_rate_rps=admission_rate_rps,
            shuffle=shuffle,
            shuffle_seed=shuffle_seed,
        )
        plane = ControlPlane(
            workers=workers, channel=channel, kernel_backend=kernel_backend
        )
        try:
            self._register(plane, "default", spec)
        except BaseException:
            plane.close()
            raise
        return plane

    def deploy_many(
        self,
        deployments: dict,
        *,
        workers: int = 2,
        channel: Channel | None = None,
        kernel_backend: str = "auto",
        fault_injector=None,
        clock=None,
        max_workers: int | None = None,
        auto_heal: bool = False,
    ):
        """Stand up one multi-deployment serving control plane.

        Each entry of ``deployments`` becomes a named tenant on a shared
        cloud worker pool (:class:`repro.serve.ControlPlane`): its own
        noise collection, cut, batching window/policy, single-owner noise
        stream, and metrics — while every worker thread serves
        micro-batches from any of them through a per-deployment executor
        cache pre-warmed at registration.

        Args:
            deployments: ``{name: spec}`` where ``spec`` is a
                :class:`repro.serve.DeploymentSpec`, a plain dict of its
                fields, a bare :class:`~repro.core.sampler.NoiseCollection`
                (all other knobs defaulted), or ``None`` (privacy-free
                baseline deployment).  A spec's ``batch_window=None`` asks
                the planner for the largest window meeting the spec's
                ``target_slo_seconds`` at its ``arrival_rate_rps``
                (per-deployment planner windows).
            workers: Cloud worker threads shared by every deployment.
            channel: Link prototype cloned per (worker, deployment).
            kernel_backend: Default executor backend (specs may override;
                one backend per deployment, as in :meth:`deploy`).
            fault_injector: Optional crash-injection hook (see
                :class:`repro.serve.ControlPlane`).
            clock: Time source for scheduling/latency accounting.
            max_workers: Elastic pool ceiling for
                :meth:`~repro.serve.ControlPlane.scale_to` / healing /
                the autoscaler (default: fixed at ``workers``).
            auto_heal: Respawn crashed workers automatically during
                crash recovery.

        Specs may carry admission-control knobs (``max_pending``,
        ``admission_rate_rps``, ``admission_burst``, ``shed_unmeetable``)
        — over capacity, submissions to that deployment raise typed
        :class:`~repro.errors.AdmissionError` /
        :class:`~repro.errors.OverloadError`.

        Returns:
            The control plane with every deployment registered; route
            requests with ``plane.submit(images, deployment=name, ...)``.
        """
        from repro.serve import ControlPlane, DeploymentSpec

        if not deployments:
            raise ConfigurationError("deploy_many needs at least one deployment")
        plane = ControlPlane(
            workers=workers,
            channel=channel,
            kernel_backend=kernel_backend,
            fault_injector=fault_injector,
            clock=clock,
            max_workers=max_workers,
            auto_heal=auto_heal,
        )
        try:
            for name, raw in deployments.items():
                if raw is None or isinstance(raw, NoiseCollection):
                    spec = DeploymentSpec(noise=raw)
                elif isinstance(raw, DeploymentSpec):
                    spec = raw
                elif isinstance(raw, dict):
                    spec = DeploymentSpec(**raw)
                else:
                    raise ConfigurationError(
                        f"deployment {name!r}: expected a DeploymentSpec, "
                        f"dict, NoiseCollection, or None, got {type(raw).__name__}"
                    )
                self._register(plane, name, spec, name)
        except BaseException:
            # Never leak the worker pool when a late registration fails.
            plane.close()
            raise
        return plane

    def _register(self, plane, name: str, spec, *seed_tags: object) -> None:
        """Register one :class:`repro.serve.DeploymentSpec` on ``plane``.

        ``seed_tags`` extend the config-derived noise and calibration
        seeds (``deploy_many`` passes the tenant name, so tenants draw
        decorrelated streams).
        """
        from repro.edge import calibrate

        model = spec.model or self.bundle.model
        cut = spec.cut or self.split.cut
        quantization = None
        if spec.quantize_bits is not None:
            if spec.model is not None or cut != self.split.cut:
                raise ConfigurationError(
                    f"deployment {name!r}: quantize_bits calibrates "
                    "on this pipeline's held-out activations, so it "
                    "requires the pipeline's own model and cut"
                )
            calibration = self.trainer.eval_activations
            if spec.noise is not None and len(spec.noise):
                calibration = calibration + spec.noise.sample_batch(
                    np.random.default_rng(
                        self.config.child_seed("quant-calib", *seed_tags)
                    ),
                    len(calibration),
                )
            quantization = calibrate(calibration, bits=spec.quantize_bits)
        rng = spec.rng or np.random.default_rng(
            self.config.child_seed("serving", *seed_tags)
        )
        plane.register(
            name,
            model,
            cut,
            noise=spec.noise,
            rng=rng,
            batch_window=spec.batch_window,
            max_rows=spec.max_rows,
            batch_timeout=spec.batch_timeout,
            deadline_aware=spec.deadline_aware,
            isolate_sessions=spec.isolate_sessions,
            quantization=quantization,
            weight_bits=spec.weight_bits,
            kernel_backend=spec.kernel_backend,
            target_slo_seconds=spec.target_slo_seconds,
            arrival_rate_rps=spec.arrival_rate_rps,
            service_seconds_per_sample=spec.service_seconds_per_sample,
            max_pending=spec.max_pending,
            admission_rate_rps=spec.admission_rate_rps,
            admission_burst=spec.admission_burst,
            shed_unmeetable=spec.shed_unmeetable,
            shuffle=spec.shuffle,
            shuffle_seed=spec.shuffle_seed,
        )

    def run(
        self, iterations: int | None = None, n_members: int = 4
    ) -> ShredderReport:
        """Train a noise collection and report all Table 1 quantities."""
        iterations = iterations or self.config.scale.noise_iterations
        collection = self.collect(n_members, iterations)
        epochs = iterations * self.config.scale.batch_size / len(
            self.trainer.train_labels
        )
        return self.report(collection, epochs=epochs)
