"""End-to-end Shredder pipeline — the library's main entry point.

``ShredderPipeline`` ties everything together for one backbone and cut:

1. split the frozen pre-trained network at the cut point,
2. initialise a noise tensor from ``Laplace(mu, b)``,
3. train it with the Eq. 3 loss (λ knob, optional decay-on-target),
4. optionally build a noise collection (§2.5) — all members train at
   once in one loop (``NoiseTrainer.train_many``), each bit for bit as it
   would train alone, at a fraction of the wall clock,
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

from dataclasses import dataclass, fields, replace
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


#: The :class:`repro.serve.DeploymentSpec` fields the sequential
#: reference (``deploy(batched=False)``) honours.
_SEQUENTIAL_FIELDS = ("noise", "model", "cut", "mean", "std", "rng", "weight_bits")


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
        self, n_members: int, iterations: int | None = None
    ) -> NoiseCollection:
        """Build a §2.5 noise collection.

        All members train at once in one loop
        (:meth:`NoiseTrainer.train_many`), member ``i`` from the
        ``seed_tag=i`` initialisation and under its own clone of the λ
        schedule (one member hitting its decay target must not decay λ
        for the others).  Member ``i`` draws the batch stream the ``i``-th
        of repeated :meth:`train_noise` calls would, and a member trains
        the same whatever the bank size, so member ``i`` equals
        ``train_noise(seed_tag=i)`` on a pipeline with the same RNG state,
        bit for bit, at a fraction of the wall clock.

        Args:
            n_members: Collection size.
            iterations: Training steps per member (scale default).
        """
        iterations = iterations or self.config.scale.noise_iterations
        collection = NoiseCollection(self.split.activation_shape)
        noises = [self.new_noise(seed_tag=index) for index in range(n_members)]
        for result in self.trainer.train_many(noises, iterations):
            collection.add(
                result.noise, result.final_accuracy, result.final_in_vivo_privacy
            )
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
        workers: int = 1,
        channel: Channel | None = None,
        kernel_backend: str = "auto",
        **knobs,
    ):
        """Stand up serving of ``noise`` (``None``: the privacy-free
        baseline) for this pipeline's split backbone.

        ``knobs`` are :class:`repro.serve.DeploymentSpec` fields, where
        every per-deployment knob is documented.  By default this returns
        a :class:`repro.serve.ControlPlane` of ``workers`` cloud threads
        over ``channel`` and ``kernel_backend`` kernels, hosting one
        deployment, ``"default"``, registered as :meth:`deploy_many`
        registers each tenant; every request method of the plane defaults
        to it.  ``batched=False`` returns the sequential reference
        (:class:`repro.edge.InferenceSession`), the oracle the plane is
        tested against; it refuses the batching, admission, shuffling and
        quantisation fields.  Both produce bit-identical predictions on
        the same request stream when given identically seeded generators.
        """
        from repro.edge import InferenceSession
        from repro.serve import ControlPlane, DeploymentSpec

        spec = DeploymentSpec(noise=noise, **knobs)
        if batched:
            plane = ControlPlane(
                workers=workers, channel=channel, kernel_backend=kernel_backend
            )
            try:
                self.register_on(plane, "default", spec)
            except BaseException:
                plane.close()
                raise
            return plane
        if workers != 1:
            raise ConfigurationError(
                "workers is a batched-serving feature; deploy(batched=True) "
                "to use it"
            )
        spec.refuse(
            [f.name for f in fields(spec) if f.name not in _SEQUENTIAL_FIELDS],
            "is a batched-serving feature; deploy(batched=True) to use it",
        )
        model, cut, spec = self._resolve(spec)
        return InferenceSession(
            model, cut, *spec.normalisation(model.input_shape[0]), spec.noise,
            channel=channel, rng=spec.rng,
            kernel_backend=kernel_backend, weight_bits=spec.weight_bits,
        )

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
        noise collection, cut, batching policy, single-owner noise
        stream, and metrics — while every worker thread serves
        micro-batches from any of them through a per-deployment executor
        cache pre-warmed at registration.

        ``deployments`` maps each name to a
        :class:`repro.serve.DeploymentSpec`, a plain dict of its fields,
        a bare :class:`~repro.core.sampler.NoiseCollection` (all other
        knobs defaulted), or ``None`` (privacy-free baseline).  The
        keyword arguments are the plane's (see
        :class:`repro.serve.ControlPlane`).

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
                self.register_on(plane, name, spec, name)
        except BaseException:
            # Never leak the worker pool when a late registration fails.
            plane.close()
            raise
        return plane

    def register_on(self, plane, name: str, spec, *seed_tags: object):
        """Register ``spec`` as deployment ``name`` of ``plane``, resolving
        the fields only a pipeline can (see :meth:`_resolve`); returns the
        registered :class:`repro.serve.controlplane.Deployment`.

        ``seed_tags`` extend the config-derived noise and calibration
        seeds (``deploy_many`` passes the tenant name, so tenants draw
        decorrelated streams).
        """
        return plane.register(name, *self._resolve(spec, *seed_tags))

    def _resolve(self, spec, *seed_tags: object):
        """``(model, cut, spec)`` with the pipeline-only fields resolved:
        ``model`` and ``cut`` default to this pipeline's, ``quantize_bits``
        becomes a ``quantization`` calibrated on the held-out (noisy)
        activations, and ``rng`` defaults to a config-derived seed."""
        from repro.edge import calibrate

        model = spec.model or self.bundle.model
        cut = spec.cut or self.split.cut
        quantization = spec.quantization
        if spec.quantize_bits is not None:
            if spec.model is not None or cut != self.split.cut:
                raise ConfigurationError(
                    "quantize_bits calibrates on this pipeline's held-out "
                    "activations, so it requires the pipeline's own model "
                    "and cut"
                )
            spec.refuse(("quantization",), "conflicts with quantize_bits")
            calibration = self.trainer.eval_activations
            if spec.noise is not None and len(spec.noise):
                calibration = calibration + spec.noise.sample_batch(
                    np.random.default_rng(
                        self.config.child_seed("quant-calib", *seed_tags)
                    ),
                    len(calibration),
                )
            quantization = calibrate(calibration, bits=spec.quantize_bits)
        rng = spec.rng
        if rng is None:
            rng = np.random.default_rng(
                self.config.child_seed("serving", *seed_tags)
            )
        return model, cut, replace(
            spec, model=None, cut=None, quantize_bits=None,
            quantization=quantization, rng=rng,
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
