"""Edge device and cloud server runtimes (Figure 2 made executable).

The :class:`EdgeDevice` owns the local half of the network, the input
normalisation constants, and the trained :class:`NoiseCollection`; the
:class:`CloudServer` owns the remote half and never sees anything but noisy
activations.  Both expose a single-request path (``process`` / ``handle``,
the paper's deployment story, retained as the sequential *reference
implementation*) and a stacked micro-batch path (``forward_batch`` /
``predict_batch``) used by the throughput-oriented serving runtime in
:mod:`repro.serve`.

All forwards run through the
:class:`~repro.edge.executor.BatchInvariantExecutor`, so a request produces
bit-identical logits whether it is processed alone or stacked into a
micro-batch — the parity guarantee the batched
:class:`~repro.serve.ControlPlane` is tested against.  Noise is
sampled per request from the §2.5 collection (no training at deployment);
``forward_batch`` draws each request's members in arrival order from the
same generator the sequential path would consume, which keeps the two paths
sample-for-sample identical.

:class:`InferenceSession` wires the two halves through a simulated
:class:`~repro.edge.channel.Channel`, one request per round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.sampler import NoiseCollection, NoiseStream
from repro.edge.channel import Channel
from repro.edge.costs import cut_cost
from repro.edge.executor import BatchInvariantExecutor
from repro.edge.protocol import (
    ActivationMessage,
    BatchActivationMessage,
    BatchPredictionMessage,
    PredictionMessage,
    decode_activation,
    decode_prediction,
    encode_activation,
    encode_prediction,
)
from repro.edge.quantization import QuantizationParams, quantize
from repro.errors import ConfigurationError
from repro.models.base import SplittableModel
from repro.nn import Sequential


class EdgeDevice:
    """The user-side half of split inference.

    Args:
        local: Local network ``L(x, θ₁)``.
        mean / std: Input normalisation (matching backbone training).
        noise: Trained noise collection; ``None`` disables noise injection
            (the privacy-free baseline).
        rng: Randomness for per-request noise sampling — a bare generator
            or an already-owned :class:`~repro.core.sampler.NoiseStream`.
            The device wraps bare generators in a stream so concurrent
            serving keeps a single explicit owner of the sample sequence.
        quantization: Optional affine code; when set, ``forward_batch``
            quantises the stacked payload once before transmission.
        kernel_backend: Forward-executor backend (``"auto"`` / ``"native"``
            / ``"numpy"``); every device and server of one deployment must
            use the same value or the bit-parity guarantee breaks (see
            :mod:`repro.edge.executor`).
        weight_bits: ``8`` quantises the local half's weights (the opt-in
            ``int8_weights`` IR rewrite); must match the deployment's
            sequential reference — parity holds *within* a weight regime,
            never across.
    """

    def __init__(
        self,
        local: Sequential,
        mean: np.ndarray,
        std: np.ndarray,
        noise: NoiseCollection | None = None,
        rng: np.random.Generator | NoiseStream | None = None,
        quantization: QuantizationParams | None = None,
        kernel_backend: str = "auto",
        weight_bits: int | None = None,
    ) -> None:
        self.local = local.eval()
        self.mean = np.asarray(mean, dtype=np.float32)
        self.std = np.asarray(std, dtype=np.float32)
        if (self.std <= 0).any():
            raise ConfigurationError("normalisation std must be positive")
        self.noise = noise
        self.quantization = quantization
        self.noise_stream = rng if isinstance(rng, NoiseStream) else NoiseStream(rng)
        self._executor = BatchInvariantExecutor(
            self.local, kernel_backend, weight_bits=weight_bits
        )
        self._next_request = 0

    def normalize(self, images: np.ndarray) -> np.ndarray:
        """Apply the backbone's training normalisation."""
        c = images.shape[1]
        return (images - self.mean.reshape(1, c, 1, 1)) / self.std.reshape(1, c, 1, 1)

    def warm(self, batch_shape: tuple[int, ...]) -> tuple[int, ...]:
        """Pre-size executor scratch (and compile native programs) for one
        input batch geometry; returns the activation shape it produces.

        One warm at the largest batch covers every smaller batch of the
        same image geometry, so serving runtimes call this once at
        deployment time, at their window, and the first request pays no
        allocation or kernel-lowering jitter.  When the device injects
        noise, the warmed programs include the noise-add epilogue the
        real path uses.
        """
        return self._executor.warm(
            batch_shape, epilogue_add=self.noise is not None
        )

    def _noisy_activation(self, images: np.ndarray, splits: Sequence[int]) -> np.ndarray:
        """Local half + per-request noise for a stacked image batch.

        ``splits`` gives the per-request row counts; the collection is
        sampled once per request *in order*, consuming the generator exactly
        as the equivalent sequence of single-request calls would.  The
        sampled noise rides the executor's epilogue-add path, so with the
        ``fold_epilogue_add`` IR rewrite the addition happens inside the
        last kernel's output write instead of a separate traversal.
        """
        noise = None
        if self.noise is not None:
            if len(splits) == 1:
                noise = self.noise.sample_batch(self.noise_stream, splits[0])
            else:
                noise = self.noise.sample_splits(self.noise_stream, splits)
        return self._executor(self.normalize(images), epilogue_add=noise)

    def process(self, images: np.ndarray) -> ActivationMessage:
        """Run the local half and inject sampled noise (one request).

        This is the sequential reference path the batched runtime is
        parity-tested against.
        """
        activation = self._noisy_activation(images, [len(images)])
        message = ActivationMessage(request_id=self._next_request, tensor=activation)
        self._next_request += 1
        return message

    def forward_batch(
        self,
        batches: Sequence[np.ndarray],
        request_ids: Sequence[int] | None = None,
    ) -> BatchActivationMessage:
        """One stacked pass over a micro-batch of requests.

        Stacks the per-request image batches, normalises and runs the local
        half once, samples the noise collection per request, and (when a
        quantiser is configured) quantises the stacked payload once.

        Args:
            batches: Per-request ``(n_i, C, H, W)`` image batches.
            request_ids: Ids to stamp on the frame; defaults to the device's
                running counter (matching what sequential ``process`` calls
                would have assigned).
        """
        if len(batches) == 0:
            raise ConfigurationError("forward_batch needs at least one request")
        splits = [len(batch) for batch in batches]
        if any(rows == 0 for rows in splits):
            raise ConfigurationError("every request needs at least one image")
        if request_ids is None:
            request_ids = range(self._next_request, self._next_request + len(batches))
            self._next_request += len(batches)
        elif len(request_ids) != len(batches):
            raise ConfigurationError("request_ids and batches must pair up")
        stacked = batches[0] if len(batches) == 1 else np.concatenate(batches)
        activation = self._noisy_activation(stacked, splits)
        quantization = self.quantization
        if quantization is not None:
            activation = quantize(activation, quantization)
            if quantization.bits <= 8:
                # quantize() returns uint16 codes; narrow payloads really
                # travel as one byte per element.
                activation = activation.astype(np.uint8)
        return BatchActivationMessage(
            request_ids=tuple(int(i) for i in request_ids),
            splits=tuple(splits),
            tensor=activation,
            quantization=quantization,
        )


class CloudServer:
    """The provider-side half: computes predictions from noisy activations.

    Args:
        remote: Remote network ``R(a, θ₂)``.
        kernel_backend: Forward-executor backend; must match the edge
            device's (the engine threads one value through both).
        weight_bits: ``8`` quantises the remote half's weights (opt-in
            ``int8_weights`` IR rewrite); must match the edge device's.
    """

    def __init__(
        self,
        remote: Sequential,
        kernel_backend: str = "auto",
        weight_bits: int | None = None,
    ) -> None:
        self.remote = remote.eval()
        self._executor = BatchInvariantExecutor(
            self.remote, kernel_backend, weight_bits=weight_bits
        )

    @property
    def ingest_dequants(self) -> int:
        """Batch-sized f32 dequantised copies materialised so far.

        Stays zero on the native backend while the ``int8_ingest`` IR
        rewrite covers every quantised uplink — the allocation assertion
        the quantised serving bench makes.
        """
        return self._executor.ingest_dequants

    @property
    def weight_dequants(self) -> int:
        """f32-widened weight-code copies materialised so far.

        Stays zero on the native backend with ``int8_weights`` active —
        its kernels read the int8 code planes directly (the allocation
        assertion the ``executor_int8w`` bench makes).  The numpy
        interpreter widens each code plane once per lowered program on
        its float path.
        """
        return self._executor.weight_dequants

    def warm(
        self,
        activation_shape: tuple[int, ...],
        quantization: QuantizationParams | None = None,
    ) -> tuple[int, ...]:
        """Pre-size executor scratch for one stacked activation geometry.

        One warm at the largest batch covers every smaller batch of the
        same activation geometry.  Pass the deployment's ``quantization``
        so the warmed programs cover the quantised-ingest path the real
        uplinks take.
        """
        return self._executor.warm(activation_shape, quantization=quantization)

    def handle(self, message: ActivationMessage) -> PredictionMessage:
        """Compute logits for one activation message (sequential path)."""
        logits = self._executor(message.tensor)
        return PredictionMessage(request_id=message.request_id, logits=logits)

    def predict_batch(self, message: BatchActivationMessage) -> BatchPredictionMessage:
        """One remote pass over a stacked micro-batch.

        Quantised payloads feed the executor as raw codes: with the
        ``int8_ingest`` IR rewrite active the codes flow straight into the
        first GEMM/conv (no f32 dequantised copy is ever materialised);
        otherwise the executor dequantises internally, exactly like the
        historical path.  Returns the stacked logits with the request
        table preserved so the session can demultiplex them back to
        request ids.
        """
        logits = self._executor(
            message.tensor, quantization=message.quantization
        )
        return BatchPredictionMessage(
            request_ids=message.request_ids,
            splits=message.splits,
            logits=logits,
        )


@dataclass
class SessionReport:
    """Cost accounting for a batch of inferences."""

    requests: int
    uplink_bytes: int
    downlink_bytes: int
    simulated_seconds: float
    edge_kilomacs_per_sample: float


class InferenceSession:
    """End-to-end split inference over a simulated channel, one request at
    a time.

    This is the retained sequential reference implementation; the batched
    serving plane (:class:`repro.serve.ControlPlane`) must match it
    bit-for-bit on the same request stream.

    Args:
        model: The full backbone (used for cost bookkeeping).
        cut: Cut-point name.
        mean / std: Input normalisation constants.
        noise: Noise collection for the edge device (optional).
        channel: Link model; default is a fast clean link.
        rng: Noise-sampling randomness.
        kernel_backend: Forward-executor backend for both halves.
        weight_bits: ``8`` runs both halves on int8-quantised weights
            (opt-in, label-agreement-gated — see :mod:`repro.edge.ir`).
    """

    def __init__(
        self,
        model: SplittableModel,
        cut: str,
        mean: np.ndarray,
        std: np.ndarray,
        noise: NoiseCollection | None = None,
        channel: Channel | None = None,
        rng: np.random.Generator | None = None,
        kernel_backend: str = "auto",
        weight_bits: int | None = None,
    ) -> None:
        local, remote = model.split(cut)
        self.device = EdgeDevice(local, mean, std, noise, rng,
                                 kernel_backend=kernel_backend,
                                 weight_bits=weight_bits)
        self.server = CloudServer(remote, kernel_backend, weight_bits=weight_bits)
        self.channel = channel or Channel()
        self.cut = cut
        self._edge_cost = cut_cost(model, cut)
        self._uplink_bytes = 0
        self._downlink_bytes = 0
        self._requests = 0
        self._samples = 0

    def infer(self, images: np.ndarray) -> np.ndarray:
        """One round trip: edge -> channel -> cloud -> channel -> edge."""
        uplink = encode_activation(self.device.process(images))
        delivered = self.channel.transmit(uplink)
        response = self.server.handle(decode_activation(delivered))
        downlink = self.channel.transmit(encode_prediction(response))
        logits = decode_prediction(downlink).logits
        self._uplink_bytes += len(uplink)
        self._downlink_bytes += len(downlink)
        self._requests += 1
        self._samples += len(images)
        return logits

    def classify(self, images: np.ndarray) -> np.ndarray:
        """Predicted labels for a batch."""
        return self.infer(images).argmax(axis=1)

    def report(self) -> SessionReport:
        """Traffic and computation accounting for the session so far."""
        return SessionReport(
            requests=self._requests,
            uplink_bytes=self._uplink_bytes,
            downlink_bytes=self._downlink_bytes,
            simulated_seconds=self.channel.stats.simulated_seconds,
            edge_kilomacs_per_sample=self._edge_cost.kilomacs,
        )
