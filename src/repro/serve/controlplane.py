"""The serving control plane: every batched deployment runs here.

The deployment story of the paper — one cloud endpoint serving *many*
edge users — wants one or more ``(model, cut, noise collection)`` tuples
behind one front door, sharing the expensive part (the cloud worker pool)
while keeping everything privacy-critical (noise streams, batch
composition, ordering) strictly per deployment.  This module is that
control plane, in three pieces:

* :class:`DeploymentRegistry` — holds N named :class:`Deployment`\\ s, each
  its own split model, noise collection and single-owner
  :class:`~repro.core.sampler.NoiseStream`, per-deployment
  :class:`~repro.serve.scheduler.AdaptiveBatcher` (window, timeout,
  deadline policy, batch-composition policy) and
  :class:`~repro.serve.metrics.ServingMetrics`.  Registration pre-warms a
  per-worker executor cache keyed by deployment, so the first request of
  any deployment pays no allocation or kernel-lowering jitter.
  :meth:`ControlPlane.submit` validates each request against its
  deployment's input shape, runs the admission gate, and feeds the
  deployment's queue; results are addressed by :class:`RequestHandle`
  ``(deployment, request_id)``.  With one deployment registered, every
  request method defaults to it.
* a **shared worker pool** — ``workers`` cloud workers execute encoded
  micro-batches from *any* deployment, each on its own thread (each
  worker holds one :class:`~repro.edge.device.CloudServer` + channel
  clone per deployment).
* **crash recovery** — a worker that dies mid-batch (via the
  ``fault_injector`` hook) is detected by the dispatcher, its in-flight
  batch is requeued to the surviving workers exactly once per crash, and
  bit parity + per-session ordering still hold, because the edge half
  (noise draws included) already happened on the dispatcher before the
  batch ever reached a worker: re-executing the pure cloud half on the
  same uplink bytes is deterministic.

Every per-deployment knob is one field of :class:`DeploymentSpec`.
Micro-batches never span deployments (each deployment has its own
batcher), and :attr:`ServingMetrics.mixing_index` reports the realised
cross-user mixing within one — the fraction of batch rows a request
shared its stacked activation with that belong to other sessions.

:meth:`repro.core.ShredderPipeline.deploy` returns a one-deployment
plane, the asyncio front-end (:mod:`repro.serve.aio`) drives a plane from
an event loop, and each shard of :mod:`repro.serve.shard` runs one.
Parity, ordering, and noise-draw accounting are pinned per deployment by
``tests/serve/test_controlplane.py``.

Lifecycle (the elastic layer)
-----------------------------

The plane's pool and registry are mutable at runtime, under a small set
of invariant-preserving operations (all dispatcher-thread-only):

* **Healing** — :meth:`ControlPlane.heal` (or ``auto_heal=True``, which
  heals inside crash recovery) re-spawns crashed workers up to
  ``target_workers``, each pre-warmed with every registered deployment's
  :class:`~repro.edge.device.CloudServer` executor cache and a fresh
  channel clone.  Capacity comes back, and bit parity is untouched:
  noise was drawn on the dispatcher before dispatch, so which (old or
  respawned) worker executes the pure cloud half cannot change a bit.
* **Scaling** — :meth:`ControlPlane.scale_to` grows/shrinks the pool
  between 1 and ``max_workers`` workers; :meth:`enable_autoscale`
  installs an :class:`Autoscaler` that does it automatically from the
  metrics signals the plane already emits (arrival rates, backlog,
  service-time EWMA, SLO pressure) with the planner's
  :func:`~repro.edge.planner.predict_window_latency` wire term as the
  cold-start feedforward estimate.  A shrink queues one stop marker per
  surplus worker behind the micro-batches already queued, so every
  admitted batch is served before a worker leaves.
* **Hot swap / unregister** — :meth:`swap` and :meth:`unregister` first
  drain the deployment's queue to a barrier
  (:meth:`drain_deployment` + a full in-flight quiesce, raising
  :class:`~repro.errors.DeploymentDrainError` on timeout) and then
  replace the deployment's model/cut/noise (re-equipping every worker)
  or remove the tenant entirely.  Other deployments keep serving across
  the barrier.  Parity across a swap point means: requests admitted
  *before* the swap are bit-identical to a sequential reference over the
  old ``(model, cut, noise, stream)``, requests admitted *after* to a
  fresh reference over the new one — the drain barrier guarantees no
  request straddles the two regimes.
* **Admission control** — a deployment's admission gate rejects typed
  (429-style) at the front door instead of queueing doomed work: once a
  request is admitted it is served exactly once, in order,
  bit-identically — overload never drops admitted work.
"""

from __future__ import annotations

import math
import time
import weakref
from collections import deque
from dataclasses import dataclass, field, fields, replace
from queue import Empty, SimpleQueue
from threading import Thread
from typing import (
    Callable,
    Hashable,
    Iterable,
    Iterator,
    NamedTuple,
    Sequence,
)

import numpy as np

from repro.core.sampler import NoiseCollection, NoiseStream
from repro.edge.channel import Channel
from repro.edge.costs import batched_cut_cost
from repro.edge.device import CloudServer, EdgeDevice, SessionReport
from repro.edge.planner import (
    BYTES_PER_ELEMENT,
    plan_batch_window,
    window_wire_seconds,
)
from repro.edge.protocol import (
    BatchActivationMessage,
    BatchPredictionMessage,
    decode_activation_batch,
    decode_prediction_batch,
    encode_activation_batch,
    encode_prediction_batch,
)
from repro.edge.quantization import QuantizationParams
from repro.errors import (
    AdmissionError,
    ConfigurationError,
    DeploymentDrainError,
    OverloadError,
    ServingFaultError,
    WorkerCrashError,
)
from repro.models.base import SplittableModel
from repro.serve.admission import AdmissionController
from repro.serve.metrics import ServingMetrics
from repro.serve.queue import InferenceRequest, RequestQueue, stream_requests
from repro.serve.scheduler import AdaptiveBatcher, BatchPermutation, Shuffler

#: Sentinel distinguishing "argument omitted" from an explicit ``None``
#: (``swap(noise=None)`` means *remove* the noise collection).
_UNSET = object()


class RequestHandle(NamedTuple):
    """Addresses one request in the control plane."""

    deployment: str
    request_id: int


@dataclass(frozen=True)
class DeploymentSpec:
    """Every per-deployment serving knob, declared once.

    :meth:`ControlPlane.register`, :meth:`repro.core.ShredderPipeline.deploy`
    and ``deploy_many``, :meth:`repro.serve.shard.ShardSpec.capture` and
    ``repro serve`` all take this spec (or keyword overrides of its
    fields).  A layer that cannot honour a field it is given raises
    :class:`~repro.errors.ConfigurationError` naming the field.

    Attributes:
        noise: Trained collection; ``None`` serves the privacy-free
            baseline.
        model / cut: Backbone and cut-point overrides a pipeline resolves
            (default: its own); the plane and shards take both as
            arguments instead.
        mean / std: Per-channel input normalisation (default: identity).
        rng: Noise-sampling randomness, a generator or an owned
            :class:`~repro.core.sampler.NoiseStream` (default: fresh
            entropy; a pipeline derives a seed from its config).
        quantize_bits: Calibrate an affine uplink quantiser on the
            pipeline's held-out (noisy) activations (pipeline only).
        quantization: Affine-quantise each stacked uplink payload once.
        weight_bits: ``8`` serves both halves on int8-quantised weights
            (the opt-in ``int8_weights`` IR rewrite, label-agreement
            gated); parity holds within a weight regime, never across.
        channel: This deployment's link prototype (default: the plane's);
            every worker serves over its own clone.
        batch_window: Requests per micro-batch; ``None`` asks the planner
            (:func:`~repro.edge.planner.plan_batch_window`) for the
            largest window meeting ``target_slo_seconds`` at
            ``arrival_rate_rps``.
        max_rows: Optional cap on stacked image rows per micro-batch.
        batch_timeout: Longest the head request waits for its window.
        deadline_aware: Close windows on request SLO slack (default) or
            on a fixed window.
        isolate_sessions: Batch-composition policy: ``True`` never mixes
            two sessions in one micro-batch (the mixing index reads 0);
            ``False`` is ``mixed``.
        target_slo_seconds: Latency target of the planner and of the
            autoscaler's SLO-pressure signal.
        arrival_rate_rps / service_seconds_per_sample: Further planner
            inputs (``batch_window=None`` only).
        max_pending / admission_rate_rps / admission_burst /
        shed_unmeetable: Admission gate
            (:class:`~repro.serve.admission.AdmissionController`): over
            capacity, ``submit`` raises a typed
            :class:`~repro.errors.AdmissionError` /
            :class:`~repro.errors.OverloadError`.  All off by default.
        shuffle / shuffle_seed: Permute every closed micro-batch's rows
            across sessions before encoding
            (:class:`~repro.serve.scheduler.Shuffler`, seed default 0);
            the recorded inverse restores per-request order bit-exactly.
    """

    noise: NoiseCollection | None = None
    model: SplittableModel | None = None
    cut: str | None = None
    mean: np.ndarray | None = None
    std: np.ndarray | None = None
    rng: np.random.Generator | NoiseStream | None = None
    quantize_bits: int | None = None
    quantization: QuantizationParams | None = None
    weight_bits: int | None = None
    channel: Channel | None = None
    batch_window: int | None = 8
    max_rows: int | None = None
    batch_timeout: float = 0.005
    deadline_aware: bool = True
    isolate_sessions: bool = False
    target_slo_seconds: float | None = None
    arrival_rate_rps: float | None = None
    service_seconds_per_sample: float = 0.0
    max_pending: int | None = None
    admission_rate_rps: float | None = None
    admission_burst: float | None = None
    shed_unmeetable: bool = False
    shuffle: bool = False
    shuffle_seed: int | None = None

    def __post_init__(self) -> None:
        if self.batch_window is not None:
            self.refuse(
                ("arrival_rate_rps", "service_seconds_per_sample"),
                "is a planner input; it needs batch_window=None",
            )
        if self.admission_rate_rps is None:
            self.refuse(("admission_burst",), "needs admission_rate_rps")
        if not self.shuffle:
            self.refuse(("shuffle_seed",), "needs shuffle=True")

    def refuse(self, names: Sequence[str], reason: str) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` naming the
        first of ``names`` this spec sets to a non-default value."""
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in names and not (
                value is spec_field.default
                or (spec_field.default is not None and value == spec_field.default)
            ):
                raise ConfigurationError(f"{spec_field.name} {reason}")

    def normalisation(self, channels: int) -> tuple[np.ndarray, np.ndarray]:
        """``(mean, std)`` for ``channels`` input channels, identity
        where unset."""
        return (
            np.zeros(channels, np.float32) if self.mean is None else self.mean,
            np.ones(channels, np.float32) if self.std is None else self.std,
        )

    def wire_bytes_per_element(self) -> float:
        """Uplink bytes per activation element: the quantised payload
        width, or float32's."""
        if self.quantization is None:
            return BYTES_PER_ELEMENT
        return float(self.quantization.bytes_per_element)


@dataclass
class Deployment:
    """Runtime state of one registered deployment (control-plane private).

    Everything privacy- or ordering-relevant is per deployment: the edge
    device (and through it the single-owner noise stream), the batcher and
    its policy knobs, the metrics, and the session-ordering gate.
    """

    name: str
    model: SplittableModel
    cut: str
    #: The registered spec, its link prototype and normalisation filled in.
    spec: DeploymentSpec
    device: EdgeDevice
    remote: object  # the remote Sequential; workers build servers from it
    queue: RequestQueue
    batcher: AdaptiveBatcher
    metrics: ServingMetrics
    batch_window: int  # the spec's, or the planner's choice
    edge_kilomacs: float
    activation_shape: tuple[int, ...]  # one full window's, as warmed
    admission: AdmissionController | None = None
    shuffler: Shuffler | None = None
    window_wire_seconds: float = 0.0
    channels: list[Channel] = field(default_factory=list)
    #: The per-session ordering gate (session requests only): results
    #: computed ahead of an earlier request of their session, and each
    #: session's dispatched requests in submission order.
    computed: dict[int, np.ndarray] = field(default_factory=dict)
    deliverable: dict[int, np.ndarray] = field(default_factory=dict)
    session_waiting: dict[Hashable, deque[InferenceRequest]] = field(
        default_factory=dict
    )
    span_start: float | None = None

    @property
    def noise_stream(self) -> NoiseStream:
        """The deployment's single-owner noise-sampling stream."""
        return self.device.noise_stream


class DeploymentRegistry:
    """Named deployments of one control plane (insertion-ordered)."""

    def __init__(self) -> None:
        self._deployments: dict[str, Deployment] = {}

    def add(self, deployment: Deployment) -> None:
        self._deployments[deployment.name] = deployment

    def get(self, name: str | None = None) -> Deployment:
        """The deployment called ``name``; ``None`` means the only one
        registered (with several registered, callers must name one)."""
        if name is None:
            if len(self._deployments) == 1:
                (deployment,) = self._deployments.values()
                return deployment
            raise ConfigurationError(
                f"plane hosts {len(self._deployments)} deployments; requests "
                f"must name one of {self.names()}"
            )
        try:
            return self._deployments[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown deployment {name!r} (registered: "
                f"{sorted(self._deployments) or 'none'})"
            ) from None

    def remove(self, name: str) -> Deployment:
        """Drop a registered deployment from the registry."""
        return self._deployments.pop(name)

    def names(self) -> list[str]:
        return list(self._deployments)

    def __iter__(self) -> Iterator[Deployment]:
        return iter(self._deployments.values())

    def __len__(self) -> int:
        return len(self._deployments)

    def __contains__(self, name: str) -> bool:
        return name in self._deployments


@dataclass
class _Worker:
    """One cloud worker: its per-deployment executors and channel clones,
    used by its own pool thread (see :func:`_work`) and emptied as that
    thread leaves."""

    worker_id: int
    servers: dict[str, CloudServer] = field(default_factory=dict)
    channels: dict[str, Channel] = field(default_factory=dict)


@dataclass
class _ServiceResult:
    """What a worker hands back to the collector for one micro-batch."""

    worker_id: int
    decoded: BatchPredictionMessage
    downlink_bytes: int
    wire_seconds: float
    busy_seconds: float


@dataclass(eq=False)
class _Flight:
    """One encoded micro-batch, dispatched to the shared worker pool and
    awaiting its cloud half (the task a worker and the fault hook see)."""

    deployment: str
    window: list[InferenceRequest]
    uplink: bytes
    request_ids: tuple[int, ...]
    #: Row permutation the shuffler applied to the uplink tensor; crash
    #: recovery requeues the same (permuted) bytes, so the recorded
    #: inverse stays valid across any number of attempts.
    permutation: BatchPermutation | None = None


class ControlPlane:
    """Multi-deployment serving over one shared cloud worker pool.

    The caller's thread is the **dispatcher**: it forms per-deployment
    micro-batches, runs each deployment's edge half (noise draws in
    arrival order on that deployment's single-owner stream), and hands
    encoded uplink frames to the shared pool.  Workers execute batches
    from any deployment through their per-deployment executor cache;
    the dispatcher collects completions in whatever order they land and
    releases results under each deployment's per-session ordering gate.

    Args:
        workers: Cloud worker threads shared by every deployment (the
            initial pool size, and the healing target until
            :meth:`scale_to` moves it).
        channel: Link prototype; each (worker, deployment) pair serves
            over its own clone.  Default: fast clean link.
        kernel_backend: Executor backend of every deployment's edge and
            cloud halves.
        fault_injector: Crash-injection hook for fault-tolerance testing:
            called as ``hook(worker_id, task)`` before a worker services a
            batch; returning ``True`` kills that worker (its thread
            leaves the pool) and the dispatcher requeues the batch on the
            survivors.  ``None`` disables injection.
        clock: Time source for queueing/deadline decisions and latency
            accounting; defaults to the wall clock.
        max_workers: Hard ceiling on pool size for :meth:`scale_to` /
            :meth:`heal` / the autoscaler.  Default: ``workers`` — the
            pool is fixed-size unless a larger ceiling is granted.
        auto_heal: Re-spawn crashed workers automatically during crash
            recovery, restoring the pool to ``target_workers`` (capacity
            healing, not just exactly-once requeue).
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        channel: Channel | None = None,
        kernel_backend: str = "auto",
        fault_injector: Callable[[int, _Flight], bool] | None = None,
        clock: Callable[[], float] | None = None,
        max_workers: int | None = None,
        auto_heal: bool = False,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"need >= 1 cloud worker, got {workers}")
        if max_workers is not None and max_workers < workers:
            raise ConfigurationError(
                f"max_workers ({max_workers}) must be >= workers ({workers})"
            )
        self.workers = workers
        self.max_workers = max_workers if max_workers is not None else workers
        self.target_workers = workers
        self.auto_heal = auto_heal
        self.kernel_backend = kernel_backend
        self.registry = DeploymentRegistry()
        self._channel_prototype = channel or Channel()
        self._fault_injector = fault_injector
        self._clock = clock or time.perf_counter
        #: Live workers by id, and how many hold a stop marker whose
        #: goodbye is not collected yet (dispatcher thread only).
        self._workers: dict[int, _Worker] = {}
        self._retiring = 0
        self._next_worker_id = 0
        #: Pool-level metrics (healing / scaling events); per-deployment
        #: admission counters live on each deployment's own metrics.
        self.pool_metrics = ServingMetrics()
        self._autoscaler: Autoscaler | None = None
        # Pool threads take flights from ``_tasks`` and hand each back on
        # ``_done`` with its result or exception; the dispatcher absorbs
        # them in completion order.  A thread that takes a stop marker
        # (``None``) says goodbye as ``(None, worker_id)``.  The threads
        # hold the plane weakly, and a plane collected unclosed stops them.
        self._tasks: SimpleQueue[_Flight | None] = SimpleQueue()
        self._done: SimpleQueue[tuple[_Flight | None, object]] = SimpleQueue()
        self._threads: list[Thread] = []
        self._stop_threads = weakref.finalize(
            self, _stop_threads, self._tasks, self._threads
        )
        self._flights: set[_Flight] = set()
        self._closed = False
        for _ in range(workers):
            self._spawn()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        model: SplittableModel,
        cut: str,
        spec: DeploymentSpec | None = None,
        /,
        **overrides,
    ) -> Deployment:
        """Register ``spec`` (keyword ``overrides`` replace its fields) as
        deployment ``name`` of ``model`` cut at ``cut``, and pre-warm
        every worker for it.

        The spec's ``model``, ``cut`` and ``quantize_bits`` need a
        pipeline to resolve them and are refused here.  Registration must
        happen while no micro-batch is in flight (it equips every live
        worker).
        """
        spec = replace(spec or DeploymentSpec(), **overrides)
        if self._closed:
            raise ConfigurationError("serving control plane is closed")
        if name in self.registry:
            raise ConfigurationError(
                f"deployment {name!r} is already registered"
            )
        if self._flights:
            raise ConfigurationError(
                "cannot register a deployment while micro-batches are in "
                "flight; drain first"
            )
        spec.refuse(
            ("model", "cut", "quantize_bits"),
            "is resolved by a pipeline; register takes the model and cut "
            "as arguments and a calibrated quantization",
        )
        channel = spec.channel or self._channel_prototype
        batch_window = spec.batch_window
        if batch_window is None:
            if spec.target_slo_seconds is None or spec.arrival_rate_rps is None:
                raise ConfigurationError(
                    f"deployment {name!r}: batch_window=None needs "
                    "target_slo_seconds and arrival_rate_rps for the planner"
                )
            batch_window = plan_batch_window(
                model,
                cut,
                target_slo_seconds=spec.target_slo_seconds,
                arrival_rate_rps=spec.arrival_rate_rps,
                service_seconds_per_sample=spec.service_seconds_per_sample,
                channel=channel,
                bytes_per_element=spec.wire_bytes_per_element(),
            ).window
        mean, std = spec.normalisation(model.input_shape[0])
        spec = replace(spec, mean=mean, std=std, channel=channel)
        device, remote, activation_shape, edge_kilomacs, wire_seconds = self._split(
            model, cut, spec, batch_window
        )
        queue = RequestQueue(clock=self._clock, image_shape=model.input_shape)
        batcher = AdaptiveBatcher(
            queue,
            batch_window,
            max_rows=spec.max_rows,
            batch_timeout=spec.batch_timeout,
            deadline_aware=spec.deadline_aware,
            isolate_sessions=spec.isolate_sessions,
        )
        admission = None
        if (
            spec.max_pending is not None
            or spec.admission_rate_rps is not None
            or spec.shed_unmeetable
        ):
            admission = AdmissionController(
                max_pending=spec.max_pending,
                rate_rps=spec.admission_rate_rps,
                burst=spec.admission_burst,
                shed_unmeetable=spec.shed_unmeetable,
                clock=self._clock,
            )
        deployment = Deployment(
            name=name,
            model=model,
            cut=cut,
            spec=spec,
            device=device,
            remote=remote,
            queue=queue,
            batcher=batcher,
            metrics=ServingMetrics(),
            batch_window=batch_window,
            edge_kilomacs=edge_kilomacs,
            activation_shape=activation_shape,
            admission=admission,
            shuffler=(
                Shuffler(seed=0 if spec.shuffle_seed is None else spec.shuffle_seed)
                if spec.shuffle
                else None
            ),
            window_wire_seconds=wire_seconds,
        )
        # The registry entry is added only once every worker is equipped
        # — a mid-warm failure (e.g. kernel_backend="native" without a
        # compiler) must not leave a routable deployment that would
        # KeyError inside the workers.
        self._quiesce()
        self._equip_all(deployment)
        self.registry.add(deployment)
        return deployment

    def _split(
        self,
        model: SplittableModel,
        cut: str,
        spec: DeploymentSpec,
        batch_window: int,
    ) -> tuple[EdgeDevice, object, tuple[int, ...], float, float]:
        """The edge device, remote half, warm activation shape, per-sample
        edge kMACs and one full window's wire seconds of a resolved spec
        (registration and :meth:`swap` both build here).

        Both figures come from one pricing of the cut.  The wire time on
        the deployment's link is the feedforward term admission shedding
        and the autoscaler use before the service-time EWMA has warmed
        up; quantised uplinks shrink it to the actual payload width.
        """
        local, remote = model.split(cut)
        device = EdgeDevice(
            local, spec.mean, spec.std, spec.noise, spec.rng, spec.quantization,
            kernel_backend=self.kernel_backend,
            weight_bits=spec.weight_bits,
        )
        # One warm at the full window covers the partial windows that
        # deadline-aware closing ships: a lowered program's one binding
        # runs every batch up to the size it was built for.
        activation_shape = device.warm((batch_window, *model.input_shape))
        cost = batched_cut_cost(
            model, cut, batch_window, spec.wire_bytes_per_element()
        )
        return (
            device, remote, activation_shape, cost.kilomacs,
            window_wire_seconds(cost, spec.channel),
        )

    def _equip_all(self, deployment: Deployment) -> None:
        """Equip every worker for ``deployment``; on failure each worker
        gets its previous executors and links back.  Callers have
        quiesced the plane (:meth:`_quiesce`), so no worker is using its
        executors or about to leave."""
        saved = [
            (worker, dict(worker.servers), dict(worker.channels))
            for worker in self._workers.values()
        ]
        try:
            for worker in self._workers.values():
                self._equip(worker, deployment)
        except BaseException:
            for worker, servers, channels in saved:
                worker.servers, worker.channels = servers, channels
            raise

    def _equip(self, worker: _Worker, deployment: Deployment) -> None:
        """Give one worker a pre-warmed executor (and, unless it already
        has one, a channel clone) for ``deployment``.  Registration,
        swap, healing and pool growth all funnel through here so every
        worker is interchangeable; a swap keeps each worker's link and
        its accumulated statistics."""
        server = CloudServer(
            deployment.remote,
            self.kernel_backend,
            weight_bits=deployment.spec.weight_bits,
        )
        server.warm(
            deployment.activation_shape, quantization=deployment.spec.quantization
        )
        worker.servers[deployment.name] = server
        if deployment.name not in worker.channels:
            worker_channel = deployment.spec.channel.clone()
            worker.channels[deployment.name] = worker_channel
            deployment.channels.append(worker_channel)

    def _spawn(self) -> None:
        """Create and equip one worker, and start its thread."""
        worker = _Worker(self._next_worker_id)
        self._next_worker_id += 1
        for deployment in self.registry:
            self._equip(worker, deployment)
        self._workers[worker.worker_id] = worker
        self._threads[:] = [thread for thread in self._threads if thread.is_alive()]
        thread = Thread(
            target=_work,
            args=(weakref.ref(self), worker, self._tasks, self._done),
            name=f"shredder-cloud-{worker.worker_id}",
            daemon=True,
        )
        thread.start()
        self._threads.append(thread)

    # ------------------------------------------------------------------
    # Request lifecycle (dispatcher thread)
    # ------------------------------------------------------------------
    def deployment(self, name: str | None = None) -> Deployment:
        """The deployment called ``name`` (``None`` = the sole one)."""
        return self.registry.get(name)

    def submit(
        self,
        images: np.ndarray,
        *,
        deployment: str | None = None,
        slo_seconds: float | None = None,
        session_id: Hashable | None = None,
    ) -> RequestHandle:
        """Enqueue one request on its deployment's queue; returns the
        handle to collect it with.

        The request is checked against the deployment's input shape
        before the admission gate sees it, so a malformed request never
        takes a token, a request id or a noise draw, and never blocks a
        session.  Deployment choice is explicit (``None`` = the sole
        deployment); everything order-sensitive happens in the
        deployment's FIFO queue, which keeps noise draws in
        per-deployment arrival order however tenants interleave.

        Raises:
            ConfigurationError: Unknown deployment, or a request of the
                wrong shape, with no images, or with a non-positive SLO.
            AdmissionError: The deployment's token bucket or
                ``max_pending`` cap refused the request.
            OverloadError: The request's SLO is already unmeetable and
                the deployment sheds unmeetable work.
        """
        target = self.registry.get(deployment)
        images = target.queue.check(images, slo_seconds)
        if target.admission is not None:
            self._admit_request(target, slo_seconds)
        return RequestHandle(
            target.name, target.queue.enqueue(images, slo_seconds, session_id)
        )

    def _admit_request(
        self, deployment: Deployment, slo_seconds: float | None
    ) -> None:
        """Gate one submission on the deployment's admission controller,
        count a rejection on its metrics, re-raise typed."""
        admission = deployment.admission
        now = self._clock()
        predicted = None
        if admission.shed_unmeetable and slo_seconds is not None:
            predicted = self._predicted_delay(deployment, now)
        try:
            admission.check(
                now=now,
                pending=len(deployment.queue),
                predicted_delay_seconds=predicted,
                slo_seconds=slo_seconds,
            )
        except AdmissionError:
            deployment.metrics.rejected_requests += 1
            raise
        except OverloadError:
            deployment.metrics.shed_requests += 1
            raise

    def _predicted_delay(self, deployment: Deployment, now: float) -> float:
        """Completion-delay estimate for a request admitted right now.

        Window-close wait plus the backlog's batch count spread over the
        live pool, each batch costing the measured service EWMA — or,
        before the EWMA warms up, the planner's one-window wire time
        (:func:`~repro.edge.planner.predict_window_latency` feedforward).
        """
        batcher = deployment.batcher
        close = batcher.close_time()
        queue_wait = (
            max(0.0, close - now)
            if close is not None
            else batcher.batch_timeout
        )
        backlog_batches = math.ceil(
            (len(deployment.queue) + 1) / max(1, deployment.batch_window)
        )
        per_batch = max(batcher.service_estimate, deployment.window_wire_seconds)
        rounds = math.ceil(backlog_batches / max(1, self.alive_workers))
        return queue_wait + per_batch * rounds

    @property
    def pending(self) -> int:
        """Requests waiting in any deployment's queue."""
        return sum(len(deployment.queue) for deployment in self.registry)

    @property
    def in_flight(self) -> int:
        """Micro-batches dispatched to workers and not yet collected."""
        return len(self._flights)

    @property
    def alive_workers(self) -> int:
        """Workers that have not crashed and are not retiring."""
        return len(self._workers) - self._retiring

    def pump(self, *, flush: bool = False) -> list[RequestHandle]:
        """One dispatcher turn: dispatch ready windows of every
        deployment, collect finished batches, and return the handles that
        became deliverable (per-session submission order within each
        deployment's sessions).

        Non-blocking: finished micro-batches are absorbed in completion
        order; unfinished ones stay in flight.

        Args:
            flush: Close partial windows immediately instead of waiting
                out deadline slack / the batching timeout.
        """
        if not self._closed and self._autoscaler is not None:
            self._autoscaler.step(self._clock())
        self._dispatch_ready(flush=flush)
        return self._collect(block=False)

    def next_action_time(self) -> float | None:
        """Earliest instant any deployment's window must close (``None``
        when every queue is empty)."""
        closes = [
            close
            for deployment in self.registry
            if (close := deployment.batcher.close_time()) is not None
        ]
        return min(closes) if closes else None

    def drain(self) -> list[RequestHandle]:
        """Flush every queue, wait for every worker, deliver everything.

        Returns every handle delivered during the drain.  Each
        deployment's ``metrics.wall_seconds`` tracks its serving span
        (first dispatch to latest delivery) on this and the
        :meth:`pump`-driven path alike.
        """
        delivered: list[RequestHandle] = []
        while self.pending or self._flights:
            self._dispatch_ready(flush=True)
            delivered.extend(self._collect(block=bool(self._flights)))
        return delivered

    def result(self, handle: RequestHandle) -> np.ndarray:
        """Collect (and release) the logits of a delivered request.

        A request is *delivered* once computed **and** every earlier
        request of its session has been delivered — the per-session
        ordering contract.
        """
        deployment = self.registry.get(handle.deployment)
        if handle.request_id not in deployment.deliverable:
            raise ConfigurationError(
                f"request {handle.request_id} of deployment "
                f"{handle.deployment!r} has no deliverable result (still "
                "queued or in flight, gated behind an earlier request of "
                "its session, unknown, or already collected)"
            )
        return deployment.deliverable.pop(handle.request_id)

    def has_result(self, handle: RequestHandle) -> bool:
        """Whether ``handle`` has a deliverable (uncollected) result.

        ``False`` for unknown handles and unregistered deployments — safe
        to poll across :meth:`unregister`.
        """
        if handle.deployment not in self.registry:
            return False
        deployment = self.registry.get(handle.deployment)
        return handle.request_id in deployment.deliverable

    def infer_stream(
        self,
        stream: Iterable[np.ndarray] | Sequence[np.ndarray],
        *,
        deployment: str | None = None,
        slo_seconds: float | Sequence[float | None] | None = None,
        session_ids: Sequence[Hashable] | None = None,
    ) -> list[np.ndarray]:
        """Submit a whole request stream to ``deployment`` (``None`` =
        the sole one), drain it, and return per-request logits in
        submission order (SLOs and session ids as for
        :func:`~repro.serve.queue.stream_requests`)."""
        handles = [
            self.submit(
                images, deployment=deployment, slo_seconds=slo,
                session_id=session,
            )
            for images, slo, session in stream_requests(
                stream, slo_seconds, session_ids
            )
        ]
        self.drain()
        return [self.result(handle) for handle in handles]

    def classify_stream(
        self,
        stream: Iterable[np.ndarray] | Sequence[np.ndarray],
        **kwargs,
    ) -> list[np.ndarray]:
        """Predicted labels per request, in submission order (keywords as
        for :meth:`infer_stream`)."""
        return [
            logits.argmax(axis=1)
            for logits in self.infer_stream(stream, **kwargs)
        ]

    # ------------------------------------------------------------------
    # Elastic lifecycle (dispatcher thread only)
    # ------------------------------------------------------------------
    def heal(self, *, to: int | None = None) -> int:
        """Re-spawn crashed workers until the pool is back at target.

        Each respawned worker is pre-warmed for every registered
        deployment (executor caches via :meth:`CloudServer.warm`, its own
        channel clone), so healed capacity serves without cold-start
        jitter.  Bit parity is untouched: noise draws happened on the
        dispatcher before dispatch, so the cloud half is pure.

        Args:
            to: Pool size to restore (default ``target_workers``); capped
                at ``max_workers``.

        Returns:
            Number of workers spawned.
        """
        if self._closed:
            raise ConfigurationError("serving control plane is closed")
        target = min(
            self.target_workers if to is None else to, self.max_workers
        )
        if to is not None:
            # An explicit restore target becomes the new healing target.
            self.target_workers = max(1, target)
        spawned = max(0, target - self.alive_workers)
        for _ in range(spawned):
            self._spawn()
        self.pool_metrics.respawned_workers += spawned
        if spawned:
            self.pool_metrics.pool_size_samples.append(self.alive_workers)
        return spawned

    def scale_to(self, n: int) -> int:
        """Grow or shrink the pool to ``n`` live workers.

        Growth takes back stop markers still queued, then spawns
        pre-warmed workers.  A shrink queues one stop marker per surplus
        worker; it waits behind the micro-batches already queued, so no
        admitted work is abandoned, and the worker that takes it leaves.

        Returns:
            The live worker count after this call, ``n``.
        """
        if self._closed:
            raise ConfigurationError("serving control plane is closed")
        if not 1 <= n <= self.max_workers:
            raise ConfigurationError(
                f"pool size must be in [1, {self.max_workers}], got {n}"
            )
        self.target_workers = n
        self._withdraw_markers(n - self.alive_workers)
        while self.alive_workers < n:
            self._spawn()
        while self.alive_workers > n:
            self._retiring += 1
            self._tasks.put(None)
        self.pool_metrics.pool_size_samples.append(self.alive_workers)
        return self.alive_workers

    def enable_autoscale(
        self,
        *,
        min_workers: int = 1,
        max_workers: int | None = None,
        **policy,
    ) -> "Autoscaler":
        """Install an :class:`Autoscaler` stepped on every pump turn.

        Args:
            min_workers / max_workers: Pool bounds (``max_workers``
                defaults to the plane's ceiling).
            **policy: Forwarded to :class:`Autoscaler` (interval,
                utilisation target, backlog factor, idle steps).
        """
        self._autoscaler = Autoscaler(
            self,
            min_workers=min_workers,
            max_workers=(
                max_workers if max_workers is not None else self.max_workers
            ),
            **policy,
        )
        return self._autoscaler

    @property
    def autoscaler(self) -> "Autoscaler | None":
        """The installed autoscaler, if any."""
        return self._autoscaler

    def drain_deployment(
        self, name: str, *, timeout: float = 30.0
    ) -> list[RequestHandle]:
        """Drain one deployment to a barrier: flush its queue, collect
        every micro-batch still in flight (any tenant's — collection is
        global), and return every handle delivered on the way.

        Other deployments' *queued* requests stay queued; only this
        deployment's windows are force-closed.

        Raises:
            DeploymentDrainError: The barrier was not reached within
                ``timeout`` wall seconds.
        """
        return self._drain_deployment(name, time.monotonic() + timeout)

    def _drain_deployment(self, name: str, deadline: float) -> list[RequestHandle]:
        deployment = self.registry.get(name)
        delivered: list[RequestHandle] = []
        while len(deployment.queue) or any(
            flight.deployment == name for flight in self._flights
        ):
            if time.monotonic() > deadline:
                raise DeploymentDrainError(
                    f"deployment {name!r} did not drain in time "
                    f"({len(deployment.queue)} queued, "
                    f"{sum(f.deployment == name for f in self._flights)} "
                    "micro-batches in flight)"
                )
            self._dispatch_ready(flush=True, deployments=(deployment,))
            delivered.extend(
                self._collect(block=bool(self._flights), deadline=deadline)
            )
        return delivered

    def _quiesce(self, deadline: float | None = None) -> list[RequestHandle]:
        """Collect every in-flight micro-batch (no new dispatches) and every
        retiring worker's goodbye, so no worker is using its executors or
        about to leave — the precondition for re-equipping.  Past
        ``deadline`` (``time.monotonic()``; ``None``: none) it raises
        :class:`~repro.errors.DeploymentDrainError`, leaving what is still
        in flight there."""
        delivered: list[RequestHandle] = []
        while self._flights or self._retiring:
            if deadline is not None and time.monotonic() > deadline:
                raise DeploymentDrainError(
                    f"{len(self._flights)} micro-batches still in flight "
                    "at the quiesce deadline"
                )
            delivered.extend(self._collect(block=True, deadline=deadline))
        return delivered

    def swap(
        self,
        name: str,
        *,
        noise: NoiseCollection | None | object = _UNSET,
        rng: np.random.Generator | NoiseStream | None = None,
        model: SplittableModel | None = None,
        cut: str | None = None,
        timeout: float = 30.0,
    ) -> list[RequestHandle]:
        """Hot-swap a deployment's noise collection (and/or model/cut)
        under live traffic.

        The deployment is first drained to a barrier (its queued requests
        dispatch and deliver under the *old* configuration; other tenants
        keep serving), then every worker is re-equipped with the new
        split.  Requests submitted after this call returns are served
        by the new configuration — bit-identical to a fresh sequential
        reference over the new ``(model, cut, noise, rng)``; no request
        ever straddles the swap point.

        Args:
            noise: New noise collection; omit to keep the current one,
                pass ``None`` explicitly to remove noise.
            rng: New noise-sampling stream; omit to let the existing
                stream continue across the swap (its draw sequence is
                part of the *old* regime's parity only up to the barrier).
            model / cut: Optional backbone/cut replacement.  Changing
                either drops the deployment's uplink quantization (its
                calibration no longer applies).
            timeout: Drain-barrier budget in wall seconds.

        Returns:
            Handles delivered while draining to the barrier.

        Raises:
            DeploymentDrainError: The drain barrier timed out (the
                deployment is left un-swapped).
        """
        deployment = self.registry.get(name)
        deadline = time.monotonic() + timeout
        delivered = self._drain_deployment(name, deadline)
        delivered.extend(self._quiesce(deadline))
        old = deployment.spec
        # The weight regime survives the swap: a new model's weights are
        # re-quantised from scratch by the fresh executors (the int8 code
        # planes live in the lowered programs, never in the deployment).
        spec = replace(
            old,
            noise=old.noise if noise is _UNSET else noise,
            rng=deployment.noise_stream if rng is None else rng,
            quantization=(
                old.quantization if model is None and cut is None else None
            ),
        )
        model = model if model is not None else deployment.model
        cut = cut if cut is not None else deployment.cut
        swapped = (
            "model", "cut", "spec", "device", "remote", "activation_shape",
            "edge_kilomacs", "window_wire_seconds",
        )
        parts = (model, cut, spec) + self._split(
            model, cut, spec, deployment.batch_window
        )
        before = [getattr(deployment, attribute) for attribute in swapped]
        for attribute, value in zip(swapped, parts):
            setattr(deployment, attribute, value)
        try:
            self._equip_all(deployment)
        except BaseException:
            for attribute, value in zip(swapped, before):
                setattr(deployment, attribute, value)
            raise
        deployment.queue.image_shape = tuple(model.input_shape)
        return delivered

    def unregister(
        self, name: str, *, timeout: float = 30.0
    ) -> dict[int, np.ndarray]:
        """Remove a deployment under live traffic.

        Drains the tenant to a barrier first (queued and in-flight work
        delivers), strips its executors/channels from every worker, and
        removes it from the registry — other tenants keep
        serving throughout.  Submissions naming the removed deployment
        then raise :class:`~repro.errors.ConfigurationError`.

        Returns:
            The drained tenant's still-uncollected results, by request
            id (nothing is silently dropped).

        Raises:
            DeploymentDrainError: The drain barrier timed out (the
                deployment stays registered).
        """
        deployment = self.registry.get(name)
        deadline = time.monotonic() + timeout
        self._drain_deployment(name, deadline)
        self._quiesce(deadline)
        for worker in self._workers.values():
            worker.servers.pop(name, None)
            worker.channels.pop(name, None)
        self.registry.remove(name)
        deployment.noise_stream.release()
        return dict(deployment.deliverable)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def metrics_by_deployment(self) -> dict[str, ServingMetrics]:
        """Each deployment's metrics object, by name."""
        return {
            deployment.name: deployment.metrics for deployment in self.registry
        }

    def report_for(self, deployment: str | None = None) -> SessionReport:
        """Sequential-session-compatible accounting for one deployment
        (``None`` = the sole one)."""
        target = self.deployment(deployment)
        return SessionReport(
            requests=target.metrics.requests,
            uplink_bytes=target.metrics.uplink_bytes,
            downlink_bytes=target.metrics.downlink_bytes,
            simulated_seconds=target.metrics.simulated_wire_seconds,
            edge_kilomacs_per_sample=target.edge_kilomacs,
        )

    # ------------------------------------------------------------------
    # Dispatch (dispatcher thread only)
    # ------------------------------------------------------------------
    def _dispatch_ready(
        self, *, flush: bool, deployments: Iterable[Deployment] | None = None
    ) -> None:
        if self._closed:
            raise ConfigurationError("serving control plane is closed")
        for deployment in deployments or self.registry:
            now = self._clock()
            flights: list[_Flight] = []
            try:
                while window := deployment.batcher.next_batch(now, flush=flush):
                    flights.append(self._dispatch(deployment, window, now))
            finally:
                # A deployment's windows launch after its last edge half,
                # so a backlog's edge halves do not trade the GIL with the
                # workers' cloud halves one window at a time.
                for flight in flights:
                    self._flights.add(flight)
                    self._tasks.put(flight)
        if self.alive_workers <= 0:
            self._fail_stranded([])

    def _dispatch(
        self,
        deployment: Deployment,
        window: list[InferenceRequest],
        now: float,
    ) -> _Flight:
        if deployment.span_start is None:
            deployment.span_start = now
        # Only session requests pass the ordering gate: a sessionless
        # request orders against itself alone, so it delivers as soon as
        # it is computed.
        for request in window:
            deployment.metrics.queue_ages.append(now - request.submitted_at)
            if request.session_id is not None:
                deployment.session_waiting.setdefault(
                    request.session_id, deque()
                ).append(request)
        deployment.metrics.record_mixing(
            [request.ordering_key for request in window],
            [request.rows for request in window],
        )
        # Edge half on the dispatcher: the deployment's noise stream has
        # exactly one owner, and draws happen in arrival order — the
        # parity contract, per deployment.
        message = deployment.device.forward_batch(
            [request.images for request in window],
            [request.request_id for request in window],
        )
        # Shuffler stage: permute the stacked rows across sessions after
        # noise (and any quantisation — both row-local) so the wire
        # frame's row order carries no session information.  The inverse
        # rides on the flight; _absorb restores per-request order before
        # demultiplexing, so parity is untouched.
        permutation = None
        if deployment.shuffler is not None:
            permutation = deployment.shuffler.permute(len(message.tensor))
            if permutation is not None:
                message = BatchActivationMessage(
                    request_ids=message.request_ids,
                    splits=message.splits,
                    tensor=permutation.apply(message.tensor),
                    quantization=message.quantization,
                )
                deployment.metrics.record_shuffle(
                    [request.ordering_key for request in window],
                    [request.rows for request in window],
                )
        flight = _Flight(
            deployment.name, window, encode_activation_batch(message),
            message.request_ids, permutation=permutation,
        )
        self.pool_metrics.pool_size_samples.append(self.alive_workers)
        return flight

    # ------------------------------------------------------------------
    # Cloud half (worker threads)
    # ------------------------------------------------------------------
    def _execute(self, worker: _Worker, task: _Flight) -> _ServiceResult:
        started = time.perf_counter()
        if self._fault_injector is not None and self._fault_injector(
            worker.worker_id, task
        ):
            raise WorkerCrashError(
                f"worker {worker.worker_id} crashed servicing a "
                f"micro-batch of deployment {task.deployment!r}",
                worker_id=worker.worker_id,
            )
        channel = worker.channels[task.deployment]
        server = worker.servers[task.deployment]
        wire_before = channel.stats.simulated_seconds
        delivered = decode_activation_batch(channel.transmit(task.uplink))
        response = server.predict_batch(delivered)
        downlink = channel.transmit(encode_prediction_batch(response))
        decoded = decode_prediction_batch(downlink)
        return _ServiceResult(
            worker_id=worker.worker_id,
            decoded=decoded,
            downlink_bytes=len(downlink),
            wire_seconds=channel.stats.simulated_seconds - wire_before,
            busy_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    # Collection + crash recovery (dispatcher thread only)
    # ------------------------------------------------------------------
    def _collect(
        self, *, block: bool, deadline: float | None = None
    ) -> list[RequestHandle]:
        """Absorb finished micro-batches in completion order, and retired
        workers' goodbyes; ``block`` waits until neither is pending, or
        until ``deadline`` (``time.monotonic()``) passes."""
        delivered: list[RequestHandle] = []
        while self._flights or self._retiring:
            wait = None
            if deadline is not None:
                wait = max(0.0, deadline - time.monotonic())
            try:
                flight, outcome = self._done.get(block=block, timeout=wait)
            except Empty:
                break
            if flight is None:  # a retired worker's goodbye
                self._forget(outcome)
                self._retiring -= 1
                continue
            self._flights.discard(flight)
            if isinstance(outcome, WorkerCrashError):
                self._forget(outcome.worker_id)
                self._withdraw_markers(1)  # it counts as a shrink's retirement
                self._recover(flight)
            elif isinstance(outcome, BaseException):
                self._discard_flight(flight)
                raise outcome
            else:
                self._absorb(flight, outcome, delivered)
        return delivered

    def _forget(self, worker_id: int) -> None:
        """Drop a departed worker, and its channel clones from their
        deployments (its thread has emptied its executors)."""
        worker = self._workers.pop(worker_id)
        for name, clone in worker.channels.items():
            channels = self.registry.get(name).channels
            channels[:] = [channel for channel in channels if channel is not clone]
        worker.channels.clear()

    def _recover(self, flight: _Flight) -> None:
        """Requeue a crash-interrupted micro-batch exactly once.

        The crashed attempt produced no result (a worker dies *before*
        shipping its downlink), so re-executing the cloud half on the same
        uplink bytes completes the batch exactly once; noise was drawn on
        the dispatcher long before, so the retried logits are bit-identical
        to an undisturbed run.  When no worker survives, the flight and
        every flight still queued are discarded and one
        :class:`~repro.errors.ServingFaultError` names them — unless
        ``auto_heal`` is on, in which case the pool is restored to
        ``target_workers`` first (so even total worker loss recovers).
        """
        if self.auto_heal and self.alive_workers < self.target_workers:
            self.heal()
        if self.alive_workers <= 0:
            self._fail_stranded([flight])
        self.registry.get(flight.deployment).metrics.requeued_batches += 1
        self._flights.add(flight)
        self._tasks.put(flight)

    def _fail_stranded(self, lost: list[_Flight]) -> None:
        """With no worker left, discard ``lost`` and every queued flight and
        raise one :class:`~repro.errors.ServingFaultError` naming them."""
        for task in self._take_queued():
            if task is None:  # a retiring worker's stop marker stays
                self._tasks.put(task)
            else:
                lost.append(task)
        for flight in lost:
            self._discard_flight(flight)
        if lost:
            raise ServingFaultError(
                "every cloud worker has crashed; micro-batches (deployment, "
                f"requests) {[(f.deployment, list(f.request_ids)) for f in lost]}"
                " cannot be recovered"
            )

    def _discard_flight(self, flight: _Flight) -> None:
        """Drop a failed micro-batch without wedging the plane.

        The flight's requests are lost (the worker error propagates to the
        caller), but they must not stay in the session-ordering gate or
        the in-flight set — later requests of the same sessions, and later
        ``pump``/``drain`` calls, keep working.
        """
        self._flights.discard(flight)
        deployment = self.registry.get(flight.deployment)
        for request in flight.window:
            waiting = deployment.session_waiting.get(request.session_id)
            if waiting is None:
                continue
            try:
                waiting.remove(request)
            except ValueError:
                pass
            if not waiting:
                del deployment.session_waiting[request.session_id]

    def _absorb(
        self,
        flight: _Flight,
        result: _ServiceResult,
        delivered: list[RequestHandle],
    ) -> None:
        deployment = self.registry.get(flight.deployment)
        now = self._clock()
        decoded = result.decoded
        if flight.permutation is not None:
            # Un-permute the stacked logits with the recorded inverse
            # before demultiplexing: wire rows come back in shuffle order,
            # and split_logits slices by the *request-order* splits.
            decoded = BatchPredictionMessage(
                request_ids=decoded.request_ids,
                splits=decoded.splits,
                logits=flight.permutation.restore(decoded.logits),
            )
        metrics = deployment.metrics
        metrics.requests += len(flight.window)
        metrics.samples += sum(request.rows for request in flight.window)
        metrics.micro_batches += 1
        metrics.occupancies.append(len(flight.window))
        metrics.uplink_bytes += len(flight.uplink)
        metrics.downlink_bytes += result.downlink_bytes
        metrics.simulated_wire_seconds += result.wire_seconds
        metrics.record_worker(result.worker_id, result.busy_seconds)
        deployment.batcher.observe_service(result.busy_seconds)
        before = len(delivered)
        for request, logits in zip(flight.window, decoded.split_logits()):
            if request.session_id is None:  # orders against itself alone
                deployment.deliverable[request.request_id] = logits
                metrics.record_completion(
                    now - request.submitted_at, request.slo_seconds
                )
                delivered.append(RequestHandle(deployment.name, request.request_id))
            else:
                deployment.computed[request.request_id] = logits
                self._release_session(
                    deployment, request.session_id, now, delivered
                )
        if len(delivered) > before and deployment.span_start is not None:
            metrics.wall_seconds = now - deployment.span_start

    def _release_session(
        self,
        deployment: Deployment,
        session_id: Hashable,
        now: float,
        delivered: list[RequestHandle],
    ) -> None:
        waiting = deployment.session_waiting.get(session_id)
        while waiting and waiting[0].request_id in deployment.computed:
            request = waiting.popleft()
            deployment.deliverable[request.request_id] = (
                deployment.computed.pop(request.request_id)
            )
            deployment.metrics.record_completion(
                now - request.submitted_at, request.slo_seconds
            )
            delivered.append(RequestHandle(deployment.name, request.request_id))
        if waiting is not None and not waiting:
            del deployment.session_waiting[session_id]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the shared worker pool down (idempotent).

        Queued micro-batches no worker has started are dropped; each pool
        thread finishes the one it is executing, then exits.  Every worker
        thread, alive, crashed or retired, empties its worker's executors
        as it leaves, so shutdown leaks no thread and keeps no executor
        cache reachable; the plane forgets its workers and their channel
        clones even if the join is interrupted.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._take_queued()
            self._stop_threads()
            for thread in self._threads:
                thread.join()
        finally:
            for worker in self._workers.values():
                worker.channels.clear()
            self._workers.clear()
            self._retiring = 0
            for deployment in self.registry:
                deployment.channels.clear()

    def _withdraw_markers(self, wanted: int) -> None:
        """Take up to ``wanted`` queued stop markers back (their workers
        stay); every other task keeps its place in the queue."""
        if wanted <= 0 or not self._retiring:
            return
        for task in self._take_queued():
            if task is None and wanted > 0:
                wanted -= 1
                self._retiring -= 1
            else:
                self._tasks.put(task)

    def _take_queued(self) -> list[_Flight | None]:
        """Empty the task queue, returning what it held in queue order."""
        queued: list[_Flight | None] = []
        while True:
            try:
                queued.append(self._tasks.get_nowait())
            except Empty:
                return queued

    def __enter__(self) -> "ControlPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _work(
    plane_ref, worker: _Worker, tasks: SimpleQueue, done: SimpleQueue
) -> None:
    """``worker``'s thread: run queued flights' cloud halves until it takes
    a stop marker (``None``), crashes, or the plane is gone.  It empties
    the worker's executors before its last message, a goodbye or the
    crash; the dispatcher drops its channel clones on receipt."""
    farewell: tuple[_Flight | None, object] = (None, worker.worker_id)
    try:
        while (flight := tasks.get()) is not None:
            plane = plane_ref()
            if plane is None:
                return
            try:
                outcome = plane._execute(worker, flight)
            except BaseException as error:  # re-raised by the collector
                outcome = error
            del plane
            if isinstance(outcome, WorkerCrashError):
                farewell = (flight, outcome)
                return
            done.put((flight, outcome))
    finally:
        worker.servers.clear()
        done.put(farewell)


def _stop_threads(tasks: SimpleQueue, threads: list[Thread]) -> None:
    """Wake every pool thread with a stop marker."""
    for _ in threads:
        tasks.put(None)


@dataclass(frozen=True)
class AutoscaleDecision:
    """One pool-resize decision taken by the :class:`Autoscaler`."""

    at: float
    previous: int
    target: int
    reason: str


class Autoscaler:
    """Reactive + feedforward pool sizing from the plane's own signals.

    Stepped by the dispatcher on every pump turn (throttled to
    ``interval_seconds``), the autoscaler:

    1. **heals** — if the pool is below target (crashes), respawn first;
    2. **feeds forward** — per-deployment arrival rates (deltas of
       :attr:`~repro.serve.queue.RequestQueue.submitted`) times the
       measured batch service EWMA (or, cold, the planner's
       :func:`~repro.edge.planner.predict_window_latency` wire term)
       give the demand in busy-seconds/second; the pool grows to
       ``ceil(demand / target_utilisation)`` when that exceeds it;
    3. **reacts** — visible backlog (queued batches above
       ``backlog_factor`` per live worker) or SLO pressure (predicted
       backlog delay above a deployment's ``target_slo_seconds``) grows
       the pool by one;
    4. **decays** — after ``scale_down_idle_steps`` consecutive idle
       steps (no arrivals, nothing queued or in flight) the pool shrinks
       by one toward ``min_workers``.

    Every decision is recorded in :attr:`decisions` and applied through
    :meth:`ControlPlane.scale_to` (shrinks never preempt running
    batches).
    """

    def __init__(
        self,
        plane: ControlPlane,
        *,
        min_workers: int = 1,
        max_workers: int | None = None,
        interval_seconds: float = 0.05,
        target_utilisation: float = 0.7,
        backlog_factor: float = 2.0,
        scale_down_idle_steps: int = 4,
    ) -> None:
        if min_workers < 1:
            raise ConfigurationError(
                f"min_workers must be >= 1, got {min_workers}"
            )
        resolved_max = max_workers if max_workers is not None else plane.max_workers
        if not min_workers <= resolved_max <= plane.max_workers:
            raise ConfigurationError(
                f"need min_workers <= max_workers <= plane ceiling "
                f"({plane.max_workers}), got [{min_workers}, {resolved_max}]"
            )
        if not 0.0 < target_utilisation <= 1.0:
            raise ConfigurationError(
                f"target_utilisation must be in (0, 1], got {target_utilisation}"
            )
        self._plane = plane
        self.min_workers = min_workers
        self.max_workers = resolved_max
        self.interval_seconds = interval_seconds
        self.target_utilisation = target_utilisation
        self.backlog_factor = backlog_factor
        self.scale_down_idle_steps = scale_down_idle_steps
        self.decisions: list[AutoscaleDecision] = []
        self._last_step: float | None = None
        self._last_submitted: dict[str, int] = {}
        self._idle_steps = 0

    def step(self, now: float) -> int | None:
        """One control step: heal, then resize if the signals say so.

        Returns the new pool target when a resize happened, else ``None``.
        """
        if (
            self._last_step is not None
            and now - self._last_step < self.interval_seconds
        ):
            return None
        elapsed = None if self._last_step is None else now - self._last_step
        self._last_step = now
        plane = self._plane
        plane.heal()
        alive = plane.alive_workers
        arrivals = 0
        demand = 0.0
        backlog_batches = 0
        slo_pressure = False
        for deployment in plane.registry:
            submitted = deployment.queue.submitted
            before = self._last_submitted.get(deployment.name, submitted)
            self._last_submitted[deployment.name] = submitted
            new = submitted - before
            arrivals += new
            per_batch = max(
                deployment.batcher.service_estimate,
                deployment.window_wire_seconds,
            )
            if elapsed and per_batch > 0.0:
                rate = new / elapsed
                demand += (rate / max(1, deployment.batch_window)) * per_batch
            queued_batches = math.ceil(
                len(deployment.queue) / max(1, deployment.batch_window)
            )
            backlog_batches += queued_batches
            if (
                deployment.spec.target_slo_seconds is not None
                and queued_batches
                and per_batch > 0.0
            ):
                predicted = per_batch * math.ceil(queued_batches / max(1, alive))
                if predicted > deployment.spec.target_slo_seconds:
                    slo_pressure = True
        target = alive
        reason = None
        feedforward = (
            math.ceil(demand / self.target_utilisation) if demand > 0.0 else 0
        )
        if feedforward > alive:
            target = min(self.max_workers, feedforward)
            reason = f"feedforward demand {demand:.2f} busy-s/s"
        elif (
            backlog_batches > alive * self.backlog_factor or slo_pressure
        ) and alive < self.max_workers:
            target = alive + 1
            reason = (
                "SLO pressure"
                if slo_pressure
                else f"backlog {backlog_batches} batches over {alive} workers"
            )
        if target > alive:
            self._idle_steps = 0
        elif arrivals == 0 and plane.pending == 0 and plane.in_flight == 0:
            self._idle_steps += 1
            if (
                self._idle_steps >= self.scale_down_idle_steps
                and alive > self.min_workers
            ):
                target = alive - 1
                reason = f"idle for {self._idle_steps} steps"
                self._idle_steps = 0
        else:
            self._idle_steps = 0
        if target == alive or reason is None:
            return None
        self.decisions.append(
            AutoscaleDecision(at=now, previous=alive, target=target, reason=reason)
        )
        plane.scale_to(target)
        return target
