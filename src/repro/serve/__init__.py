"""``repro.serve`` — batched, multi-user split-inference serving.

The paper's deployment story (§2.5 / Figure 2) is one edge device sending
one noisy activation at a time.  A multi-user deployment serves many
concurrent requests, and that is where batching pays.  Every batched
deployment runs on one runtime, the **control plane**
(:class:`~repro.serve.controlplane.ControlPlane`):

* a :class:`~repro.serve.controlplane.DeploymentRegistry` of named
  ``(model, cut, noise collection)`` deployments, each with its own
  FIFO request queue (:mod:`repro.serve.queue`), single-owner noise
  stream, :class:`~repro.serve.scheduler.AdaptiveBatcher` (deadline-aware
  or fixed windows, ``mixed`` or ``isolate_sessions`` batches) and
  :class:`~repro.serve.metrics.ServingMetrics`;
* a dispatcher (the caller's thread) that validates and admits requests
  (:class:`~repro.serve.admission.AdmissionController`: token bucket,
  queue cap, deadline shedding — typed 429-style rejections), runs each
  micro-batch's edge half with its noise draws in arrival order,
  optionally permutes its rows across sessions
  (:class:`~repro.serve.scheduler.Shuffler`, with the inverse recorded),
  and releases results in per-session order;
* one **shared** pool of cloud workers running the remote halves, with
  crash recovery, healing, scaling
  (:class:`~repro.serve.controlplane.Autoscaler`), hot swap and
  unregister behind drain barriers.

:meth:`repro.core.ShredderPipeline.deploy` returns a one-deployment
plane and :meth:`~repro.core.ShredderPipeline.deploy_many` a
multi-tenant one; the plane's request methods default to its sole
deployment.  :class:`~repro.serve.aio.AsyncServingClient` drives a plane
from an asyncio event loop, and
:class:`~repro.serve.shard.ShardedServingEngine` runs one plane per
subprocess shard, rebuilt from a spawn-safe
:class:`~repro.serve.shard.ShardSpec`, routing requests by deterministic
session hashing (:func:`~repro.serve.shard.route_session`) over real
sockets (:mod:`repro.serve.transport`) and replaying a dead shard's log
exactly-once.  The scheduling policy also runs under a virtual clock
(:mod:`repro.serve.replay`), and :mod:`repro.serve.loadgen` generates
reproducible open-loop traces over Zipf-heavy million-user populations.

Serving is bit-for-bit equivalent to the sequential reference path
(:class:`repro.edge.InferenceSession`, the oracle) on the same request
stream — for every batching window, worker count and shuffle setting,
per deployment (per shard when sharded): all paths run the
batch-invariant executor and consume the same noise sample stream, whose
single explicit owner is the dispatcher
(:class:`~repro.core.sampler.NoiseStream`).  Shuffling adds per-batch
anonymity-set accounting and the closed-form amplification bound
(:meth:`~repro.serve.metrics.ServingMetrics.shuffle_amplification`);
:mod:`repro.privacy.shuffle_eval` measures the leakage empirically.
"""

from repro.errors import (
    AdmissionError,
    DeploymentDrainError,
    OverloadError,
    ShardCrashError,
)
from repro.serve.admission import AdmissionController, TokenBucket
from repro.serve.loadgen import (
    TRACE_SHAPES,
    TraceEvent,
    generate_trace,
    replay_trace,
    trace_stats,
)
from repro.serve.controlplane import (
    Autoscaler,
    AutoscaleDecision,
    ControlPlane,
    Deployment,
    DeploymentRegistry,
    DeploymentSpec,
    RequestHandle,
)
from repro.serve.metrics import ServingMetrics, percentile
from repro.serve.queue import InferenceRequest, RequestQueue
from repro.serve.replay import (
    ScheduleResult,
    TimedRequest,
    VirtualClock,
    random_trace,
    simulate_schedule,
)
from repro.serve.scheduler import AdaptiveBatcher, BatchPermutation, Shuffler
from repro.serve.shard import (
    ShardSpec,
    ShardedServingEngine,
    route_session,
    shard_seed,
)
from repro.serve.transport import FrameDecoder, SocketTransport, transport_pair


def __getattr__(name: str):
    if name == "AsyncServingClient":  # loads asyncio on first use only
        from repro.serve.aio import AsyncServingClient

        return AsyncServingClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdaptiveBatcher",
    "AdmissionController",
    "AdmissionError",
    "AsyncServingClient",
    "AutoscaleDecision",
    "Autoscaler",
    "BatchPermutation",
    "ControlPlane",
    "Deployment",
    "DeploymentDrainError",
    "DeploymentRegistry",
    "DeploymentSpec",
    "FrameDecoder",
    "InferenceRequest",
    "OverloadError",
    "RequestHandle",
    "RequestQueue",
    "ScheduleResult",
    "ServingMetrics",
    "ShardCrashError",
    "ShardSpec",
    "ShardedServingEngine",
    "Shuffler",
    "SocketTransport",
    "TRACE_SHAPES",
    "TokenBucket",
    "TimedRequest",
    "TraceEvent",
    "VirtualClock",
    "generate_trace",
    "percentile",
    "random_trace",
    "replay_trace",
    "route_session",
    "shard_seed",
    "simulate_schedule",
    "trace_stats",
    "transport_pair",
]
