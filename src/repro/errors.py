"""Exception hierarchy for the Shredder reproduction.

Every error raised intentionally by this library derives from
:class:`ReproError` so that callers can catch library failures without
catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ShapeError(ReproError, ValueError):
    """An array or tensor had an incompatible shape."""


class GradientError(ReproError, RuntimeError):
    """Backward pass was used incorrectly (e.g. no grad function)."""


class ConfigurationError(ReproError, ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class SerializationError(ReproError, ValueError):
    """A state dict could not be saved or loaded."""


class DatasetError(ReproError, ValueError):
    """A dataset was asked for something it cannot produce."""


class ModelError(ReproError, ValueError):
    """A model was constructed or used incorrectly (bad cut point, ...)."""


class EstimatorError(ReproError, ValueError):
    """An information-theoretic estimator received unusable inputs."""


class TrainingError(ReproError, RuntimeError):
    """Noise or model training failed or diverged."""


class ChannelError(ReproError, RuntimeError):
    """The simulated edge-cloud channel rejected a message."""


class NoiseOwnershipError(ConfigurationError):
    """A :class:`~repro.core.sampler.NoiseStream` was drawn from a thread
    that does not own it.

    The serving dispatcher must be the single generator owner; any other
    thread drawing would silently interleave the noise bit stream and break
    the bit-parity contract.  Subclasses :class:`ConfigurationError` so
    pre-existing handlers keep working.
    """


class ChannelOwnershipError(ChannelError):
    """A :class:`~repro.edge.channel.Channel` was used from two threads at
    once.

    Channel statistics (and the drop generator) are not thread-safe; every
    concurrent user must hold its own :meth:`~repro.edge.channel.Channel.clone`.
    """


class WorkerCrashError(ReproError, RuntimeError):
    """A cloud worker died while servicing a micro-batch.

    Raised inside the worker when the fault-injection hook kills it, and
    caught by the dispatcher, which requeues the in-flight batch onto the
    surviving workers exactly-once.  Carries the crashed ``worker_id``.
    """

    def __init__(self, message: str, worker_id: int | None = None) -> None:
        super().__init__(message)
        self.worker_id = worker_id


class ServingFaultError(ReproError, RuntimeError):
    """The serving control plane cannot recover from worker failures
    (e.g. every worker has crashed while batches were still in flight)."""


class ShardCrashError(ReproError, RuntimeError):
    """The peer of a shard socket died mid-conversation.

    Raised by :class:`~repro.serve.transport.SocketTransport` when the
    connection hits EOF or a reset while a frame is expected — the
    process-sharded serving plane's signal that a shard subprocess (or
    the parent) is gone.  The parent catches it, respawns the shard
    pre-warmed, and replays the shard's admitted request log so nothing
    admitted is ever silently dropped (the PR 6 healing contract,
    extended across process boundaries).  Carries the ``shard_id`` when
    the transport knows which shard it was speaking for.
    """

    def __init__(self, message: str, shard_id: int | None = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class OverloadError(ReproError, RuntimeError):
    """The serving plane explicitly rejected work under overload.

    This is the 429-style contract of the elastic control plane: when a
    deployment cannot absorb more traffic, submission fails with a typed
    error *at the front door* instead of silently collapsing every
    tenant's tail latency.  Raised directly for deadline-based load
    shedding (the request's SLO is already unmeetable given the current
    backlog and measured service time), and via the
    :class:`AdmissionError` subclass for rate/queue-capacity rejections.
    A request that was admitted is never shed later — admitted means
    served exactly once, in order, bit-identically.
    """


class AdmissionError(OverloadError):
    """A request was refused at the admission gate.

    Raised by the per-deployment :class:`~repro.serve.admission.AdmissionController`
    when the deployment's token bucket is out of tokens (sustained rate
    above ``admission_rate_rps``) or its pending-queue cap
    (``max_pending``) is reached.  Subclasses :class:`OverloadError`, so
    ``except OverloadError`` handles every 429-style rejection.
    """


class DeploymentDrainError(ReproError, RuntimeError):
    """A deployment drain barrier could not complete.

    Hot-swap, unregister, and pool-mutation operations first drain work
    to a barrier (queued requests dispatched and every in-flight
    micro-batch collected).  When that barrier cannot be reached — e.g.
    a worker wedges past the drain timeout — this error surfaces instead
    of hanging the control plane.
    """
